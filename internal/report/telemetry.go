package report

import (
	"fmt"
	"io"
	"sort"

	"vpnscope/internal/flightrec"
)

// WriteTelemetrySummary renders a flight recorder's metrics snapshot as
// the campaign telemetry section of the collection-health report: the
// deterministic campaign counters first, then the execution-shape and
// wall-clock diagnostics. The full machine-readable snapshot is what
// `-metrics` writes; this is the human summary embedded alongside the
// health tables. A nil snapshot (no recorder attached) writes nothing.
func WriteTelemetrySummary(w io.Writer, s *flightrec.Metrics) {
	if s == nil {
		return
	}
	c, r := s.Campaign, s.Runtime
	rows := [][]string{
		{"Slots done / total", fmt.Sprintf("%d / %d", c.SlotsDone, c.SlotsTotal)},
		{"Committed / resumed / quarantine-skipped", fmt.Sprintf("%d / %d / %d", c.SlotsCommitted, c.SlotsResumed, c.QuarantineSkipped)},
		{"Reports / connect failures / recoveries", fmt.Sprintf("%d / %d / %d", c.Reports, c.ConnectFailures, c.Recoveries)},
		{"Quarantine trips", fmt.Sprint(c.QuarantineTrips)},
		{"Faults absorbed (committed slots)", fmt.Sprint(c.Faults.Total())},
		{"Suite virtual time (mean)", meanOf(c.SuiteVirtual)},
	}
	Table(w, fmt.Sprintf("Campaign telemetry (%s)", s.Schema), []string{"Metric", "Value"}, rows)

	if len(c.TestVirtual) > 0 {
		names := make([]string, 0, len(c.TestVirtual))
		for name := range c.TestVirtual {
			names = append(names, name)
		}
		sort.Strings(names)
		var testRows [][]string
		for _, name := range names {
			h := c.TestVirtual[name]
			testRows = append(testRows, []string{name, fmt.Sprint(h.Count), meanOf(h)})
		}
		Table(w, "Per-test virtual time (committed slots)",
			[]string{"Test", "Runs", "Mean"}, testRows)
	}

	runtimeRows := [][]string{
		{"Packet exchanges", fmt.Sprint(r.Exchanges)},
		{"Faults injected (raw, incl. speculative)", fmt.Sprint(r.FaultsRaw.Total())},
		{"Slots measured / speculative discards", fmt.Sprintf("%d / %d", r.SlotsMeasured, r.SpeculativeDiscards)},
		{"Worker worlds built", fmt.Sprint(r.WorkerWorldBuilds)},
		{"Steals / victim scans / rescans", fmt.Sprintf("%d / %d / %d", r.Steals, r.VictimScans, r.StealRescans)},
		{"Wall elapsed", fmt.Sprintf("%.0f ms", s.Wall.ElapsedMs)},
		{"Committer wait", fmt.Sprintf("%.0f ms", s.Wall.CommitWaitMs)},
	}
	Table(w, "Execution diagnostics (non-deterministic)", []string{"Metric", "Value"}, runtimeRows)
}

func meanOf(h flightrec.HistogramSnapshot) string {
	if h.Count == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f ms", h.SumMs/float64(h.Count))
}
