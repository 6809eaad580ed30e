package report

import (
	"fmt"
	"io"
	"sort"

	"vpnscope/internal/telemetry"
)

// WriteTelemetrySummary renders a telemetry snapshot as the campaign
// telemetry section of the collection-health report: the deterministic
// campaign counters first, then the execution-shape and wall-clock
// diagnostics. The full machine-readable snapshot is what `-metrics`
// writes; this is the human summary embedded alongside the health
// tables.
func WriteTelemetrySummary(w io.Writer, s *telemetry.Snapshot) {
	c, r := s.Campaign, s.Runtime
	rows := [][]string{
		{"Slots done / total", fmt.Sprintf("%d / %d", c.SlotsDone, c.SlotsTotal)},
		{"Committed / resumed / quarantine-skipped", fmt.Sprintf("%d / %d / %d", c.SlotsCommitted, c.SlotsResumed, c.QuarantineSkipped)},
		{"Reports / connect failures / recoveries", fmt.Sprintf("%d / %d / %d", c.Reports, c.ConnectFailures, c.Recoveries)},
		{"Quarantine trips", fmt.Sprint(c.QuarantineTrips)},
		{"Faults absorbed (committed slots)", fmt.Sprint(total(c.Faults))},
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
		{"Faults injected (raw, incl. speculative)", fmt.Sprint(total(r.FaultsRaw))},
		{"Slots measured / speculative discards", fmt.Sprintf("%d / %d", r.SlotsMeasured, r.SpeculativeDiscards)},
		{"Worker worlds built", fmt.Sprint(r.WorkerWorldBuilds)},
		{"Steals / victim scans / rescans", fmt.Sprintf("%d / %d / %d", r.Steals, r.VictimScans, r.StealRescans)},
		{"Serialize-buffer pool hit rate", hitRate(r.SerializeBufferGets, r.SerializeBufferNews)},
		{"Decoder pool hit rate", hitRate(r.DecoderGets, r.DecoderNews)},
		{"Wall elapsed", fmt.Sprintf("%.0f ms", s.Wall.ElapsedMs)},
		{"Committer wait", fmt.Sprintf("%.0f ms", s.Wall.CommitWaitMs)},
	}
	Table(w, "Execution diagnostics (non-deterministic)", []string{"Metric", "Value"}, runtimeRows)
}

func total(f telemetry.FaultCounts) int64 {
	return f.Dropped + f.Flapped + f.Refused + f.Delayed + f.Blackouts + f.TunnelResets
}

func meanOf(h telemetry.HistogramSnapshot) string {
	if h.Count == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f ms", h.SumMs/float64(h.Count))
}

func hitRate(gets, news int64) string {
	if gets == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%% (%d gets, %d misses)", 100*float64(gets-news)/float64(gets), gets, news)
}
