package report

import (
	"fmt"
	"io"
	"sort"

	"vpnscope/internal/study"
)

// HealthRow summarizes one provider's collection health: how many
// vantage points the campaign attempted, how many yielded a full
// report, and where the rest went. The paper's §5.2 collection was
// dominated by exactly this attrition — dead endpoints, failed
// connections, partial re-collections — so the runner surfaces it
// per provider instead of letting failed vantage points vanish.
type HealthRow struct {
	Provider    string
	Attempted   int // vantage points the runner reached
	Measured    int // full suite reports collected
	Retried     int // vantage points that needed more than one connect attempt
	Failed      int // connect failures after the full retry budget
	Quarantined int // vantage points skipped by the circuit breaker
	TestErrors  int // non-fatal per-test errors across this provider's reports
}

// CollectionHealth aggregates a campaign result into per-provider
// health rows, sorted by provider name.
func CollectionHealth(res *study.Result) []HealthRow {
	byName := map[string]*HealthRow{}
	row := func(name string) *HealthRow {
		r, ok := byName[name]
		if !ok {
			r = &HealthRow{Provider: name}
			byName[name] = r
		}
		return r
	}
	for _, rep := range res.Reports {
		r := row(rep.Provider)
		r.Attempted++
		r.Measured++
		r.TestErrors += len(rep.Errors)
	}
	for _, f := range res.ConnectFailures {
		r := row(f.Provider)
		r.Attempted++
		r.Failed++
	}
	for _, rec := range res.Recoveries {
		row(rec.Provider).Retried++
	}
	for _, q := range res.Quarantines {
		r := row(q.Provider)
		r.Attempted += len(q.SkippedVPs)
		r.Quarantined += len(q.SkippedVPs)
	}
	out := make([]HealthRow, 0, len(byName))
	for _, r := range byName {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Provider < out[j].Provider })
	return out
}

// WriteCollectionHealth renders the collection-health table, plus a
// campaign-wide summary line.
func WriteCollectionHealth(w io.Writer, res *study.Result) {
	rows := CollectionHealth(res)
	cells := make([][]string, 0, len(rows))
	var attempted, measured, retried, failed, quarantined int
	for _, r := range rows {
		attempted += r.Attempted
		measured += r.Measured
		retried += r.Retried
		failed += r.Failed
		quarantined += r.Quarantined
		cells = append(cells, []string{
			r.Provider,
			fmt.Sprint(r.Attempted),
			fmt.Sprint(r.Measured),
			fmt.Sprint(r.Retried),
			fmt.Sprint(r.Failed),
			fmt.Sprint(r.Quarantined),
			fmt.Sprint(r.TestErrors),
		})
	}
	Table(w, "Collection health (per provider)",
		[]string{"provider", "attempted", "measured", "retried", "failed", "quarantined", "test errors"},
		cells)
	if attempted == 0 {
		// An empty campaign (nothing attempted yet — e.g. one stopped
		// before the first vantage point) has no measurement rate.
		fmt.Fprintf(w, "campaign: 0/0 vantage points measured (n/a)\n")
		return
	}
	fmt.Fprintf(w, "campaign: %d/%d vantage points measured (%.1f%%, %d retried, %d failed, %d quarantined)\n",
		measured, attempted, 100*float64(measured)/float64(attempted), retried, failed, quarantined)
}
