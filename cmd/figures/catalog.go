package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"

	"vpnscope/internal/analysis"
	"vpnscope/internal/campaign"
	"vpnscope/internal/ecosystem"
	"vpnscope/internal/flightrec"
	"vpnscope/internal/report"
	"vpnscope/internal/results/shardlog"
	"vpnscope/internal/study"
)

// catalogParams carries what the streaming sweep needs beyond its spec.
type catalogParams struct {
	catalog  int // the -catalog flag: 0 sweeps the tested 62
	outcomes string
	rec      *recorder
}

// runCatalogMode is the ecosystem-scale entry point: every outcome is
// streamed into a sharded append-only log, the §6 report is generated
// by re-iterating the log (never materializing the result set), and
// -months re-audits the catalog at later virtual months, reporting
// verdict churn against the planted synthetic drift.
func runCatalogMode(ctx context.Context, stopSignals func(), spec campaign.Spec, p catalogParams) {
	out := os.Stdout
	var entries []ecosystem.CatalogEntry
	if p.catalog > 0 {
		entries = spec.CatalogEntries()
		fmt.Fprintf(out, "catalog sweep: %d providers (%d with hand-built tested specs)\n",
			len(entries), countTested(entries))
	}

	base := auditMonth(ctx, stopSignals, &spec, p, 0)
	p.rec.stopProgress()
	baseLean, err := base.Log.Lean()
	if err != nil {
		log.Fatal(err)
	}
	var scanErr error
	src := base.Log.Reports(&scanErr)
	writeReport(out, src, baseLean, base.World, nil)
	if scanErr != nil {
		log.Fatal(scanErr)
	}
	if spec.Months <= 0 {
		return
	}

	// Longitudinal re-audits: one shard log per month, one verdict
	// snapshot per month, churn = snapshot diff.
	prev := analysis.VerdictSnapshot(src)
	if scanErr != nil {
		log.Fatal(scanErr)
	}
	base.Log.Close()
	for m := 1; m <= spec.Months; m++ {
		a := auditMonth(ctx, stopSignals, &spec, p, m)
		cur := analysis.VerdictSnapshot(a.Log.Reports(&scanErr))
		if scanErr != nil {
			log.Fatal(scanErr)
		}
		a.Log.Close()
		var rows [][]string
		for _, ev := range analysis.VerdictChurn(prev, cur, m) {
			rows = append(rows, []string{ev.Provider, ev.Verdict, onOff(ev.From), onOff(ev.To)})
		}
		report.Table(out, fmt.Sprintf("Month %d verdict churn (vs month %d)", m, m-1),
			[]string{"Provider", "Verdict", "Was", "Now"}, rows)
		prev = cur
	}

	// The ground truth the churn tables should have recovered.
	var planted [][]string
	for _, e := range entries {
		if d := ecosystem.SyntheticDrift(spec.Seed, e); d.Month != 0 && d.Month <= spec.Months {
			planted = append(planted, []string{e.Name, fmt.Sprint(d.Month), d.Kind})
		}
	}
	report.Table(out, "Planted behavior drift within the audited window (ground truth)",
		[]string{"Provider", "Month", "Change"}, planted)
}

// auditMonth runs one month of the sweep into its shard log, resuming
// the log after a kill (a sealed log measures nothing), and returns
// the month's sealed audit.
func auditMonth(ctx context.Context, stopSignals func(), spec *campaign.Spec, p catalogParams, month int) *campaign.Audit {
	dir := campaign.MonthDir(p.outcomes, spec, month)
	a, err := campaign.RunMonth(ctx, spec, dir, month, campaign.Hooks{
		Flight: func(w *study.World) *flightrec.Ring { return p.rec.attach(w, spec.Months+1) },
		Started: func(lg *shardlog.Log, _ int) error {
			if lg.NextRank() > 0 {
				fmt.Printf("month %d: resuming %s: %d outcomes already durable\n", month, dir, lg.NextRank())
			}
			return nil
		},
	})
	if errors.Is(err, study.ErrCanceled) {
		stopSignals() // a second signal now kills the process the hard way
		log.Printf("interrupted after %d outcomes; rerun with the same flags to resume from %s",
			a.Log.NextRank(), dir)
		os.Exit(130)
	}
	if err != nil {
		log.Fatal(err)
	}
	return a
}

func countTested(entries []ecosystem.CatalogEntry) int {
	n := 0
	for _, e := range entries {
		if e.Tested != nil {
			n++
		}
	}
	return n
}

func onOff(v bool) string {
	if v {
		return "detected"
	}
	return "clean"
}
