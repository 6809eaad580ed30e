package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"vpnscope/internal/analysis"
	"vpnscope/internal/ecosystem"
	"vpnscope/internal/faultsim"
	"vpnscope/internal/report"
	"vpnscope/internal/results/shardlog"
	"vpnscope/internal/study"
	"vpnscope/internal/vpn"
)

// catalogParams carries the flag values the streaming sweep needs.
type catalogParams struct {
	seed                    uint64
	catalog, months, shards int
	outcomes, faults        string
	fullVPs, retries        int
	quarantine, parallel    int
	rec                     *recorder
}

// runCatalogMode is the ecosystem-scale entry point: every outcome is
// streamed into a sharded append-only log, the §6 report is generated
// by re-iterating the log (never materializing the result set), and
// -months re-audits the catalog at later virtual months, reporting
// verdict churn against the planted synthetic drift.
func runCatalogMode(ctx context.Context, stopSignals func(), p catalogParams) {
	out := os.Stdout
	var entries []ecosystem.CatalogEntry
	if p.catalog > 0 {
		entries = ecosystem.BuildCatalogN(p.seed, p.catalog)
		fmt.Fprintf(out, "catalog sweep: %d providers (%d with hand-built tested specs)\n",
			len(entries), countTested(entries))
	}

	baseLog, baseLean, w := auditMonth(ctx, stopSignals, p, entries, 0)
	p.rec.stopProgress()
	var scanErr error
	src := baseLog.Reports(&scanErr)
	writeReport(out, src, baseLean, w, nil)
	if scanErr != nil {
		log.Fatal(scanErr)
	}
	if p.months <= 0 {
		return
	}

	// Longitudinal re-audits: one shard log per month, one verdict
	// snapshot per month, churn = snapshot diff.
	prev := analysis.VerdictSnapshot(src)
	if scanErr != nil {
		log.Fatal(scanErr)
	}
	baseLog.Close()
	for m := 1; m <= p.months; m++ {
		// Month M worlds differ (drifted specs), so the cached world
		// templates of month M-1 would only hold memory.
		study.ClearWorldTemplates()
		lg, _, _ := auditMonth(ctx, stopSignals, p, entries, m)
		cur := analysis.VerdictSnapshot(lg.Reports(&scanErr))
		if scanErr != nil {
			log.Fatal(scanErr)
		}
		lg.Close()
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
		if d := ecosystem.SyntheticDrift(p.seed, e); d.Month != 0 && d.Month <= p.months {
			planted = append(planted, []string{e.Name, fmt.Sprint(d.Month), d.Kind})
		}
	}
	report.Table(out, "Planted behavior drift within the audited window (ground truth)",
		[]string{"Provider", "Month", "Change"}, planted)
}

// auditMonth opens (and, after a kill, recovers) the month's shard log,
// builds the month's world, and streams any not-yet-durable outcomes
// into the log. A sealed log skips the campaign entirely.
func auditMonth(ctx context.Context, stopSignals func(), p catalogParams, entries []ecosystem.CatalogEntry, month int) (*shardlog.Log, *study.Result, *study.World) {
	dir := p.outcomes
	if p.months > 0 {
		dir = filepath.Join(p.outcomes, fmt.Sprintf("month-%03d", month))
	}
	lg, err := shardlog.Open(dir, shardlog.Meta{
		Seed: p.seed, Shards: p.shards, FaultProfile: p.faults, Month: month,
	})
	if err != nil {
		log.Fatal(err)
	}

	var specs []vpn.ProviderSpec // nil: the tested 62
	if entries != nil {
		specs = ecosystem.CatalogSpecs(p.seed, entries, 0, month)
	}
	w, err := study.Build(study.Options{Seed: p.seed, MaxFullSuiteVPs: p.fullVPs, Providers: specs})
	if err != nil {
		log.Fatal(err)
	}
	if p.faults != "" {
		profile, err := faultsim.ByName(p.faults)
		if err != nil {
			log.Fatal(err)
		}
		w.EnableFaults(profile)
	}
	ring := p.rec.attach(w, p.months+1)

	if !lg.Complete() {
		cfg := study.RunConfig{
			ConnectAttempts: p.retries, QuarantineAfter: p.quarantine,
			Parallel: p.parallel, Ctx: ctx, Stream: lg.Append, Flight: ring,
		}
		if lg.NextRank() > 0 {
			cfg.Resume = lg.Scan
			fmt.Printf("month %d: resuming %s: %d outcomes already durable\n", month, dir, lg.NextRank())
		}
		_, err := w.RunWith(cfg)
		if errors.Is(err, study.ErrCanceled) {
			stopSignals() // a second signal now kills the process the hard way
			log.Printf("interrupted after %d outcomes; rerun with the same flags to resume from %s",
				lg.NextRank(), dir)
			os.Exit(130)
		}
		if err != nil {
			log.Fatal(err)
		}
		if err := lg.MarkComplete(); err != nil {
			log.Fatal(err)
		}
	}
	lean, err := lg.Lean()
	if err != nil {
		log.Fatal(err)
	}
	return lg, lean, w
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
