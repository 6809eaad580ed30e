// Catalog-mode campaigns: ecosystem-scale sweeps over K-shard outcome
// logs, one per audited month.
//
// Durable layout in StateDir (see state.go for the rest):
//
//	<id>.outcomes/                 the shard log (Months == 0)
//	<id>.outcomes/month-NNN/       one shard log per month (Months > 0)
//	<id>.result.json               bounded summary (counts only) once done
//
// The recovery contract is every campaign's: a catalog campaign with a
// spec and no result re-enters the queue, and the runner resumes each
// month's shard log from its recovered contiguous prefix — the same
// byte-identity guarantee the CLI sweep has. Unlike a single-provider
// campaign, whose sealed log folds into a full envelope, the catalog
// result set is never materialized in daemon memory: progress, the
// summary, and the merged-NDJSON outcomes endpoint all work from the
// logs.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"

	"vpnscope/internal/study"
)

func (d *Daemon) outcomesDir(id string) string {
	return filepath.Join(d.cfg.StateDir, id+".outcomes")
}

// monthDir is the shard-log directory for one virtual month. Baseline-
// only campaigns (every non-catalog one included) use the flat outcomes
// dir, mirroring the CLI sweep.
func (d *Daemon) monthDir(id string, spec *CampaignSpec, month int) string {
	dir := d.outcomesDir(id)
	if spec.Months > 0 {
		dir = filepath.Join(dir, fmt.Sprintf("month-%03d", month))
	}
	return dir
}

// catalogSummary is the bounded final result of a catalog campaign:
// counts only, never the outcome set itself (that stays in the shard
// logs, served merged by the outcomes endpoint).
type catalogSummary struct {
	Catalog   int          `json:"catalog"`
	Months    int          `json:"months"`
	Providers int          `json:"providers"`
	Audits    []monthAudit `json:"audits"`
}

type monthAudit struct {
	Month       int `json:"month"`
	Outcomes    int `json:"outcomes"`
	Reports     int `json:"reports"`
	Failures    int `json:"failures"`
	Quarantined int `json:"quarantined"`
}

// runCatalogCampaign executes a catalog spec: every month's audit in
// sequence, each streaming into its own shard log, then the bounded
// summary as the durable result. Runs on runCampaign's fleet tokens,
// panic shield, and cancellation context.
func (d *Daemon) runCatalogCampaign(ctx context.Context, c *campaign, need int) {
	summary := catalogSummary{
		Catalog:   c.spec.Catalog,
		Months:    c.spec.Months,
		Providers: len(c.spec.catalogEntries()),
	}
	for m := 0; m <= c.spec.Months; m++ {
		if m > 0 {
			// Month worlds differ (drifted specs); the previous month's
			// cached template would only hold memory.
			study.ClearWorldTemplates()
		}
		audit, err := d.runCatalogMonth(ctx, c, need, m)
		if err != nil {
			d.finishCanceledOrFail(ctx, c, err)
			return
		}
		summary.Audits = append(summary.Audits, audit)
	}
	err := writeFileAtomic(d.resultPath(c.id), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(summary)
	})
	if err != nil {
		d.failCampaign(c, fmt.Sprintf("saving result summary: %v", err))
		return
	}
	c.setState(StateDone, "")
	d.cfg.Logf("campaign %s: done (catalog=%d providers=%d month audits=%d)",
		c.id, summary.Catalog, summary.Providers, len(summary.Audits))
}

// runCatalogMonth streams the month's audit into its shard log (see
// streamLog) and summarizes the sealed log without materializing it.
func (d *Daemon) runCatalogMonth(ctx context.Context, c *campaign, need, month int) (monthAudit, error) {
	lg, err := d.streamLog(ctx, c, need, month)
	if err != nil {
		return monthAudit{}, err
	}
	defer lg.Close()
	lean, err := lg.Lean()
	if err != nil {
		return monthAudit{}, err
	}
	return monthAudit{
		Month:       month,
		Outcomes:    lean.VPsAttempted,
		Reports:     len(lean.Reports),
		Failures:    len(lean.ConnectFailures),
		Quarantined: len(lean.Quarantines),
	}, nil
}
