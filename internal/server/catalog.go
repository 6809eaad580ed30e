// Outcome logs and the results folded from them.
//
// Durable layout in StateDir (see state.go for the rest):
//
//	<id>.outcomes/                 the shard log (Months == 0)
//	<id>.outcomes/month-NNN/       one shard log per month (Months > 0)
//
// A single-provider campaign's log has one shard; a catalog sweep's has
// Shards shards per month. The sealed logs are the campaign's only
// result: GET /campaigns/{id}/result folds them on request — into the
// full envelope for a tested spec, into a bounded summary (counts per
// month audit) for a catalog sweep, whose result set is never
// materialized in daemon memory. The outcomes endpoint streams a
// month's log merged.
package server

import (
	"bytes"
	"encoding/json"
	"path/filepath"

	runner "vpnscope/internal/campaign"
	"vpnscope/internal/results/shardlog"
)

func (d *Daemon) outcomesDir(id string) string {
	return filepath.Join(d.cfg.StateDir, id+".outcomes")
}

// monthDir is the shard-log directory for one virtual month.
func (d *Daemon) monthDir(id string, spec *CampaignSpec, month int) string {
	return runner.MonthDir(d.outcomesDir(id), (*runner.Spec)(spec), month)
}

// catalogSummary is the bounded result of a catalog campaign: counts
// only, never the outcome set itself (that stays in the shard logs,
// served merged by the outcomes endpoint).
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

// foldResult folds a done campaign's sealed logs into its result
// document: the results envelope of a tested spec, written with the
// spec's envelope options, or a catalog sweep's summary.
func (d *Daemon) foldResult(c *campaign) ([]byte, error) {
	spec := (*runner.Spec)(&c.spec)
	if spec.Catalog == 0 {
		lg, err := shardlog.OpenExisting(d.monthDir(c.id, &c.spec, 0))
		if err != nil {
			return nil, err
		}
		defer lg.Close()
		res, err := lg.Result()
		if err != nil {
			return nil, err
		}
		return EnvelopeBytes(c.spec, res)
	}
	summary := catalogSummary{Catalog: spec.Catalog, Months: spec.Months, Providers: len(spec.CatalogEntries())}
	for m := 0; m <= spec.Months; m++ {
		lg, err := shardlog.OpenExisting(d.monthDir(c.id, &c.spec, m))
		if err != nil {
			return nil, err
		}
		lean, err := lg.Lean()
		lg.Close()
		if err != nil {
			return nil, err
		}
		summary.Audits = append(summary.Audits, monthAudit{
			Month:       m,
			Outcomes:    lean.VPsAttempted,
			Reports:     len(lean.Reports),
			Failures:    len(lean.ConnectFailures),
			Quarantined: len(lean.Quarantines),
		})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(summary)
	return buf.Bytes(), err
}
