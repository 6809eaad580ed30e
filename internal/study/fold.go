package study

import (
	"fmt"

	"vpnscope/internal/vpntest"
)

// Fold builds a campaign's Result from its outcomes, added in rank
// order. It is the only code that appends to a Result: the committer
// folds every outcome it decides (and every resumed one), and a shard
// log folds its records the same way, so a log's Result equals the
// in-memory run's.
type Fold struct {
	// Report maps each measurement report into Result.Reports; nil
	// keeps no reports (a streamed campaign's log is its report store).
	Report func(*vpntest.VPReport) *vpntest.VPReport
	res    Result
}

// KeepReport is the Fold.Report mapping that keeps every report as is.
func KeepReport(r *vpntest.VPReport) *vpntest.VPReport { return r }

// Add folds one outcome. A skip joins its provider's quarantine record,
// which the provider's first skip opens with that skip's TrippedAfter.
func (f *Fold) Add(o Outcome) error {
	switch {
	case o.Failure != nil:
		f.res.ConnectFailures = append(f.res.ConnectFailures, *o.Failure)
	case o.Skip != nil:
		qs := f.res.Quarantines
		i := len(qs) - 1
		for i >= 0 && qs[i].Provider != o.Skip.Provider {
			i--
		}
		if i < 0 {
			i = len(qs)
			f.res.Quarantines = append(qs, Quarantine{Provider: o.Skip.Provider, TrippedAfter: o.Skip.TrippedAfter})
		}
		f.res.Quarantines[i].SkippedVPs = append(f.res.Quarantines[i].SkippedVPs, o.Skip.VPLabel)
	case o.Report != nil:
		if o.Recovery != nil {
			f.res.Recoveries = append(f.res.Recoveries, *o.Recovery)
		}
		if f.Report != nil {
			f.res.Reports = append(f.res.Reports, f.Report(o.Report))
		}
	default:
		return fmt.Errorf("study: rank %d carries no outcome", o.Rank)
	}
	f.res.VPsAttempted++
	return nil
}

// Result returns the fold so far. Later Adds keep extending it.
func (f *Fold) Result() *Result { return &f.res }

// vp names the vantage point an outcome decides.
func (o *Outcome) vp() (provider, label string) {
	switch {
	case o.Report != nil:
		return o.Report.Provider, o.Report.VPLabel
	case o.Failure != nil:
		return o.Failure.Provider, o.Failure.VPLabel
	case o.Skip != nil:
		return o.Skip.Provider, o.Skip.VPLabel
	}
	return "", ""
}
