package campaign

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"vpnscope/internal/faultsim"
	"vpnscope/internal/flightrec"
	"vpnscope/internal/results/shardlog"
	"vpnscope/internal/study"
)

// Hooks carry what the surfaces driving a campaign differ on. Every
// field is optional.
type Hooks struct {
	// Build builds the spec's world at a month (default: BuildWorld of
	// Spec.Options). vpnaudit -pcap turns on capture collection here;
	// the daemon's tests substitute instant worlds.
	Build func(spec *Spec, month int) (*study.World, error)
	// Measure runs the campaign on the built world (default:
	// (*study.World).RunWith). vpnaudit and figures -provider measure
	// one provider inside the full world with RunProviderWith.
	Measure func(*study.World, study.RunConfig) (*study.Result, error)
	// Flight returns the month's recorder, given its world.
	Flight func(*study.World) *flightrec.Ring
	// Started is told, before a logged month measures anything, its
	// log (NextRank is the resumed prefix) and slot total. A sealed log
	// measures nothing and announces nothing.
	Started func(lg *shardlog.Log, slots int) error
	// Outcome sees each new outcome once its log holds it, captures
	// intact (the log strips its own copy).
	Outcome func(study.Outcome) error
}

// Audit is one measured month.
type Audit struct {
	World *study.World
	// Log is the month's shard log: sealed after a successful month,
	// closed after a failed one, nil in memory.
	Log *shardlog.Log
	// Result is an in-memory month's study result (partial after an
	// error).
	Result *study.Result
}

// BuildWorld builds a world and enables the named fault profile on it.
func BuildWorld(opts study.Options, faultProfile string) (*study.World, error) {
	w, err := study.Build(opts)
	if err != nil || faultProfile == "" {
		return w, err
	}
	profile, err := faultsim.ByName(faultProfile)
	if err != nil {
		return nil, err
	}
	w.EnableFaults(profile)
	return w, nil
}

// MonthDir is one month's shard-log directory under a campaign's
// outcome directory: the directory itself for a baseline-only spec,
// month-NNN/ below it when Months > 0.
func MonthDir(dir string, spec *Spec, month int) string {
	if spec.Months == 0 {
		return dir
	}
	return filepath.Join(dir, fmt.Sprintf("month-%03d", month))
}

// Run measures every month of spec (0..Months) in turn, each into its
// shard log under dir (see MonthDir), and returns the audits with their
// sealed logs; only the last keeps its world. Rerun over the same dir,
// a killed or canceled campaign resumes. With dir == "" the campaign
// runs in memory, month 0 only. On error every log is closed.
func Run(ctx context.Context, spec Spec, dir string, h Hooks) ([]*Audit, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.TimeoutSec > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(spec.TimeoutSec*float64(time.Second)))
		defer cancel()
	}
	months := spec.Months
	if dir == "" {
		months = 0
	}
	var audits []*Audit
	for m := 0; m <= months; m++ {
		a, err := RunMonth(ctx, &spec, MonthDir(dir, &spec, m), m, h)
		if err != nil {
			for _, a := range audits {
				a.Log.Close()
			}
			return nil, err
		}
		if m > 0 {
			audits[m-1].World = nil // a catalog world is large
		}
		audits = append(audits, a)
	}
	return audits, nil
}

// RunMonth is the step Run loops over. It validates spec, opens (and,
// after a crash, recovers) the month's shard log in dir, builds the
// month's world, and streams every outcome the log lacks into it,
// sealing it when the month is whole; dir == "" measures in memory.
// An error after the build returns the audit too, whose closed log
// still tells how far the month got.
func RunMonth(ctx context.Context, spec *Spec, dir string, month int, h Hooks) (a *Audit, err error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if month < 0 || month > spec.Months {
		return nil, fmt.Errorf("campaign: month %d outside the spec's 0..%d", month, spec.Months)
	}
	a = &Audit{}
	if dir != "" {
		lg, openErr := shardlog.Open(dir, spec.logMeta(month))
		if openErr != nil {
			return nil, openErr
		}
		a.Log = lg
		defer func() {
			if err != nil {
				lg.Close()
			}
		}()
	}
	if h.Build == nil {
		h.Build = func(s *Spec, m int) (*study.World, error) { return BuildWorld(s.Options(m), s.FaultProfile) }
	}
	if a.World, err = h.Build(spec, month); err != nil {
		return nil, fmt.Errorf("campaign: building month %d world: %w", month, err)
	}
	// Measuring hands the world's scratch bundle back to the pool; this
	// covers leaving without measuring.
	defer a.World.Net.ReleaseScratch()
	cfg := spec.RunConfig(ctx, spec.Workers)
	if h.Flight != nil {
		cfg.Flight = h.Flight(a.World)
	}
	if h.Measure == nil {
		h.Measure = (*study.World).RunWith
	}
	lg := a.Log
	if lg == nil {
		a.Result, err = h.Measure(a.World, cfg)
		return a, err
	}
	if lg.Complete() {
		return a, nil
	}
	if h.Started != nil {
		if err := h.Started(lg, a.World.SlotCount()); err != nil {
			return a, err
		}
	}
	if lg.NextRank() > 0 {
		cfg.Resume = lg.Scan
	}
	cfg.Stream = func(o study.Outcome) error {
		if err := lg.Append(o); err != nil || h.Outcome == nil {
			return err
		}
		return h.Outcome(o)
	}
	if _, err := h.Measure(a.World, cfg); err != nil {
		return a, err
	}
	return a, lg.MarkComplete()
}
