// Incremental canonical committer: the single authority over outcome
// order for both the sequential and the parallel campaign paths.
//
// The committer decides each slot's outcome strictly in canonical
// (slot-rank) order — measured, failed, or quarantine-skipped — and
// emits it: the outcome is folded into the campaign's Result (a Fold,
// the only code that builds one) and then handed to RunConfig.Stream,
// the caller's durable copy of the campaign.
//
// Resuming replays the caller's log through the same fold. A log is
// always a contiguous rank prefix, so the resumed outcomes are exactly
// the campaign's first slots: each must name the campaign's slot at
// its rank, and its kind is replayed into the breaker state up front.
// The committer then emits only the slots after that prefix, so the
// Result equals an uninterrupted run's and the stream continues the
// log exactly where the interrupted run left it.
package study

import (
	"fmt"
	"time"

	"vpnscope/internal/flightrec"
)

// committerWorker tags flight-recorder events emitted on the committing
// goroutine (as opposed to a measuring worker).
const committerWorker = -1

// provState is the per-provider circuit-breaker state the committer
// replays in slot order — the one intra-provider ordering dependency of
// the campaign.
type provState struct {
	streak       int  // consecutive vantage-point failures
	quarantined  bool // breaker tripped (this run or a resumed one)
	trippedAfter int  // streak that tripped it, copied onto every skip
}

// committer decides and emits the campaign's outcomes. It is not
// goroutine-safe: the parallel executor drives it from a single
// committing goroutine.
type committer struct {
	cfg     *RunConfig
	fold    Fold
	prov    []provState // breaker state by provider index
	resumed int         // slots [0, resumed) were decided by the resumed log

	// onQuarantine, when set, is notified the moment a fresh trip
	// closes a provider's breaker. The parallel executor uses it to
	// flag workers off the provider's remaining slots.
	onQuarantine func(provIdx int)
}

// newCommitter builds the committer for specs and replays cfg.Resume:
// every resumed outcome is checked against the campaign's slot at its
// rank, folded, and replayed into its provider's breaker state. A
// mismatch fails here, before anything is measured or streamed.
func newCommitter(cfg *RunConfig, specs []slotSpec) (*committer, error) {
	nProv := 0
	for _, s := range specs {
		nProv = max(nProv, s.provIdx+1)
	}
	c := &committer{cfg: cfg, prov: make([]provState, nProv)}
	if cfg.Stream == nil {
		c.fold.Report = KeepReport
	}
	if cfg.Resume == nil {
		return c, nil
	}
	err := cfg.Resume(func(o Outcome) error {
		r := c.resumed
		provider, label := o.vp()
		if r >= len(specs) {
			return fmt.Errorf("study: resumed log holds more than the campaign's %d slots (rank %d is %s)", len(specs), r, label)
		}
		s := specs[r]
		if provider != s.provider || label != s.label {
			return fmt.Errorf("study: resumed outcome rank %d is %s, but the campaign's slot %d is %s", r, label, r, s.label)
		}
		if err := c.fold.Add(o); err != nil {
			return err
		}
		st := &c.prov[s.provIdx]
		switch {
		case o.Report != nil:
			st.streak = 0
		case o.Failure != nil:
			st.streak++
		case o.Skip != nil:
			st.quarantined, st.trippedAfter = true, o.Skip.TrippedAfter
		}
		c.resumed++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// prepare advances the canonical state to spec s and reports whether s
// still needs a measurement. A resumed slot is already decided (no
// re-measurement, no re-stream). Otherwise it trips the breaker when
// the streak demands it, and skip-commits (fold + stream) when the
// provider is quarantined.
func (c *committer) prepare(s slotSpec) (needMeasure bool, err error) {
	if s.order < c.resumed {
		c.cfg.Flight.Record(flightrec.Event{
			Kind: flightrec.SlotResume, Worker: committerWorker,
			Slot: s.order, Provider: s.provider, VP: s.label,
		})
		return false, nil
	}
	st := &c.prov[s.provIdx]
	if !st.quarantined && c.cfg.QuarantineAfter > 0 && st.streak >= c.cfg.QuarantineAfter {
		st.quarantined, st.trippedAfter = true, st.streak
		c.cfg.Flight.Record(flightrec.Event{
			Kind: flightrec.QuarantineTrip, Worker: committerWorker,
			Slot: s.order, Provider: s.provider, V1: int64(st.streak),
		})
		if c.onQuarantine != nil {
			c.onQuarantine(s.provIdx)
		}
	}
	if !st.quarantined {
		return true, nil
	}
	c.cfg.Flight.Record(flightrec.Event{
		Kind: flightrec.QuarantineSkip, Worker: committerWorker,
		Slot: s.order, Provider: s.provider, VP: s.label,
	})
	return false, c.emit(Outcome{Rank: s.order, Skip: &SkippedVP{
		Provider: s.provider, VPLabel: s.label, TrippedAfter: st.trippedAfter,
	}})
}

// commit decides a fresh measurement outcome for s (prepare must have
// returned needMeasure) and emits it.
//
// Deterministic campaign metrics are recorded here, not at measure
// time: the committer runs single-threaded in canonical slot order and
// never sees the speculative slots the parallel executor discards, so
// the flight recorder's `campaign` counters and virtual-time
// histograms come out identical for any worker count.
func (c *committer) commit(s slotSpec, out vpResult) error {
	st := &c.prov[s.provIdx]
	o := Outcome{Rank: s.order}
	outcome := flightrec.OutcomeMeasured
	if out.failure != nil {
		st.streak++
		o.Failure = out.failure
		outcome = flightrec.OutcomeFailed
	} else {
		o.Report, o.Recovery = out.report, out.recovery
		st.streak = 0
	}
	if fr := c.cfg.Flight; fr != nil {
		fr.Record(flightrec.Event{
			Kind: flightrec.Commit, Worker: committerWorker,
			Slot: s.order, Provider: s.provider, VP: s.label, Detail: outcome,
		})
		fr.CommitFacts(faultCounts(out.faultDelta), out.recovery != nil)
		if rep := out.report; rep != nil {
			fr.ObserveSuite(rep.FinishedAt - rep.StartedAt)
			for _, tt := range rep.TestTimings {
				fr.ObserveTest(tt.Test, tt.Virtual)
			}
		}
	}
	return c.emit(o)
}

// emit folds one decided outcome into the campaign's Result and hands
// it to the caller's sink (if any). It only ever runs on the committing
// goroutine, so outcomes arrive strictly in rank order for any worker
// count.
func (c *committer) emit(o Outcome) error {
	if err := c.fold.Add(o); err != nil {
		return err
	}
	if c.cfg.Stream == nil {
		return nil
	}
	fr := c.cfg.Flight
	var t0 time.Time
	if fr != nil {
		t0 = time.Now()
	}
	err := c.cfg.Stream(o)
	if fr != nil {
		fr.Record(flightrec.Event{
			Kind: flightrec.Checkpoint, Worker: committerWorker,
			Slot: o.Rank, Detail: "stream", V1: int64(time.Since(t0)),
		})
	}
	if err != nil {
		return fmt.Errorf("study: stream: %w", err)
	}
	return nil
}
