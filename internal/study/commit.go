// Incremental canonical committer: the single authority over result
// ordering for both the sequential and the parallel campaign paths.
//
// Specs are committed strictly in canonical (slot-rank) order, so every
// newly recorded outcome appends to an already sorted prefix and goes
// straight to RunConfig.Stream — the caller's shard log is the durable
// copy of the campaign. Resuming from that log works by rank too:
//
//   - The resumed failure and recovery records (rebuilt by
//     shardlog.(*Log).Resume) are sorted once by rank at construction
//     (O(R log R)) and migrated into the prefix by monotone front
//     pointers as commits pass their rank — before committing a spec
//     with order o, every pending record with rank < o moves over.
//   - A spec whose vantage point the log already decided replays that
//     outcome into the breaker state; it is neither re-measured nor
//     re-streamed.
//
// The retained Result at any point therefore equals an uninterrupted
// run's, and the streamed sequence continues the log exactly where the
// interrupted run left it.
package study

import (
	"fmt"
	"sort"
	"time"

	"vpnscope/internal/flightrec"
)

// committerWorker tags flight-recorder events emitted on the committing
// goroutine (as opposed to a measuring worker).
const committerWorker = -1

type pendFailure struct {
	rank int
	cf   ConnectFailure
}

type pendRecovery struct {
	rank int
	rec  Recovery
}

// provState is the per-provider circuit-breaker state the committer
// replays in slot order — the one intra-provider ordering dependency of
// the campaign.
type provState struct {
	streak      int  // consecutive vantage-point failures
	quarantined bool // breaker tripped (this run or a resumed one)
}

// committer assembles the canonical campaign Result. It is not
// goroutine-safe: the parallel executor drives it from a single
// committing goroutine.
type committer struct {
	cfg  *RunConfig
	rank slotRank
	res  *Result // live canonical result; slices are append-only prefixes

	done map[string]vpOutcome // vpKey → resumed outcome
	prov map[int]*provState   // provider index → breaker state

	pendCFs  []pendFailure
	pendRecs []pendRecovery
	pf, pc   int // migration front pointers

	provChunk []provState // carved one provState at a time

	// onQuarantine, when set, is notified the moment a provider's
	// breaker closes (fresh trip or resumed-skip replay). The parallel
	// executor uses it to flag workers off the provider's remaining
	// slots.
	onQuarantine func(provIdx int)
}

// newCommitter builds the committer, absorbing cfg.Resume into the
// pending queues and the done map.
func newCommitter(cfg *RunConfig, rank slotRank) *committer {
	c := &committer{
		cfg:  cfg,
		rank: rank,
		res:  &Result{},
		done: make(map[string]vpOutcome),
		prov: make(map[int]*provState),
	}
	prev := cfg.Resume
	if prev == nil {
		return c
	}
	c.res.VPsAttempted = prev.VPsAttempted
	for _, rep := range prev.Reports {
		c.done[vpKey(rep.Provider, rep.VPLabel)] = outcomeMeasured
	}
	for _, cf := range prev.ConnectFailures {
		c.pendCFs = append(c.pendCFs, pendFailure{rank.vpRank(cf.Provider, cf.VPLabel), cf})
		c.done[vpKey(cf.Provider, cf.VPLabel)] = outcomeFailed
	}
	for _, rec := range prev.Recoveries {
		c.pendRecs = append(c.pendRecs, pendRecovery{rank.vpRank(rec.Provider, rec.VPLabel), rec})
	}
	sort.SliceStable(c.pendCFs, func(i, j int) bool { return c.pendCFs[i].rank < c.pendCFs[j].rank })
	sort.SliceStable(c.pendRecs, func(i, j int) bool { return c.pendRecs[i].rank < c.pendRecs[j].rank })
	for _, q := range prev.Quarantines {
		c.res.Quarantines = append(c.res.Quarantines, Quarantine{
			Provider:     q.Provider,
			TrippedAfter: q.TrippedAfter,
			SkippedVPs:   append([]string(nil), q.SkippedVPs...),
		})
		for _, label := range q.SkippedVPs {
			c.done[vpKey(q.Provider, label)] = outcomeSkipped
		}
	}
	sort.SliceStable(c.res.Quarantines, func(i, j int) bool {
		return rank.provRank(c.res.Quarantines[i].Provider) < rank.provRank(c.res.Quarantines[j].Provider)
	})
	return c
}

func (c *committer) provState(idx int) *provState {
	st, ok := c.prov[idx]
	if !ok {
		if len(c.provChunk) == 0 {
			c.provChunk = make([]provState, 16)
		}
		st = &c.provChunk[0]
		c.provChunk = c.provChunk[1:]
		c.prov[idx] = st
	}
	return st
}

// migrate moves pending resumed records with rank < lim into the
// canonical prefix. The front pointers only ever advance, so total
// migration work over a whole campaign is O(resumed records). Resumed
// reports are never migrated: they are identity stubs, and the log,
// not the Result, is the report store.
func (c *committer) migrate(lim int) {
	for c.pf < len(c.pendCFs) && c.pendCFs[c.pf].rank < lim {
		c.res.ConnectFailures = append(c.res.ConnectFailures, c.pendCFs[c.pf].cf)
		c.pf++
	}
	for c.pc < len(c.pendRecs) && c.pendRecs[c.pc].rank < lim {
		c.res.Recoveries = append(c.res.Recoveries, c.pendRecs[c.pc].rec)
		c.pc++
	}
}

// prepare advances the canonical state to spec s and reports whether s
// still needs a measurement. It migrates every pending record due
// before s, replays s's resumed outcome into the breaker state (no
// re-measurement, no re-stream), trips the breaker when the streak
// demands it, and skip-commits (record + stream) when the provider is
// quarantined.
func (c *committer) prepare(s slotSpec) (needMeasure bool, err error) {
	st := c.provState(s.provIdx)
	if outcome := c.done[s.key]; outcome != outcomeNone {
		// Resumed: its own records carry rank == s.order.
		c.migrate(s.order + 1)
		c.cfg.Flight.Record(flightrec.Event{
			Kind: flightrec.SlotResume, Worker: committerWorker,
			Slot: s.order, Provider: s.provider, VP: s.label,
		})
		switch outcome {
		case outcomeMeasured:
			st.streak = 0
		case outcomeFailed:
			st.streak++
		case outcomeSkipped:
			if !st.quarantined {
				st.quarantined = true
				if c.onQuarantine != nil {
					c.onQuarantine(s.provIdx)
				}
			}
		}
		return false, nil
	}
	c.migrate(s.order)
	if !st.quarantined && c.cfg.QuarantineAfter > 0 && st.streak >= c.cfg.QuarantineAfter {
		c.insertQuarantine(Quarantine{Provider: s.provider, TrippedAfter: st.streak})
		st.quarantined = true
		c.cfg.Flight.Record(flightrec.Event{
			Kind: flightrec.QuarantineTrip, Worker: committerWorker,
			Slot: s.order, Provider: s.provider, V1: int64(st.streak),
		})
		if c.onQuarantine != nil {
			c.onQuarantine(s.provIdx)
		}
	}
	if st.quarantined {
		c.res.VPsAttempted++
		qi := -1
		for i := range c.res.Quarantines {
			if c.res.Quarantines[i].Provider == s.provider {
				qi = i
			}
		}
		if qi < 0 {
			// Breaker closed by a resumed skip, but the interrupted
			// run's quarantine record is missing from the resumed log.
			return false, fmt.Errorf("study: resumed quarantine record missing for %s", s.provider)
		}
		c.res.Quarantines[qi].SkippedVPs = append(c.res.Quarantines[qi].SkippedVPs, s.label)
		c.cfg.Flight.Record(flightrec.Event{
			Kind: flightrec.QuarantineSkip, Worker: committerWorker,
			Slot: s.order, Provider: s.provider, VP: s.label,
		})
		return false, c.stream(Outcome{Rank: s.order, Skip: &SkippedVP{
			Provider:     s.provider,
			VPLabel:      s.label,
			TrippedAfter: c.res.Quarantines[qi].TrippedAfter,
		}})
	}
	return true, nil
}

// insertQuarantine places a fresh trip record at its canonical position
// (provider-index order, before any foreign resumed records, which rank
// after all known providers).
func (c *committer) insertQuarantine(q Quarantine) {
	r := c.rank.provRank(q.Provider)
	pos := len(c.res.Quarantines)
	for i := range c.res.Quarantines {
		if c.rank.provRank(c.res.Quarantines[i].Provider) > r {
			pos = i
			break
		}
	}
	c.res.Quarantines = append(c.res.Quarantines, Quarantine{})
	copy(c.res.Quarantines[pos+1:], c.res.Quarantines[pos:])
	c.res.Quarantines[pos] = q
}

// commit records a fresh measurement outcome for s (prepare must have
// returned needMeasure) and streams it.
//
// Deterministic campaign metrics are recorded here, not at measure
// time: the committer runs single-threaded in canonical slot order and
// never sees the speculative slots the parallel executor discards, so
// the flight recorder's `campaign` counters and virtual-time
// histograms come out identical for any worker count.
func (c *committer) commit(s slotSpec, out vpResult) error {
	st := c.provState(s.provIdx)
	c.res.VPsAttempted++
	o := Outcome{Rank: s.order}
	outcome := flightrec.OutcomeMeasured
	if out.failure != nil {
		c.res.ConnectFailures = append(c.res.ConnectFailures, *out.failure)
		st.streak++
		o.Failure = out.failure
		outcome = flightrec.OutcomeFailed
	} else {
		if out.recovery != nil {
			c.res.Recoveries = append(c.res.Recoveries, *out.recovery)
			o.Recovery = out.recovery
		}
		if c.cfg.Stream == nil {
			c.res.Reports = append(c.res.Reports, out.report)
		}
		o.Report = out.report
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
	return c.stream(o)
}

// stream hands one fresh outcome to the caller's sink (a no-op for an
// in-memory run). It only ever runs on the committing goroutine, so
// outcomes arrive strictly in rank order for any worker count.
func (c *committer) stream(o Outcome) error {
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

// finish migrates every remaining pending record (resumed outcomes for
// slots after the last spec, plus records for vantage points this world
// does not enumerate, which rank after all known ones) and returns the
// completed canonical result.
func (c *committer) finish() *Result {
	c.migrate(int(^uint(0) >> 1)) // max int
	return c.res
}
