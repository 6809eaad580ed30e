// Package flightrec is a campaign's one recorder: a bounded,
// allocation-free ring buffer of structured runtime events plus the
// counters and histograms those events imply, carried alongside one
// campaign (RunConfig.Flight) or the daemon as a whole. Every view of
// a campaign's execution is derived from it: the metrics snapshot
// (Metrics, schema MetricsSchema), the Chrome trace (WriteTraceTo),
// the progress line (StartProgress), the daemon's per-campaign and
// fleet metrics, the stall watchdog's active-slot table, and the
// NDJSON dump taken when something goes wrong — a panic, a
// cancellation, a watchdog-detected stall, or an operator request.
//
// The recording discipline: a nil *Ring is a valid, inert recorder, so
// record sites call it unconditionally and a campaign without a ring
// pays one nil check per site; the record path performs no allocation
// (gated by AllocsPerRun here and in BenchmarkTelemetryOverhead); and
// nothing recorded ever feeds back into campaign execution, so golden
// byte-identity suites hold with the recorder attached.
package flightrec

import (
	"sync"
	"time"
)

// Kind classifies a flight-recorder event.
type Kind uint8

const (
	// KindNone is the zero Kind; it never appears in a recorded event.
	KindNone Kind = iota
	// SlotStart marks a worker beginning to measure a vantage-point
	// slot. Worker/Slot/Provider/VP identify it; VirtNs is the virtual
	// campaign offset the slot's window opens at.
	SlotStart
	// SlotFinish marks a measured slot leaving the worker. V1 is the
	// wall time in nanoseconds, V2 the connect attempts used, VirtNs
	// the virtual time the slot consumed; Detail is OutcomeMeasured or
	// OutcomeFailed.
	SlotFinish
	// SlotSteal marks the work-stealing scheduler handing a worker a
	// slot from another worker's queue. V1 is the victim worker index.
	SlotSteal
	// SlotDiscard marks the committer discarding a speculative
	// measurement that lost to a quarantine decision.
	SlotDiscard
	// SlotResume marks a slot absorbed from a resumed outcome log
	// instead of being measured.
	SlotResume
	// Retry marks a connect retry inside a slot. V1 is the attempt
	// number that failed, V2 the backoff wait in nanoseconds.
	Retry
	// QuarantineTrip marks a provider crossing its failure streak
	// threshold. V1 is the streak length.
	QuarantineTrip
	// QuarantineSkip marks a slot skipped because its provider was
	// quarantined at commit time.
	QuarantineSkip
	// FaultDraws marks fault-injection activity inside a slot. V1 is
	// the number of faults drawn.
	FaultDraws
	// Commit marks the committer committing a slot in canonical order.
	// Detail is the slot outcome (OutcomeMeasured or OutcomeFailed).
	Commit
	// Checkpoint marks a timed persistence step: one outcome handed to
	// RunConfig.Stream. V1 is the wall latency in nanoseconds; Detail is
	// "stream".
	Checkpoint
	// CommitWait marks the committer having blocked waiting for the
	// next needed slot. V1 is the wait in nanoseconds.
	CommitWait
	// WorkerExit marks a worker retiring because the scheduler is
	// drained. V1 is the scheduler's handed count at that moment.
	WorkerExit
	// Admit marks the daemon accepting a campaign. Detail is the
	// tenant.
	Admit
	// Reject marks the daemon refusing a submission. Detail is
	// "tenant-quota", "queue-full", or "draining".
	Reject
	// StateChange marks a campaign state transition. Detail is the new
	// state.
	StateChange
	// Drain marks daemon drain begin/end. Detail is "begin" or "end".
	Drain
	// Watchdog marks a stall-watchdog fire. Detail names the stall
	// kind and evidence.
	Watchdog
	// Panic marks a recovered campaign panic. Detail is the panic
	// value.
	Panic
)

var kindNames = [...]string{
	KindNone:       "none",
	SlotStart:      "slot_start",
	SlotFinish:     "slot_finish",
	SlotSteal:      "slot_steal",
	SlotDiscard:    "slot_discard",
	SlotResume:     "slot_resume",
	Retry:          "retry",
	QuarantineTrip: "quarantine_trip",
	QuarantineSkip: "quarantine_skip",
	FaultDraws:     "fault_draws",
	Commit:         "commit",
	Checkpoint:     "checkpoint",
	CommitWait:     "commit_wait",
	WorkerExit:     "worker_exit",
	Admit:          "admit",
	Reject:         "reject",
	StateChange:    "state",
	Drain:          "drain",
	Watchdog:       "watchdog",
	Panic:          "panic",
}

// String returns the event kind's stable NDJSON name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Slot outcomes, as carried in the Detail of SlotFinish and Commit.
const (
	OutcomeMeasured = "measured"
	OutcomeFailed   = "failed"
)

// Event is one flight-recorder entry. Seq and WallNs are assigned by
// Record; everything else is caller-provided. Detail must be a static
// or pre-built string — record sites never format on the hot path.
// The meaning of Slot/Worker/V1/V2/VirtNs is per-Kind (see the Kind
// docs); unused fields stay zero. Worker -1 denotes the
// committer/daemon.
type Event struct {
	Seq      uint64
	WallNs   int64
	Kind     Kind
	Campaign string
	Worker   int
	Slot     int
	Provider string
	VP       string
	Detail   string
	V1, V2   int64
	VirtNs   int64
}

// DefaultEvents is the per-ring event capacity when the operator does
// not override it: enough to hold the full event trail of a mid-size
// campaign, ~1.5MB resident, and wraps (dropping oldest, counted) on
// anything bigger.
const DefaultEvents = 4096

// EventsFor is a ring capacity that holds a whole campaign of slots
// vantage-point slots without wrapping: a slot records well under 16
// events at the default connect budget, plus headroom for lifecycle
// events.
func EventsFor(slots int) int {
	return 16*slots + 256
}

type activeSlot struct {
	slot     int
	provider string
	vp       string
	startNs  int64
}

// ActiveSlot is one in-flight slot as seen by the watchdog: the worker
// recorded a SlotStart with no matching SlotFinish yet.
type ActiveSlot struct {
	Worker   int
	Slot     int
	Provider string
	VP       string
	Start    time.Time
}

// Ring is a bounded flight recorder. A nil *Ring is valid and inert:
// every method is a nil-guarded no-op, so call sites write
// r.Record(...) unconditionally. All methods are safe for concurrent
// use.
//
// Beyond the raw event trail the ring maintains, inline on the record
// path, the state derived from each event's kind: the active-slot
// table (SlotStart/SlotFinish pairing per worker), the last-finish and
// last-commit wall stamps (committer liveness), and the campaign
// counters and histograms (see tally). Facts no event carries arrive
// through a few explicit methods, each called from the one site that
// knows the fact.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	n     uint64 // total recorded; buf holds the most recent min(n, cap)
	start time.Time

	// active has one entry per campaign worker, sized by BeginRun;
	// sequential campaigns measure on worker 0.
	active       []activeSlot
	lastFinishNs int64
	lastCommitNs int64

	t tally
}

// NewRing returns a recorder holding the most recent capacity events
// (DefaultEvents when capacity <= 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultEvents
	}
	return &Ring{buf: make([]Event, capacity), start: time.Now(), active: make([]activeSlot, 1)}
}

// Record appends one event, stamping its sequence number and wall
// clock, and updates the state its kind implies. When the ring is full
// the oldest event is overwritten (the drop is counted, never silent).
// Never allocates; a nil receiver is a no-op.
func (r *Ring) Record(ev Event) {
	if r == nil {
		return
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	ev.Seq = r.n
	ev.WallNs = now
	r.buf[r.n%uint64(len(r.buf))] = ev
	r.n++
	switch ev.Kind {
	case SlotStart:
		if w := ev.Worker; w >= 0 && w < len(r.active) {
			r.active[w] = activeSlot{slot: ev.Slot, provider: ev.Provider, vp: ev.VP, startNs: now}
		}
	case SlotFinish:
		if w := ev.Worker; w >= 0 && w < len(r.active) {
			r.active[w] = activeSlot{}
		}
		r.lastFinishNs = now
		r.t.c[nSlotsMeasured]++
		r.t.slotWall.Observe(time.Duration(ev.V1))
	case SlotSteal:
		r.t.c[nSteals]++
	case QuarantineTrip:
		r.t.c[nQuarantineTrips]++
	case Commit, Checkpoint, CommitWait, SlotResume, QuarantineSkip, SlotDiscard:
		// Anything the committer does counts as committer liveness.
		r.lastCommitNs = now
		r.t.committer(&ev)
	}
	r.mu.Unlock()
}

// BeginRun announces a campaign run of slots vantage-point slots
// measured by workers workers: the slots join the campaign total, and
// the active-slot table grows to one entry per worker so every
// worker's in-flight slot is visible to the watchdog. A ring carried
// across several runs (a multi-month sweep) accumulates them.
func (r *Ring) BeginRun(slots, workers int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.t.c[nSlotsTotal] += int64(slots)
	if workers > len(r.active) {
		r.active = append(r.active, make([]activeSlot, workers-len(r.active))...)
	}
	r.mu.Unlock()
}

// CommitFacts folds what a committed slot's Commit event does not
// carry: the fault-plan delta the slot absorbed and whether its
// vantage point needed more than one connect attempt.
func (r *Ring) CommitFacts(faults FaultCounts, recovered bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.t.faultsCommitted.add(faults)
	if recovered {
		r.t.c[nRecoveries]++
	}
	r.mu.Unlock()
}

// ObserveSuite records one committed report's suite virtual time.
func (r *Ring) ObserveSuite(d time.Duration) {
	if r == nil {
		return
	}
	r.t.suiteVirtual.Observe(d)
}

// ObserveTest records one committed suite step's virtual-time cost
// under its test name. The first observation of a new test name
// allocates its histogram; subsequent ones do not.
func (r *Ring) ObserveTest(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h := r.t.tests[name]
	if h == nil {
		if r.t.tests == nil {
			r.t.tests = map[string]*Histogram{}
		}
		h = &Histogram{}
		r.t.tests[name] = h
	}
	r.mu.Unlock()
	h.Observe(d)
}

// SlotRuntime records one measured slot's execution shape: the packet
// exchanges its world ran and the faults its plan injected. Measured
// slots include speculative ones the committer later discards, so
// these can exceed the committed totals.
func (r *Ring) SlotRuntime(exchanges int64, faults FaultCounts) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.t.c[nExchanges] += exchanges
	r.t.faultsRaw.add(faults)
	r.mu.Unlock()
}

// SchedulerScans records the work-stealing scheduler's victim scans
// and steal rescans at the end of a parallel run.
func (r *Ring) SchedulerScans(victimScans, rescans int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.t.c[nVictimScans] += victimScans
	r.t.c[nStealRescans] += rescans
	r.mu.Unlock()
}

// WorkerWorldBuilt records one lazily built worker world replica.
func (r *Ring) WorkerWorldBuilt() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.t.c[nWorkerWorldBuilds]++
	r.mu.Unlock()
}

// CommitDrain records one intake batch the committer pulled and the
// slot results it carried.
func (r *Ring) CommitDrain(batched int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.t.c[nCommitDrains]++
	r.t.c[nCommitBatched] += int64(batched)
	r.mu.Unlock()
}

// Stats is a point-in-time summary of the ring.
type Stats struct {
	Events   uint64 `json:"events"`   // total recorded over the ring's lifetime
	Dropped  uint64 `json:"dropped"`  // oldest events overwritten by wrap
	Capacity int    `json:"capacity"` // ring size in events
}

// Stats returns the ring's counters; zero for a nil ring.
func (r *Ring) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.statsLocked()
}

func (r *Ring) statsLocked() Stats {
	s := Stats{Events: r.n, Capacity: len(r.buf)}
	if r.n > uint64(len(r.buf)) {
		s.Dropped = r.n - uint64(len(r.buf))
	}
	return s
}

// Snapshot copies the retained events, oldest first. Nil ring returns
// nil.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

func (r *Ring) snapshotLocked() []Event {
	kept := r.n
	if kept > uint64(len(r.buf)) {
		kept = uint64(len(r.buf))
	}
	out := make([]Event, kept)
	start := r.n - kept
	for i := uint64(0); i < kept; i++ {
		out[i] = r.buf[(start+i)%uint64(len(r.buf))]
	}
	return out
}

// ActiveSlots appends the in-flight slots (SlotStart recorded, no
// SlotFinish yet) to dst and returns it. The watchdog passes a reused
// buffer to keep its sweep allocation-free in steady state.
func (r *Ring) ActiveSlots(dst []ActiveSlot) []ActiveSlot {
	if r == nil {
		return dst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for w := range r.active {
		a := &r.active[w]
		if a.startNs == 0 {
			continue
		}
		dst = append(dst, ActiveSlot{
			Worker:   w,
			Slot:     a.slot,
			Provider: a.provider,
			VP:       a.vp,
			Start:    time.Unix(0, a.startNs),
		})
	}
	return dst
}

// Liveness returns the wall stamps of the most recent slot finish and
// the most recent committer action (zero times if none yet).
func (r *Ring) Liveness() (lastFinish, lastCommit time.Time) {
	if r == nil {
		return time.Time{}, time.Time{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lastFinishNs != 0 {
		lastFinish = time.Unix(0, r.lastFinishNs)
	}
	if r.lastCommitNs != 0 {
		lastCommit = time.Unix(0, r.lastCommitNs)
	}
	return lastFinish, lastCommit
}

// SlotWall exposes the rolling slot wall-time histogram fed by
// SlotFinish events (nil for a nil ring). The watchdog derives its
// adaptive stall threshold from its p99; the metrics views export it.
func (r *Ring) SlotWall() *Histogram {
	if r == nil {
		return nil
	}
	return &r.t.slotWall
}
