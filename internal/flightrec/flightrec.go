// Package flightrec is the black-box flight recorder: a bounded,
// allocation-free ring buffer of structured runtime events that is
// carried alongside a campaign (or the daemon as a whole) and dumped —
// as NDJSON, next to the campaign's spec and outcome log — when something
// goes wrong: a panic, a cancellation, a watchdog-detected stall, or an
// operator request. It is the diagnostic complement to
// internal/telemetry: telemetry answers "how much / how fast",
// flightrec answers "what was the system doing right before it died".
//
// The recording discipline matches telemetry's: every record site is
// nil-guarded (a nil *Ring is a valid, inert recorder), the hot path
// performs no allocation (gated by AllocsPerRun in both packages'
// tests and in BenchmarkTelemetryOverhead), and nothing recorded ever
// feeds back into campaign execution — events are runtime shape only,
// so golden byte-identity suites hold with the recorder enabled.
package flightrec

import (
	"sync"
	"time"

	"vpnscope/internal/telemetry"
)

// Kind classifies a flight-recorder event.
type Kind uint8

const (
	// KindNone is the zero Kind; it never appears in a recorded event.
	KindNone Kind = iota
	// SlotStart marks a worker beginning to measure a vantage-point
	// slot. Worker/Slot/Provider/VP identify it.
	SlotStart
	// SlotFinish marks a measured slot leaving the worker. V1 is the
	// wall time in nanoseconds, V2 the connect attempts used; Detail is
	// "measured" or "failed".
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
	// Detail is the slot outcome.
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

// Event is one flight-recorder entry. Seq and WallNs are assigned by
// Record; everything else is caller-provided. Detail must be a static
// or pre-built string — record sites never format on the hot path.
// The meaning of Slot/Worker/V1/V2 is per-Kind (see the Kind docs);
// unused fields stay zero. Worker -1 denotes the committer/daemon.
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
}

// DefaultEvents is the per-ring event capacity when the operator does
// not override it: enough to hold the full event trail of a mid-size
// campaign, ~1.5MB resident, and wraps (dropping oldest, counted) on
// anything bigger.
const DefaultEvents = 4096

// maxWorkers bounds the per-worker active-slot table. Worker indices
// at or above it still record events; they just aren't tracked as
// active slots (the executor clamps workers far below this).
const maxWorkers = 64

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
// Beyond the raw event trail the ring maintains the derived state the
// stall watchdog needs, updated inline on the record path: the
// active-slot table (SlotStart/SlotFinish pairing per worker), the
// last-finish and last-commit wall stamps (committer liveness), and a
// rolling slot wall-time histogram (the adaptive stall threshold's p99
// source).
type Ring struct {
	mu  sync.Mutex
	buf []Event
	n   uint64 // total recorded; buf holds the most recent min(n, cap)

	active       [maxWorkers]activeSlot
	lastFinishNs int64
	lastCommitNs int64

	slotWall telemetry.Histogram
}

// NewRing returns a recorder holding the most recent capacity events
// (DefaultEvents when capacity <= 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultEvents
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Record appends one event, stamping its sequence number and wall
// clock. When the ring is full the oldest event is overwritten (the
// drop is counted, never silent). Never allocates; a nil receiver is a
// no-op.
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
		if w := ev.Worker; w >= 0 && w < maxWorkers {
			r.active[w] = activeSlot{slot: ev.Slot, provider: ev.Provider, vp: ev.VP, startNs: now}
		}
	case SlotFinish:
		if w := ev.Worker; w >= 0 && w < maxWorkers {
			r.active[w] = activeSlot{}
		}
		r.lastFinishNs = now
		r.slotWall.Observe(time.Duration(ev.V1))
	case Commit, Checkpoint, CommitWait, SlotResume, QuarantineSkip, SlotDiscard:
		// Anything the committer does counts as committer liveness.
		r.lastCommitNs = now
	}
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
// adaptive stall threshold from its p99; the per-campaign metrics
// endpoint exports it.
func (r *Ring) SlotWall() *telemetry.Histogram {
	if r == nil {
		return nil
	}
	return &r.slotWall
}
