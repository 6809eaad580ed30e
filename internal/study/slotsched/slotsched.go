// Package slotsched is the campaign executor's work-stealing slot
// scheduler. The campaign is embarrassingly parallel at vantage-point
// granularity (every slot is a pure function of the world options and
// the slot index), but slot costs are wildly uneven: full-suite slots
// take many times longer than ping-only ones, and quarantine can void a
// provider's tail. A static partition therefore strands workers at the
// end of the longest shard — exactly the idle tail the provider-sharded
// executor suffered from. This scheduler hands each worker a contiguous
// block of slots (provider locality keeps a worker's world warm on one
// provider's servers) and lets an idle worker steal from the back of
// the most loaded victim.
//
// Determinism note: the scheduler only decides *which worker measures
// which slot and when*; result ordering is owned entirely by the
// committer, which consumes measurements in canonical slot order. Any
// interleaving the scheduler produces yields byte-identical campaign
// output.
package slotsched

import (
	"sync"
	"sync/atomic"

	"vpnscope/internal/flightrec"
)

// Scheduler distributes a fixed set of slot indices across workers.
// Every slot is handed out exactly once. Safe for concurrent use by the
// workers it was sized for.
type Scheduler struct {
	queues   []*deque
	enqueued int64
	flight   *flightrec.Ring

	handed      atomic.Int64
	ownPops     atomic.Int64
	steals      atomic.Int64
	victimScans atomic.Int64
	rescans     atomic.Int64
}

// SetFlight attaches a flight recorder: every successful steal records
// a SlotSteal event (Worker = thief, V1 = victim, Slot = the stolen
// scheduler item) and every worker retirement a WorkerExit event (V1 =
// slots handed so far) at the moment they happen, so a stall dump shows
// which worker was holding which queue's work. A nil ring is fine (the
// record path is nil-guarded); call before workers start pulling.
func (s *Scheduler) SetFlight(r *flightrec.Ring) { s.flight = r }

// Stats is a point-in-time view of the scheduler's counters. Handed is
// always OwnPops + Steals, and conservation demands Handed == Enqueued
// once every Next call has returned false (see the conservation test).
type Stats struct {
	Enqueued    int64 // slots the scheduler was built over
	Handed      int64 // slots handed to workers so far
	OwnPops     int64 // slots a worker took from its own queue
	Steals      int64 // slots stolen from another worker's queue
	VictimScans int64 // queues inspected while hunting for a victim
	Rescans     int64 // victim scans retried after a steal race
}

// Stats returns the scheduler's counters. Safe to call concurrently
// with Next; values are individually atomic.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Enqueued:    s.enqueued,
		Handed:      s.handed.Load(),
		OwnPops:     s.ownPops.Load(),
		Steals:      s.steals.Load(),
		VictimScans: s.victimScans.Load(),
		Rescans:     s.rescans.Load(),
	}
}

// deque is one worker's slot queue. The owner pops from the front
// (ascending slot order, which keeps the committer's next-needed slot
// flowing), thieves steal from the back (the victim's farthest-out
// work, minimizing contention on what the victim touches next).
type deque struct {
	mu    sync.Mutex
	slots []int // front at slots[0]
}

func (d *deque) popFront() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.slots) == 0 {
		return 0, false
	}
	s := d.slots[0]
	d.slots = d.slots[1:]
	return s, true
}

func (d *deque) popBack() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.slots) == 0 {
		return 0, false
	}
	s := d.slots[len(d.slots)-1]
	d.slots = d.slots[:len(d.slots)-1]
	return s, true
}

func (d *deque) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.slots)
}

// New builds a scheduler over slots for the given worker count
// (minimum 1). Slots are split into contiguous blocks, one per worker,
// preserving order within each block.
func New(slots []int, workers int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	s := &Scheduler{queues: make([]*deque, workers), enqueued: int64(len(slots))}
	n := len(slots)
	for i := 0; i < workers; i++ {
		lo, hi := i*n/workers, (i+1)*n/workers
		block := make([]int, hi-lo)
		copy(block, slots[lo:hi])
		s.queues[i] = &deque{slots: block}
	}
	return s
}

// Next returns the next slot for worker (an index in [0, workers)).
// The worker's own queue drains front-first; once empty, the worker
// steals from the back of the victim with the most remaining work.
// ok is false only when every queue is empty — the campaign is fully
// handed out.
func (s *Scheduler) Next(worker int) (slot int, ok bool) {
	slot, _, ok = s.NextFrom(worker)
	return slot, ok
}

// NextFrom is Next plus provenance: from is the queue the slot came
// off (== worker for an own-queue pop, the victim index for a steal;
// -1 when ok is false).
func (s *Scheduler) NextFrom(worker int) (slot, from int, ok bool) {
	if slot, ok = s.queues[worker].popFront(); ok {
		s.ownPops.Add(1)
		s.handed.Add(1)
		return slot, worker, true
	}
	for {
		victim, best := -1, 0
		for i, q := range s.queues {
			if i == worker {
				continue
			}
			s.victimScans.Add(1)
			if n := q.size(); n > best {
				victim, best = i, n
			}
		}
		if victim < 0 {
			s.flight.Record(flightrec.Event{
				Kind: flightrec.WorkerExit, Worker: worker, V1: s.handed.Load(),
			})
			return 0, -1, false
		}
		// The victim may drain between the size scan and the steal;
		// rescan rather than give up, so a slot is never stranded.
		if slot, ok = s.queues[victim].popBack(); ok {
			s.steals.Add(1)
			s.handed.Add(1)
			s.flight.Record(flightrec.Event{
				Kind: flightrec.SlotSteal, Worker: worker, Slot: slot, V1: int64(victim),
			})
			return slot, victim, true
		}
		s.rescans.Add(1)
	}
}

// Remaining reports how many slots are still queued (racy under
// concurrent Next calls; intended for tests and diagnostics).
func (s *Scheduler) Remaining() int {
	n := 0
	for _, q := range s.queues {
		n += q.size()
	}
	return n
}
