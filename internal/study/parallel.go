// Parallel campaign executor, sharded at vantage-point granularity.
//
// PR 1's determinism contract made every vantage-point measurement a
// pure function of (world options, global slot index, vantage point):
// the slot pins the virtual clock, and every stochastic stream — netsim
// jitter, fault draws, backoff jitter, the client machine's address —
// is re-derived from (seed, vantage point) at the slot boundary. This
// file cashes that in at the finest grain the contract allows: every
// individual slot can be measured speculatively, on any worker, in any
// order. Workers pull slots from a work-stealing scheduler
// (internal/study/slotsched) and measure them on long-lived world
// replicas that are *reset* at each slot boundary (World.beginSlot)
// rather than rebuilt; the committing goroutine consumes measurements
// in canonical slot order, replaying the one genuine inter-slot
// dependency — the per-provider quarantine breaker — and discarding
// speculative measurements a quarantine overtook. Output is therefore
// byte-identical to the sequential path for any worker count, at every
// streamed outcome, for any kill/resume point.
package study

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vpnscope/internal/flightrec"
	"vpnscope/internal/study/slotsched"
)

// buildWorkerWorld builds an independent replica of this world for one
// worker: same Options (hence the same seed-derived hosts, providers,
// and baseline) and the same fault profile. Replicas share no mutable
// simulation state — each has its own clock, RNG streams, and fault
// plan — which is what makes parallel execution race-free without a
// single lock in the simulation hot path.
func (w *World) buildWorkerWorld() (*World, error) {
	cw, err := Build(w.Opts)
	if err != nil {
		return nil, fmt.Errorf("study: building worker world: %w", err)
	}
	if w.faults != nil {
		cw.EnableFaults(w.faults.Profile())
	}
	return cw, nil
}

// runParallelSlots executes specs as a worker pool over individual
// vantage-point slots. Workers measure speculatively and publish
// results keyed by spec index; the calling goroutine is the committer,
// walking specs in canonical order and blocking until each needed
// result arrives.
//
// Quarantine is the one ordering dependency, handled with a monotone
// per-provider flag: the committer sets it (via the committer's
// onQuarantine hook, or pre-seeded from resumed skips) before it ever
// advances past the provider's quarantined slots, and workers check it
// before measuring. A worker can still race past the check and deliver
// a stale measurement for a slot the breaker voided — the committer
// deletes such deliveries at skip-commit time, and the slot's fault
// counters (carried as a per-slot delta) are never absorbed, so
// discarded speculation leaves no trace in the final bytes or stats.
// The flag can never be set while the committer is blocked waiting on
// that provider's slot (only the committer sets flags, and it only does
// so when prepare says the slot is skipped, not needed), so every
// needed slot is eventually measured and delivered: no deadlock.
func (w *World) runParallelSlots(specs []slotSpec, c *committer, workers int) (*Result, error) {
	// The primary world never measures on this path: its scratch bundle
	// goes back to the pool now, warm for a worker replica's build.
	w.Net.ReleaseScratch()
	cfg := c.cfg
	flags := make([]atomic.Bool, len(w.Providers))
	c.onQuarantine = func(provIdx int) { flags[provIdx].Store(true) }
	// Resumed quarantines: flag the provider up front so workers never
	// measure its remaining un-resumed slots.
	for pi := range c.prov {
		if c.prov[pi].quarantined {
			flags[pi].Store(true)
		}
	}
	needIdx := make([]int, 0, len(specs)-c.resumed)
	for i := c.resumed; i < len(specs); i++ {
		needIdx = append(needIdx, i)
	}
	sched := slotsched.New(needIdx, workers)
	// The parallel path only runs full campaigns (multiProvider), where a
	// spec's index equals its canonical rank — so the scheduler's
	// slot-steal events line up with every other event's Slot field.
	sched.SetFlight(cfg.Flight)

	var (
		q    = newIntake()
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	deliver := q.put

	for k := 0; k < workers; k++ {
		wg.Add(1)
		// Label the executor goroutine so CPU and goroutine profiles of a
		// running campaign attribute samples to workers, and each measured
		// slot to its (slot, provider) pair — pprof.Do costs a handful of
		// allocations per slot, noise next to a slot's measurement work.
		go func(id int) {
			defer wg.Done()
			pprof.Do(context.Background(), pprof.Labels("worker", strconv.Itoa(id)), func(ctx context.Context) {
				w.workerLoop(ctx, id, specs, sched, cfg, flags, &stop, deliver)
			})
		}(k)
	}

	// pending is the committer's private view of delivered slots; it is
	// refilled in batches from the intake, so the committer touches the
	// shared lock once per batch instead of once per slot.
	pending := make(map[int]*vpResult)
	absorb := func(batch []slotDelivery) {
		for _, d := range batch {
			pending[d.idx] = d.out
		}
		if len(batch) > 0 {
			cfg.Flight.CommitDrain(len(batch))
		}
	}

	var retErr error
	for i, s := range specs {
		if err := cfg.canceled(); err != nil {
			retErr = err
			break
		}
		needMeasure, err := c.prepare(s)
		if err != nil {
			retErr = err
			break
		}
		if !needMeasure {
			// Resumed or quarantine-skipped: drop any speculative
			// measurement a worker already published for this slot.
			absorb(q.tryDrain())
			if _, speculative := pending[i]; speculative {
				cfg.Flight.Record(flightrec.Event{
					Kind: flightrec.SlotDiscard, Worker: committerWorker,
					Slot: s.order, Provider: s.provider, VP: s.label,
				})
				delete(pending, i)
			}
			continue
		}
		out, ok := pending[i]
		if !ok {
			absorb(q.tryDrain())
			out, ok = pending[i]
		}
		if !ok {
			var waitStart time.Time
			if cfg.Flight != nil {
				waitStart = time.Now()
			}
			for !ok {
				absorb(q.drain())
				out, ok = pending[i]
			}
			if cfg.Flight != nil {
				cfg.Flight.Record(flightrec.Event{
					Kind: flightrec.CommitWait, Worker: committerWorker,
					Slot: s.order, Provider: s.provider, V1: int64(time.Since(waitStart)),
				})
			}
		}
		delete(pending, i)
		if out.err != nil {
			retErr = out.err
			break
		}
		// The slot is committing: fold its fault counters into the
		// campaign plan, exactly matching what a sequential run of this
		// slot would have drawn.
		if w.faults != nil {
			w.faults.Absorb(out.faultDelta)
		}
		if err := c.commit(s, *out); err != nil {
			retErr = err
			break
		}
	}
	stop.Store(true)
	// Workers never block on the intake (put is append-and-go), so the
	// pool just drains the scheduler and exits.
	wg.Wait()
	st := sched.Stats()
	cfg.Flight.SchedulerScans(st.VictimScans, st.Rescans)
	return c.fold.Result(), retErr
}

// slotDelivery is one worker-measured slot result keyed by spec index.
type slotDelivery struct {
	idx int
	out *vpResult
}

// intake is the double-buffered delivery queue between workers and the
// committer. Workers append to the fill buffer under a short critical
// section; the committer swaps the whole buffer out in one lock
// acquisition and consumes it privately, so commit work (report
// serialization, streaming) overlaps worker execution instead of
// trading per-slot lock handoffs with it.
type intake struct {
	mu      sync.Mutex
	cond    *sync.Cond
	buf     []slotDelivery // fill buffer (workers append)
	spare   []slotDelivery // drained buffer, recycled at the next swap
	waiting bool
}

func newIntake() *intake {
	q := &intake{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// put publishes one result. Only a committer actually parked in drain
// is signaled — the common case appends and leaves without a wakeup.
func (q *intake) put(i int, out *vpResult) {
	q.mu.Lock()
	q.buf = append(q.buf, slotDelivery{idx: i, out: out})
	if q.waiting {
		q.cond.Signal()
	}
	q.mu.Unlock()
}

// tryDrain swaps out the current batch without blocking; nil when empty.
func (q *intake) tryDrain() []slotDelivery {
	q.mu.Lock()
	batch := q.swapLocked()
	q.mu.Unlock()
	return batch
}

// drain blocks until at least one delivery is buffered, then swaps out
// the whole batch. The committer owns the returned slice until its next
// drain/tryDrain call.
func (q *intake) drain() []slotDelivery {
	q.mu.Lock()
	for len(q.buf) == 0 {
		q.waiting = true
		q.cond.Wait()
	}
	q.waiting = false
	batch := q.swapLocked()
	q.mu.Unlock()
	return batch
}

func (q *intake) swapLocked() []slotDelivery {
	if len(q.buf) == 0 {
		return nil
	}
	batch := q.buf
	q.buf = q.spare[:0]
	q.spare = batch
	return batch
}

// workerLoop is one executor goroutine's slot-pulling loop, running
// under a worker-id pprof label; each measured slot additionally runs
// under (slot, provider) labels so a profile can be cut by any of the
// three dimensions.
func (w *World) workerLoop(ctx context.Context, id int, specs []slotSpec, sched *slotsched.Scheduler,
	cfg *RunConfig, flags []atomic.Bool, stop *atomic.Bool, deliver func(int, *vpResult)) {
	var cw *World
	defer func() {
		if cw != nil {
			cw.Net.ReleaseScratch()
		}
	}()
	for {
		i, ok := sched.Next(id)
		if !ok {
			return
		}
		if stop.Load() {
			continue // drain the scheduler, measure nothing
		}
		if err := cfg.canceled(); err != nil {
			// Deliver the cancellation instead of dropping the slot: the
			// committer may already be parked waiting for exactly this
			// index, and an undelivered slot would strand it forever.
			deliver(i, &vpResult{err: err})
			continue
		}
		s := specs[i]
		if flags[s.provIdx].Load() {
			continue // committer skip-commits this slot itself
		}
		if cw == nil {
			var err error
			if cw, err = w.buildWorkerWorld(); err != nil {
				// Surface per slot: the committer reports the first
				// failure in canonical order, like the sequential path
				// would.
				deliver(i, &vpResult{err: err})
				continue
			}
			cw.markCampaign()
			cw.worker = id
			cfg.Flight.WorkerWorldBuilt()
		}
		var out vpResult
		pprof.Do(ctx, pprof.Labels("slot", strconv.Itoa(s.order), "provider", s.provider), func(context.Context) {
			out = cw.measureVP(cfg, s)
		})
		deliver(i, &out)
	}
}
