// The stall watchdog: a daemon goroutine that sweeps every running
// campaign's flight-recorder ring and fires — log line, metrics
// counter, watchdog event, NDJSON dump, goroutine stacks — when the
// service has silently wedged instead of failing loudly. Three stall
// classes are detected:
//
//   - slot stall: a worker's active slot (SlotStart with no SlotFinish)
//     has been running longer than max(StallFloor, StallMultiple · p99)
//     of the campaign's rolling slot wall-time histogram;
//   - committer stall: slots keep finishing but the committer's last
//     action (commit, stream, resume, skip, discard, wait) is older
//     than the same threshold — the single committer is wedged or
//     parked on a delivery that will never come;
//   - drain stall: a drain has been running for DrainGrace + StallFloor
//     without every runner exiting.
//
// Each (campaign, slot) pair and each campaign's committer fire at most
// once until the condition clears, so a genuinely hung slot produces
// one dump, not one per sweep.
package server

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"vpnscope/internal/flightrec"
)

// watchdog is the sweep's private state; only the watchdog goroutine
// (or a test calling watchdogSweep directly) touches it.
type watchdog struct {
	stop     chan struct{}
	stopOnce sync.Once

	slotFired   map[string]map[int]bool // campaign id → slot → already fired
	commitFired map[string]bool         // campaign id → already fired
	drainFired  bool
	activeBuf   []flightrec.ActiveSlot // reused sweep scratch
}

func newWatchdog() *watchdog {
	return &watchdog{
		stop:        make(chan struct{}),
		slotFired:   map[string]map[int]bool{},
		commitFired: map[string]bool{},
	}
}

// stopWatchdog halts the sweep loop; safe to call repeatedly, and safe
// when the loop was never started.
func (d *Daemon) stopWatchdog() {
	d.wd.stopOnce.Do(func() { close(d.wd.stop) })
}

func (d *Daemon) watchdogLoop() {
	t := time.NewTicker(d.cfg.WatchdogInterval)
	defer t.Stop()
	for {
		select {
		case <-d.wd.stop:
			return
		case <-t.C:
			d.watchdogSweep(time.Now())
		}
	}
}

// stallThreshold is the adaptive slot/committer stall bound for one
// campaign: StallMultiple times the ring's rolling p99 slot wall time,
// never below StallFloor, and StallFloor alone until the histogram has
// enough samples to make a p99 meaningful.
func (d *Daemon) stallThreshold(r *flightrec.Ring) time.Duration {
	const minSamples = 8
	thr := d.cfg.StallFloor
	if h := r.SlotWall(); h != nil && h.Count() >= minSamples {
		if t := time.Duration(d.cfg.StallMultiple * float64(h.Quantile(0.99))); t > thr {
			thr = t
		}
	}
	return thr
}

// watchdogSweep runs one detection pass at the given wall time. Split
// from the loop so tests can drive it deterministically.
func (d *Daemon) watchdogSweep(now time.Time) {
	// Drain overrun: the whole daemon's liveness, checked first.
	if ds := d.drainStartNs.Load(); ds > 0 && !d.wd.drainFired {
		if over := now.Sub(time.Unix(0, ds)); over > d.cfg.DrainGrace+d.cfg.StallFloor {
			d.wd.drainFired = true
			d.metrics.watchdogDrainStalls.Add(1)
			d.fireWatchdog(d.rec, "daemon", "drain_stall",
				fmt.Sprintf("drain running %s (grace %s)", over.Round(time.Millisecond), d.cfg.DrainGrace))
		}
	}
	for _, c := range d.Campaigns() {
		c.mu.Lock()
		running := c.state == StateRunning
		c.mu.Unlock()
		r := c.flight
		if !running || r == nil {
			delete(d.wd.slotFired, c.id)
			delete(d.wd.commitFired, c.id)
			continue
		}
		thr := d.stallThreshold(r)

		// Slot stalls: any active slot older than the threshold.
		d.wd.activeBuf = r.ActiveSlots(d.wd.activeBuf[:0])
		for _, a := range d.wd.activeBuf {
			elapsed := now.Sub(a.Start)
			if elapsed <= thr {
				continue
			}
			fired := d.wd.slotFired[c.id]
			if fired[a.Slot] {
				continue
			}
			if fired == nil {
				fired = map[int]bool{}
				d.wd.slotFired[c.id] = fired
			}
			fired[a.Slot] = true
			d.metrics.watchdogSlotStalls.Add(1)
			d.fireWatchdog(r, c.id, "slot_stall",
				fmt.Sprintf("worker %d slot %d (%s %s) running %s, threshold %s",
					a.Worker, a.Slot, a.Provider, a.VP, elapsed.Round(time.Millisecond), thr))
		}

		// Committer stall: a slot finished, the threshold elapsed, and the
		// committer has taken no action at all since.
		// Measuring staleness from the last *finish* (not the last commit)
		// keeps the check quiet while workers are still delivering and
		// handles a committer that wedged before its first commit.
		// Resolves (and re-arms) the moment the committer moves again.
		lastFinish, lastCommit := r.Liveness()
		stalled := !lastFinish.IsZero() && lastFinish.After(lastCommit) &&
			now.Sub(lastFinish) > thr
		if !stalled {
			delete(d.wd.commitFired, c.id)
		} else if !d.wd.commitFired[c.id] {
			d.wd.commitFired[c.id] = true
			d.metrics.watchdogCommitStalls.Add(1)
			d.fireWatchdog(r, c.id, "commit_stall",
				fmt.Sprintf("committer idle %s with newer finished slots (threshold %s)",
					now.Sub(lastCommit).Round(time.Millisecond), thr))
		}
	}
}

// fireWatchdog is one stall detection's common tail: count is already
// bumped by the caller; this records the watchdog event on the stalled
// ring, logs, and dumps the ring plus all-goroutine stacks into the
// state dir.
func (d *Daemon) fireWatchdog(r *flightrec.Ring, id, kind, detail string) {
	r.Record(flightrec.Event{Kind: flightrec.Watchdog, Worker: -1, Campaign: id, Detail: kind + ": " + detail})
	d.cfg.Logf("watchdog: %s: %s: %s", id, kind, detail)
	d.dumpFlight(r, id, "watchdog-"+kind, allGoroutineStacks())
}

// allGoroutineStacks captures every goroutine's stack, growing the
// buffer until the traceback fits.
func allGoroutineStacks() []byte {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}
