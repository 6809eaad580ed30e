package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	runner "vpnscope/internal/campaign"
	"vpnscope/internal/flightrec"
	"vpnscope/internal/results/shardlog"
	"vpnscope/internal/study"
)

// Config tunes the daemon. The zero value is not runnable: StateDir is
// required (campaign durability is not optional); everything else
// defaults via fill.
type Config struct {
	// StateDir holds campaign specs, outcome logs, error markers, and
	// flight dumps. It is the daemon's only durable state: a daemon
	// restarted over the same StateDir resumes every in-flight campaign.
	StateDir string
	// QueueBound caps how many admitted campaigns may wait for fleet
	// capacity (running campaigns don't count). Submissions beyond it
	// get 429 + Retry-After. Default 16.
	QueueBound int
	// FleetWorkers is the shared worker-fleet size: the sum of Workers
	// across running campaigns never exceeds it. Default GOMAXPROCS.
	FleetWorkers int
	// MaxPerTenant caps one tenant's queued+running campaigns; over it,
	// submissions get 429 + Retry-After. Zero = no per-tenant quota.
	MaxPerTenant int
	// DrainGrace is how long a drain waits for running campaigns to
	// finish naturally before canceling them at the next slot boundary
	// (their outcome logs resume on the next start). Default 0: cancel
	// immediately — in-flight work is already in the log, not lost.
	DrainGrace time.Duration
	// RetryAfter is the backpressure hint attached to 429/503 responses.
	// Default 2s.
	RetryAfter time.Duration
	// FlightEvents sizes each flight-recorder ring (one per campaign
	// plus the daemon-wide one) in events. Zero means
	// flightrec.DefaultEvents; negative disables flight recording and
	// the watchdog entirely.
	FlightEvents int
	// WatchdogInterval is the stall watchdog's sweep period. Zero means
	// 1s; negative disables the watchdog (flight recording stays on).
	WatchdogInterval time.Duration
	// StallMultiple scales a campaign's rolling p99 slot wall time into
	// its slot-stall threshold: a slot running longer than
	// max(StallFloor, StallMultiple·p99) fires the watchdog. Zero
	// means 8.
	StallMultiple float64
	// StallFloor is the minimum stall threshold, guarding the p99
	// heuristic before it has samples; it is also the committer
	// staleness margin and the drain-overrun margin past DrainGrace.
	// Zero means 30s.
	StallFloor time.Duration
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.StateDir == "" {
		return errors.New("server: Config.StateDir is required")
	}
	if c.QueueBound <= 0 {
		c.QueueBound = 16
	}
	if c.FleetWorkers <= 0 {
		c.FleetWorkers = runtime.GOMAXPROCS(0)
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Second
	}
	if c.WatchdogInterval == 0 {
		c.WatchdogInterval = time.Second
	}
	if c.StallMultiple <= 0 {
		c.StallMultiple = 8
	}
	if c.StallFloor <= 0 {
		c.StallFloor = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// State is a campaign's lifecycle position.
type State string

const (
	// StateQueued: admitted (spec durably recorded), waiting for fleet
	// capacity. Recovered in-flight campaigns re-enter here.
	StateQueued State = "queued"
	// StateRunning: measuring on fleet workers, appending every
	// vantage-point outcome to the campaign's shard log.
	StateRunning State = "running"
	// StateDone: finished; every outcome log is sealed, and the result
	// endpoint folds them on request.
	StateDone State = "done"
	// StateFailed: terminally failed (run error, deadline, client
	// cancellation, or panic); never resumed.
	StateFailed State = "failed"
	// StateInterrupted: stopped by a drain with its outcome log durable;
	// the next daemon start re-queues and resumes it.
	StateInterrupted State = "interrupted"
)

// terminal reports whether no further transition can happen in this
// process (interrupted campaigns transition only via restart).
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateInterrupted
}

// Event is one entry in a campaign's progress stream.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // queued|started|progress|done|failed|interrupted
	// SlotsDone/SlotsTotal track vantage-point slots (total is known
	// once the world is built).
	SlotsDone  int `json:"slots_done"`
	SlotsTotal int `json:"slots_total,omitempty"`
	// Reports/Failures are committed outcome counts so far.
	Reports  int    `json:"reports"`
	Failures int    `json:"failures"`
	Detail   string `json:"detail,omitempty"`
}

// campaign is one submission's in-memory state. All mutable fields are
// guarded by mu; events only ever append, and cond broadcasts on every
// append so streamers can tail.
type campaign struct {
	id   string
	spec CampaignSpec
	seq  int // admission order, preserved across restart by id sort

	// flight is the campaign's black-box recorder, attached at admission
	// (and at crash recovery) and immutable afterwards; nil when the
	// daemon runs with FlightEvents < 0. Safe to Record on from any
	// goroutine without c.mu.
	flight *flightrec.Ring

	mu         sync.Mutex
	cond       *sync.Cond
	state      State
	errText    string
	slotsTotal int
	events     []Event
	cancel     context.CancelCauseFunc // non-nil while running
	done       chan struct{}           // closed when the runner goroutine exits
}

func newCampaign(id string, seq int, spec CampaignSpec) *campaign {
	c := &campaign{id: id, seq: seq, spec: spec, state: StateQueued, done: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// emit appends an event (seq assigned under the lock) and wakes
// streamers. Callers must not hold c.mu.
func (c *campaign) emit(ev Event) {
	c.mu.Lock()
	ev.Seq = len(c.events)
	c.events = append(c.events, ev)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// setState transitions the campaign and emits the matching event.
func (c *campaign) setState(s State, detail string) {
	c.flight.Record(flightrec.Event{Kind: flightrec.StateChange, Worker: -1, Detail: string(s)})
	c.mu.Lock()
	c.state = s
	if s == StateFailed {
		c.errText = detail
	}
	ev := Event{Type: string(s), SlotsTotal: c.slotsTotal, Detail: detail}
	ev.Seq = len(c.events)
	c.events = append(c.events, ev)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// workers clamps the spec's requested worker count to the fleet.
func (c *campaign) workers(fleet int) int {
	w := c.spec.Workers
	if w < 1 {
		w = 1
	}
	if w > fleet {
		w = fleet
	}
	return w
}

// Daemon is the resident campaign service. Create with New, start the
// scheduler with Start, expose Handler over HTTP, stop with Drain.
type Daemon struct {
	cfg Config

	// rec is the daemon-wide flight recorder (admissions, rejections,
	// drain transitions, watchdog fires); nil when FlightEvents < 0.
	rec     *flightrec.Ring
	metrics daemonMetrics
	wd      *watchdog
	// drainStartNs is the wall stamp of the first Drain call (0 before),
	// the watchdog's drain-overrun clock.
	drainStartNs atomic.Int64

	mu        sync.Mutex
	queueCond *sync.Cond // queue non-empty, or draining
	fleetCond *sync.Cond // fleet tokens released, or draining
	campaigns map[string]*campaign
	order     []*campaign // admission order, for listing
	queue     []*campaign
	fleetFree int
	idSeq     int
	draining  bool

	schedDone  chan struct{}
	runnersWG  sync.WaitGroup
	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// newRing builds one flight-recorder ring under the daemon's sizing
// policy; nil when flight recording is disabled.
func (d *Daemon) newRing() *flightrec.Ring {
	if d.cfg.FlightEvents < 0 {
		return nil
	}
	return flightrec.NewRing(d.cfg.FlightEvents)
}

// Sentinel cancellation causes, distinguishable via context.Cause.
var (
	errDraining       = errors.New("server: daemon draining")
	errClientCanceled = errors.New("server: canceled by client")
)

// New creates a daemon over cfg.StateDir and recovers its durable
// state: done and failed campaigns re-register for the read endpoints,
// and every in-flight campaign (spec present, no error marker, an
// outcome log not yet sealed) re-enters the queue in its original
// admission order, to be resumed from its outcome log.
func New(cfg Config) (*Daemon, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:       cfg,
		campaigns: map[string]*campaign{},
		fleetFree: cfg.FleetWorkers,
		schedDone: make(chan struct{}),
	}
	d.queueCond = sync.NewCond(&d.mu)
	d.fleetCond = sync.NewCond(&d.mu)
	d.baseCtx, d.baseCancel = context.WithCancel(context.Background())
	d.rec = d.newRing()
	d.metrics.tenants = map[string]*tenantCounters{}
	d.wd = newWatchdog()
	if err := d.recoverState(); err != nil {
		return nil, err
	}
	return d, nil
}

// Start launches the scheduler and, unless disabled, the stall
// watchdog. Call once.
func (d *Daemon) Start() {
	go d.schedule()
	if d.cfg.WatchdogInterval > 0 && d.rec != nil {
		go d.watchdogLoop()
	}
}

// schedule is the admission-to-fleet pump: strictly FIFO, it parks
// until the queue head can get its worker tokens, then hands the
// campaign to an isolated runner goroutine. FIFO (no head-of-line
// bypass) keeps scheduling fair and starvation-free: the head campaign
// always gets the next released tokens.
func (d *Daemon) schedule() {
	defer close(d.schedDone)
	for {
		d.mu.Lock()
		for len(d.queue) == 0 && !d.draining {
			d.queueCond.Wait()
		}
		if d.draining {
			d.mu.Unlock()
			return
		}
		c := d.queue[0]
		need := c.workers(d.cfg.FleetWorkers)
		for d.fleetFree < need && !d.draining {
			d.fleetCond.Wait()
		}
		if d.draining {
			d.mu.Unlock()
			return
		}
		d.queue = d.queue[1:]
		d.fleetFree -= need
		d.runnersWG.Add(1)
		d.mu.Unlock()
		go d.runCampaign(c, need)
	}
}

// runCampaign executes one campaign on `need` fleet tokens, with panic
// isolation: a panic anywhere in the build or measurement stack marks
// this campaign failed and releases its tokens; the daemon, the other
// campaigns, and the fleet live on.
func (d *Daemon) runCampaign(c *campaign, need int) {
	defer d.runnersWG.Done()
	defer close(c.done)
	defer func() {
		d.mu.Lock()
		d.fleetFree += need
		d.fleetCond.Broadcast()
		d.mu.Unlock()
	}()
	defer func() {
		if r := recover(); r != nil {
			detail := fmt.Sprintf("panic: %v", r)
			d.cfg.Logf("campaign %s: %s", c.id, detail)
			c.flight.Record(flightrec.Event{Kind: flightrec.Panic, Worker: -1, Detail: detail})
			d.dumpFlight(c.flight, c.id, "panic", debug.Stack())
			d.writeErrorMarker(c.id, detail)
			c.setState(StateFailed, detail)
		}
	}()

	ctx, cancel := context.WithCancelCause(d.baseCtx)
	defer cancel(nil)
	c.mu.Lock()
	c.cancel = cancel
	c.state = StateRunning
	c.mu.Unlock()

	spec := runner.Spec(c.spec)
	spec.Workers = need
	audits, err := runner.Run(ctx, spec, d.outcomesDir(c.id), d.hooks(c, need))
	if err != nil {
		d.finishCanceledOrFail(ctx, c, err)
		return
	}
	// Close the logs before publishing done: a client that sees done
	// must find none of the shard files open.
	for _, a := range audits {
		a.Log.Close()
	}
	c.setState(StateDone, "")
	d.cfg.Logf("campaign %s: done (%d outcome logs sealed)", c.id, len(audits))
}

// hooks wire a campaign's runner to the daemon: the test seams, the
// campaign's flight recorder, and its started and progress events.
// Both events come from the committer goroutine, in rank order, so the
// counters need no lock.
func (d *Daemon) hooks(c *campaign, need int) runner.Hooks {
	h := seams()
	h.Flight = func(*study.World) *flightrec.Ring { return c.flight }
	var slots, reports, failures int
	h.Started = func(lg *shardlog.Log, total int) error {
		slots, reports, failures = total, 0, 0
		resumed := lg.NextRank()
		if resumed > 0 {
			lean, err := lg.Lean()
			if err != nil {
				return err
			}
			reports, failures = len(lean.Reports), len(lean.ConnectFailures)
		}
		c.mu.Lock()
		c.slotsTotal = slots
		c.mu.Unlock()
		c.emit(Event{Type: "started", SlotsTotal: slots, SlotsDone: resumed,
			Reports: reports, Failures: failures,
			Detail: fmt.Sprintf("month=%d workers=%d resumed=%d shards=%d",
				lg.Meta().Month, need, resumed, lg.Meta().Shards)})
		return nil
	}
	h.Outcome = func(o study.Outcome) error {
		if o.Report != nil {
			reports++
		}
		if o.Failure != nil {
			failures++
		}
		c.emit(Event{Type: "progress", SlotsDone: o.Rank + 1, SlotsTotal: slots,
			Reports: reports, Failures: failures})
		return nil
	}
	return h
}

// finishCanceledOrFail maps a campaign-run error to the campaign's
// terminal state: a drain → interrupted (the shard log is durable, the
// next daemon start resumes it), everything else → failed, with the
// cancellation cause named.
func (d *Daemon) finishCanceledOrFail(ctx context.Context, c *campaign, err error) {
	if !errors.Is(err, study.ErrCanceled) {
		d.failCampaign(c, err.Error())
		return
	}
	cause := context.Cause(ctx)
	switch {
	case errors.Is(cause, errDraining):
		c.setState(StateInterrupted, "draining: shard log durable for resume")
		d.dumpFlight(c.flight, c.id, "drain", nil)
		st := c.status()
		d.cfg.Logf("campaign %s: interrupted by drain at %d/%d slots", c.id, st.SlotsDone, st.SlotsTotal)
	case errors.Is(cause, errClientCanceled):
		d.failCampaign(c, "canceled by client")
	case errors.Is(err, context.DeadlineExceeded):
		d.failCampaign(c, fmt.Sprintf("deadline exceeded after %.0fs", c.spec.TimeoutSec))
	default:
		d.failCampaign(c, fmt.Sprintf("canceled: %v", cause))
	}
}

// failCampaign marks a campaign terminally failed, durably: the error
// marker stops crash recovery from resurrecting it. The flight
// recorder dumps alongside the marker — a failed campaign always
// leaves its last moments on disk.
func (d *Daemon) failCampaign(c *campaign, detail string) {
	d.cfg.Logf("campaign %s: failed: %s", c.id, detail)
	d.dumpFlight(c.flight, c.id, "failed", nil)
	d.writeErrorMarker(c.id, detail)
	c.setState(StateFailed, detail)
}

// Submit admits a campaign: validation, drain gate, tenant quota, queue
// bound, then durable spec persistence — in that order. The returned
// campaign is queued; a SubmitError carries the HTTP status and
// Retry-After for the refusal cases.
func (d *Daemon) Submit(spec CampaignSpec) (*campaign, error) {
	if err := (*runner.Spec)(&spec).Validate(); err != nil {
		return nil, &SubmitError{Status: 400, Err: err}
	}
	tc := d.metrics.tenant(spec.tenant())
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		tc.rejectedDraining.Add(1)
		d.rec.Record(flightrec.Event{Kind: flightrec.Reject, Worker: -1, Detail: "draining"})
		return nil, &SubmitError{Status: 503, RetryAfter: d.cfg.RetryAfter, Err: errDraining}
	}
	if d.cfg.MaxPerTenant > 0 {
		active := 0
		for _, c := range d.campaigns {
			c.mu.Lock()
			busy := c.state == StateQueued || c.state == StateRunning
			c.mu.Unlock()
			if busy && c.spec.tenant() == spec.tenant() {
				active++
			}
		}
		if active >= d.cfg.MaxPerTenant {
			tc.rejectedQuota.Add(1)
			d.rec.Record(flightrec.Event{Kind: flightrec.Reject, Worker: -1, Detail: "tenant-quota", V1: int64(active)})
			return nil, &SubmitError{Status: 429, RetryAfter: d.cfg.RetryAfter,
				Err: fmt.Errorf("server: tenant %q at quota (%d active campaigns)", spec.tenant(), active)}
		}
	}
	if len(d.queue) >= d.cfg.QueueBound {
		tc.rejectedQueueFull.Add(1)
		d.rec.Record(flightrec.Event{Kind: flightrec.Reject, Worker: -1, Detail: "queue-full", V1: int64(len(d.queue))})
		return nil, &SubmitError{Status: 429, RetryAfter: d.cfg.RetryAfter,
			Err: fmt.Errorf("server: queue full (%d campaigns waiting)", len(d.queue))}
	}
	d.idSeq++
	id := fmt.Sprintf("c%08d", d.idSeq)
	c := newCampaign(id, d.idSeq, spec)
	c.flight = d.newRing()
	// Durability before admission: the spec hits disk (fsynced) before
	// the caller hears 202, so an admitted campaign can never be lost
	// to a crash.
	if err := d.writeSpec(c); err != nil {
		d.idSeq--
		return nil, &SubmitError{Status: 500, Err: err}
	}
	d.campaigns[id] = c
	d.order = append(d.order, c)
	d.queue = append(d.queue, c)
	c.events = append(c.events, Event{Type: string(StateQueued)})
	d.queueCond.Signal()
	tc.admitted.Add(1)
	d.rec.Record(flightrec.Event{Kind: flightrec.Admit, Worker: -1, Campaign: id,
		Detail: spec.tenant(), V1: int64(len(d.queue))})
	d.cfg.Logf("campaign %s: admitted (tenant=%s queue=%d)", id, spec.tenant(), len(d.queue))
	return c, nil
}

// SubmitError is an admission refusal with its HTTP shape.
type SubmitError struct {
	Status     int
	RetryAfter time.Duration
	Err        error
}

func (e *SubmitError) Error() string { return e.Err.Error() }
func (e *SubmitError) Unwrap() error { return e.Err }

// Cancel cancels a queued or running campaign on a client's behalf.
func (d *Daemon) Cancel(id string) error {
	d.mu.Lock()
	c := d.campaigns[id]
	if c == nil {
		d.mu.Unlock()
		return fmt.Errorf("server: unknown campaign %s", id)
	}
	// If still queued, drop it from the queue so the scheduler never
	// starts it.
	for i, q := range d.queue {
		if q == c {
			d.queue = append(d.queue[:i], d.queue[i+1:]...)
			d.mu.Unlock()
			d.failCampaign(c, "canceled by client")
			return nil
		}
	}
	d.mu.Unlock()
	c.mu.Lock()
	cancel := c.cancel
	state := c.state
	c.mu.Unlock()
	if state.terminal() {
		return fmt.Errorf("server: campaign %s already %s", id, state)
	}
	if cancel != nil {
		cancel(errClientCanceled)
	}
	return nil
}

// Drain gracefully stops the daemon: admission closes (Submit returns
// 503), the scheduler exits leaving queued campaigns durably on disk,
// running campaigns get DrainGrace to finish naturally and are then
// canceled — stopping at their next slot boundary with a durable
// outcome log. Drain returns once every runner has exited; the caller
// can then stop the HTTP listener and exit 0.
func (d *Daemon) Drain() {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		<-d.schedDone
		d.runnersWG.Wait()
		return
	}
	d.draining = true
	d.queueCond.Broadcast()
	d.fleetCond.Broadcast()
	d.mu.Unlock()
	d.drainStartNs.Store(time.Now().UnixNano())
	d.rec.Record(flightrec.Event{Kind: flightrec.Drain, Worker: -1, Detail: "begin"})
	// The watchdog keeps sweeping through the drain — a drain that
	// outlives DrainGrace by StallFloor is exactly what it is for — and
	// stops only once every runner has exited.
	defer d.stopWatchdog()
	defer d.rec.Record(flightrec.Event{Kind: flightrec.Drain, Worker: -1, Detail: "end"})
	<-d.schedDone

	finished := make(chan struct{})
	go func() {
		d.runnersWG.Wait()
		close(finished)
	}()
	if d.cfg.DrainGrace > 0 {
		select {
		case <-finished:
			return
		case <-time.After(d.cfg.DrainGrace):
		}
	}
	// Cancel every running campaign, and keep sweeping: a campaign the
	// scheduler had already popped but not yet marked running at the
	// first sweep still gets canceled on a later one.
	for {
		d.cancelRunning(errDraining)
		select {
		case <-finished:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// cancelRunning cancels every campaign currently in StateRunning with
// the given cause. Idempotent per campaign.
func (d *Daemon) cancelRunning(cause error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.campaigns {
		c.mu.Lock()
		cancel := c.cancel
		running := c.state == StateRunning
		c.mu.Unlock()
		if running && cancel != nil {
			cancel(cause)
		}
	}
}

// Draining reports whether admission is closed.
func (d *Daemon) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// Campaign looks up a campaign by id.
func (d *Daemon) Campaign(id string) (*campaign, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.campaigns[id]
	return c, ok
}

// Campaigns lists every known campaign in admission order.
func (d *Daemon) Campaigns() []*campaign {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*campaign, len(d.order))
	copy(out, d.order)
	return out
}
