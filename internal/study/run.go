package study

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"vpnscope/internal/faultsim"
	"vpnscope/internal/flightrec"
	"vpnscope/internal/simrand"
	"vpnscope/internal/vpn"
	"vpnscope/internal/vpntest"
)

// SlotHook, when non-nil, is called at the top of every slot
// measurement with the world seed and the slot's canonical rank. It
// exists for chaos testing only — the daemon's subprocess harness uses
// it to inject a panic or a stall into one exact slot of one exact
// campaign from environment variables. Set it before any campaign
// starts; never in production paths.
var SlotHook func(seed uint64, order int)

// ConnectFailure records a vantage point that could not be tested.
type ConnectFailure struct {
	Provider string
	VPLabel  string
	Err      string
	// Attempts is how many connect attempts were made before giving up
	// (0 when the client machine itself could not be provisioned).
	Attempts int
}

// Recovery records a vantage point that needed more than one connect
// attempt but was ultimately measured — the paper's partial
// re-collection workflow made visible.
type Recovery struct {
	Provider string
	VPLabel  string
	Attempts int
}

// Quarantine records a provider whose circuit breaker tripped:
// TrippedAfter consecutive vantage-point failures, with the remaining
// vantage points skipped but listed rather than silently dropped.
type Quarantine struct {
	Provider     string
	TrippedAfter int
	SkippedVPs   []string
}

// SkippedVP is a quarantine-skipped vantage point as a streamed
// outcome. TrippedAfter copies the owning quarantine's streak onto
// every skip so a resumed outcome log can rebuild the quarantine
// record from its first skip alone (a fresh trip and its first skip
// are always emitted atomically by the committer).
type SkippedVP struct {
	Provider     string
	VPLabel      string
	TrippedAfter int
}

// Outcome is one vantage-point slot's result as emitted by
// RunConfig.Stream: exactly one of Report, Failure, or Skip is set
// (Recovery only ever accompanies Report). Rank is the slot's canonical
// campaign rank; Stream receives ranks in strictly increasing order,
// starting at the resumed prefix length.
type Outcome struct {
	Rank     int
	Report   *vpntest.VPReport `json:",omitempty"`
	Failure  *ConnectFailure   `json:",omitempty"`
	Recovery *Recovery         `json:",omitempty"`
	Skip     *SkippedVP        `json:",omitempty"`
}

// Result is a completed (or interrupted partial) study: every
// vantage-point report plus the connection failures (§5.2's
// flaky-endpoint reality), retry recoveries, and quarantines. Every
// attempted vantage point lands in exactly one of Reports,
// ConnectFailures, or a Quarantine's SkippedVPs — no silent drops.
type Result struct {
	Reports         []*vpntest.VPReport
	ConnectFailures []ConnectFailure
	Recoveries      []Recovery
	Quarantines     []Quarantine
	// VPsAttempted counts vantage points we tried to measure (including
	// quarantine-skipped ones).
	VPsAttempted int
}

// ReportsFor returns one provider's reports.
func (r *Result) ReportsFor(provider string) []*vpntest.VPReport {
	var out []*vpntest.VPReport
	for _, rep := range r.Reports {
		if rep.Provider == provider {
			out = append(out, rep)
		}
	}
	return out
}

// Providers returns the distinct provider names in report order.
func (r *Result) Providers() []string {
	var out []string
	seen := map[string]bool{}
	for _, rep := range r.Reports {
		if !seen[rep.Provider] {
			seen[rep.Provider] = true
			out = append(out, rep.Provider)
		}
	}
	return out
}

// RunConfig tunes the resilient campaign runner. The zero value is
// valid: fill() applies the defaults below.
type RunConfig struct {
	// ConnectAttempts is the per-vantage-point connect budget
	// (default 3; minimum 1).
	ConnectAttempts int
	// BackoffBase and BackoffMax shape the virtual-clock exponential
	// backoff between connect attempts (defaults 2s and 1m). Each wait
	// is base·2^(attempt-1), capped at max, scaled by a seeded jitter
	// in [0.5, 1.5).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// QuarantineAfter trips a per-provider circuit breaker after N
	// consecutive vantage-point failures, skipping (but recording) the
	// provider's remaining vantage points. Zero disables the breaker.
	QuarantineAfter int
	// TestBudget / SuiteBudget are forwarded to vpntest.SuiteOptions.
	TestBudget  time.Duration
	SuiteBudget time.Duration
	// VPSlot is the fixed virtual-time slot reserved per vantage point
	// (default 45m, the paper's per-VP wall time). Aligning every
	// vantage point to slot boundaries makes the campaign timeline — and
	// hence every fault schedule and RNG draw — independent of how long
	// earlier vantage points took, which is what lets an interrupted
	// campaign resume byte-identically.
	VPSlot time.Duration
	// Stream, when set, makes the campaign durable: each newly recorded
	// outcome is handed to Stream exactly once, in canonical rank order
	// (serialized onto the committing goroutine even under Parallel),
	// and the committer stops retaining measurement reports in the
	// returned Result — Reports stays empty; ConnectFailures,
	// Recoveries, Quarantines, and VPsAttempted are still filled. The
	// sink is normally shardlog.(*Log).Append, whose sealed log folds
	// back into the full Result (shardlog.(*Log).Result). A Stream error
	// aborts the campaign, returning the partial Result alongside it.
	Stream func(Outcome) error
	// Resume continues a streamed campaign whose first outcomes are
	// already in the caller's log: it must be the lean Result
	// shardlog.(*Log).Resume rebuilds from that log, and it is only
	// valid together with Stream. Resumed vantage points (measured,
	// failed, or quarantine-skipped) are not re-run or re-streamed, but
	// still consume their virtual-time slot.
	Resume *Result
	// Parallel is the campaign worker count (default GOMAXPROCS;
	// minimum 1). The campaign is sharded at vantage-point granularity:
	// a work-stealing scheduler (internal/study/slotsched) hands slots
	// to workers, each of which owns one long-lived world replica —
	// built once from the same Options, seed, and fault profile, then
	// *reset* at every slot boundary (clock rewound, per-VP RNG/fault
	// streams re-derived, per-slot hosts deregistered) instead of
	// rebuilt. A single committer consumes measurements in canonical
	// slot order, replaying quarantine decisions deterministically and
	// discarding speculative slots a quarantine overtook, so any
	// Parallel value serializes byte-identically to Parallel=1.
	//
	// Set Parallel to 1 when the World was mutated after Build (e.g. a
	// test marking hosts down or swapping Config hooks): worker
	// replicas are rebuilt from Options and cannot observe such
	// mutations.
	Parallel int
	// Flight, when non-nil, is the campaign's one recorder: every slot
	// start/finish, retry, steal, quarantine decision, commit, and
	// stream call records a bounded, runtime-shape-only event into it,
	// along with the counters and histograms its metrics snapshot,
	// trace, and progress line are derived from (see internal/flightrec).
	// A nil ring disables recording at the cost of a nil check; the
	// record path never allocates either way, and nothing recorded
	// feeds back into execution, so results stay byte-identical with the
	// recorder on or off.
	Flight *flightrec.Ring
	// Ctx, when non-nil, cancels the campaign cooperatively: no new
	// vantage-point slot starts once the context is done, the committer
	// stops advancing, and the runner returns the partial Result
	// alongside an error wrapping ctx.Err(). Cancellation lands only at
	// slot boundaries, so every outcome committed before it has already
	// been streamed — a canceled campaign's log resumes byte-identically,
	// exactly like a killed one (ErrCanceled distinguishes cooperative
	// stops from real failures).
	Ctx context.Context
}

// ErrCanceled wraps the context error a canceled campaign returns; test
// with errors.Is. The accompanying partial Result is valid and — when a
// Stream sink was set — every outcome it counts is already streamed.
var ErrCanceled = errors.New("study: campaign canceled")

func (c *RunConfig) fill() {
	if c.ConnectAttempts <= 0 {
		c.ConnectAttempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 2 * time.Second
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = time.Minute
	}
	if c.VPSlot <= 0 {
		c.VPSlot = 45 * time.Minute
	}
	if c.Parallel == 0 {
		c.Parallel = runtime.GOMAXPROCS(0)
	}
	if c.Parallel < 1 {
		c.Parallel = 1
	}
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
}

// canceled reports the campaign's cooperative-stop error, or nil while
// the context is live.
func (c *RunConfig) canceled() error {
	if err := c.Ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// campaignBase is the virtual time at which the first vantage-point
// slot opens, leaving room for world build + baseline collection.
const campaignBase = time.Hour

// vpOutcome classifies how a vantage point already present in a resumed
// Result was recorded.
type vpOutcome int

const (
	outcomeNone vpOutcome = iota
	outcomeMeasured
	outcomeFailed
	outcomeSkipped
)

func vpKey(provider, label string) string { return provider + "\x00" + label }

// vpLabel is the canonical display label of a vantage point, used as
// the per-VP stream key and in every serialized record.
func vpLabel(vp *vpn.VantagePoint) string {
	return fmt.Sprintf("%s (%s)", vp.ID(), vp.ClaimedCountry)
}

// slotSpec pins one vantage-point measurement. order is both the
// record's canonical rank and the virtual-time slot the measurement
// runs in: the slot index within the campaign being run, counted from
// zero for a full campaign and for RunProvider alike.
type slotSpec struct {
	provIdx  int // index into World.Providers
	vpIdx    int // index into the provider's VPs
	order    int // canonical rank and virtual-time slot (clock pin + client sequence)
	provider string
	label    string
	key      string
}

// SlotCount is the number of vantage-point slots a full campaign over
// this world measures.
func (w *World) SlotCount() int {
	n := 0
	for _, p := range w.Providers {
		if p.Spec.Client != vpn.BrowserExtension {
			n += len(p.VPs)
		}
	}
	return n
}

// campaignSpecs enumerates the full campaign: every vantage point of
// every actively tested provider (browser extensions are excluded from
// active testing, §4), in provider order.
func (w *World) campaignSpecs() []slotSpec {
	var specs []slotSpec
	slot := 0
	for pi, p := range w.Providers {
		if p.Spec.Client == vpn.BrowserExtension {
			continue
		}
		for vi, vp := range p.VPs {
			label := vpLabel(vp)
			specs = append(specs, slotSpec{
				provIdx: pi, vpIdx: vi, order: slot,
				provider: p.Name(), label: label, key: vpKey(p.Name(), label),
			})
			slot++
		}
	}
	return specs
}

// providerSpecs enumerates a single provider's slots for RunProvider:
// it is a campaign of its own, so both rank and virtual time restart at
// slot zero.
func (w *World) providerSpecs(pi int) []slotSpec {
	p := w.Providers[pi]
	if p.Spec.Client == vpn.BrowserExtension {
		return nil
	}
	var specs []slotSpec
	for vi, vp := range p.VPs {
		label := vpLabel(vp)
		specs = append(specs, slotSpec{
			provIdx: pi, vpIdx: vi, order: vi,
			provider: p.Name(), label: label, key: vpKey(p.Name(), label),
		})
	}
	return specs
}

// vpResult is one vantage point's measurement outcome: exactly one of
// report or failure is set (a recovery only ever accompanies a report).
type vpResult struct {
	report   *vpntest.VPReport
	failure  *ConnectFailure
	recovery *Recovery
	// faultDelta is the slice of fault-plan counters this slot incurred
	// on a worker world; the committer absorbs it into the campaign
	// plan only if the slot commits (speculative slots a quarantine
	// overtook are discarded, counters included).
	faultDelta faultsim.Stats
	// err is a campaign-level failure (today only a worker-world build
	// error), surfaced by the committer in slot order.
	err error
	// attempts is how many connect attempts the slot consumed (0 when
	// the client machine could not be provisioned); flight recorder only.
	attempts int
}

// markCampaign records the world's pre-campaign snapshot marks; every
// beginSlot rewinds back to them. Called once per campaign on each
// measuring world (the primary for sequential runs, each worker replica
// for parallel ones).
func (w *World) markCampaign() {
	w.hostMark = w.Net.HostMark()
	w.authMark = w.Authority.LogMark()
	// From here on the world measures slots single-threaded, and every
	// transient packet dies inside its slot — install the scratch
	// bundle's arena as the slot arena so delivery-path copies become
	// bump allocations recycled by beginSlot. (Build-time traffic, e.g.
	// baseline collection, stays on the heap: the baseline outlives every
	// slot.) The campaign hands the bundle back when it ends.
	if w.Net.SlotArena() == nil {
		w.Net.SetSlotArena(w.Net.ScratchArena())
	}
}

// beginSlot resets the world at a vantage-point slot boundary — the
// snapshot/reset alternative to rebuilding via Build(w.Opts). Together
// these make every measurement a pure function of (world options, slot,
// vantage point), independent of which slots the world ran before:
//
//   - per-slot client hosts deregister (RewindHosts), restoring the
//     netsim registry to its pre-campaign state;
//   - the authority origin log trims back (slot-unique tagged names
//     make old entries unreachable anyway; trimming bounds memory);
//   - the virtual clock jumps (not advances) to the slot's absolute
//     base, so the slot's timeline is identical however the world got
//     here;
//   - the netsim jitter/reliability stream, the fault plan's stream,
//     and the MITM CA serial base re-derive from (seed, slot identity).
func (w *World) beginSlot(cfg *RunConfig, s slotSpec) {
	// Recycle the previous slot's transient packet buffers in O(chunks)
	// and drop the packet-prototype cache that points into them. Nothing
	// a slot reports retains arena bytes (reports hold parsed strings and
	// heap copies), so the reset is invisible to results.
	w.Net.BeginSlot()
	w.Net.RewindHosts(w.hostMark)
	w.Authority.TrimLog(w.authMark)
	w.Net.Clock.Jump(campaignBase + time.Duration(s.order)*cfg.VPSlot)
	w.Net.ResetStream(s.key)
	if w.faults != nil {
		w.faults.Reset(s.key)
	}
	w.Providers[s.provIdx].BeginSlot(s.order)
}

// measureVP measures one vantage point inside its own virtual-time
// slot and takes the slot's fault-counter delta, which the committer
// absorbs only if the slot commits. With a flight recorder attached it
// brackets the measurement with SlotStart/SlotFinish (plus FaultDraws)
// events on the measuring worker and records the slot's exchange and
// raw fault deltas. Works identically for the sequential world and
// parallel worker replicas.
func (w *World) measureVP(cfg *RunConfig, s slotSpec) vpResult {
	fr := cfg.Flight
	virtStart := campaignBase + time.Duration(s.order)*cfg.VPSlot
	var (
		wallStart time.Time
		exchanges int64
	)
	if fr != nil {
		wallStart = time.Now()
		exchanges = w.Net.Exchanges()
	}
	fr.Record(flightrec.Event{
		Kind: flightrec.SlotStart, Worker: w.worker,
		Slot: s.order, Provider: s.provider, VP: s.label, VirtNs: int64(virtStart),
	})
	if h := SlotHook; h != nil {
		h(w.Opts.Seed, s.order)
	}
	var before faultsim.Stats
	if w.faults != nil {
		before = w.faults.Stats()
	}

	out := w.measureSlot(cfg, s)

	if w.faults != nil {
		out.faultDelta = w.faults.Stats().Sub(before)
	}
	if fr != nil {
		outcome := flightrec.OutcomeMeasured
		if out.failure != nil {
			outcome = flightrec.OutcomeFailed
		}
		fr.Record(flightrec.Event{
			Kind: flightrec.SlotFinish, Worker: w.worker,
			Slot: s.order, Provider: s.provider, VP: s.label, Detail: outcome,
			V1: int64(time.Since(wallStart)), V2: int64(out.attempts),
			VirtNs: int64(w.Net.Clock.Now() - virtStart),
		})
		if n := out.faultDelta.Total(); n > 0 {
			fr.Record(flightrec.Event{
				Kind: flightrec.FaultDraws, Worker: w.worker,
				Slot: s.order, Provider: s.provider, V1: int64(n),
			})
		}
		fr.SlotRuntime(w.Net.Exchanges()-exchanges, faultCounts(out.faultDelta))
	}
	return out
}

// faultCounts converts a fault-plan counter delta to the recorder's
// per-kind breakdown.
func faultCounts(d faultsim.Stats) flightrec.FaultCounts {
	return flightrec.FaultCounts{
		Dropped: int64(d.Dropped), Flapped: int64(d.Flapped), Refused: int64(d.Refused),
		Delayed: int64(d.Delayed), Blackouts: int64(d.Blackouts), TunnelResets: int64(d.TunnelResets),
	}
}

// measureSlot is measureVP's measurement body. Client teardown is
// deferred so a suite panic can never leak a connected client onto the
// next slot.
func (w *World) measureSlot(cfg *RunConfig, s slotSpec) vpResult {
	p := w.Providers[s.provIdx]
	vp := p.VPs[s.vpIdx]
	w.beginSlot(cfg, s)
	backoffRNG := simrand.New(w.Opts.Seed).Fork("campaign").Fork(s.key)

	stack, err := w.newClientStackAt(clientSeqBase + s.order)
	if err != nil {
		// A client machine that cannot even be provisioned is a
		// recorded failure, not a campaign abort.
		return vpResult{failure: &ConnectFailure{
			Provider: s.provider, VPLabel: s.label, Err: err.Error(),
		}}
	}
	// Registered before Disconnect's defer so it runs after it: the
	// sinks' record arrays go back to the recycle pool only once the
	// teardown traffic has been captured.
	defer stack.Retire()

	var client *vpn.Client
	attempts := 0
	for attempts < cfg.ConnectAttempts {
		attempts++
		client, err = vpn.Connect(stack, vp)
		if err == nil {
			break
		}
		if attempts == cfg.ConnectAttempts {
			return vpResult{failure: &ConnectFailure{
				Provider: s.provider, VPLabel: s.label, Err: err.Error(), Attempts: attempts,
			}, attempts: attempts}
		}
		// Exponential backoff with jitter, on the virtual clock.
		wait := cfg.BackoffBase << (attempts - 1)
		if wait > cfg.BackoffMax {
			wait = cfg.BackoffMax
		}
		jitter := 0.5 + backoffRNG.Float64()
		backoff := time.Duration(float64(wait) * jitter)
		cfg.Flight.Record(flightrec.Event{
			Kind: flightrec.Retry, Worker: w.worker,
			Slot: s.order, Provider: s.provider, VP: s.label,
			V1: int64(attempts), V2: int64(backoff),
		})
		w.Net.Clock.Advance(backoff)
	}
	var out vpResult
	out.attempts = attempts
	if attempts > 1 {
		out.recovery = &Recovery{Provider: s.provider, VPLabel: s.label, Attempts: attempts}
	}
	defer client.Disconnect()

	opts := vpntest.SuiteOptions{
		CollectCaptures: w.Opts.CollectCaptures,
		TestBudget:      cfg.TestBudget,
		SuiteBudget:     cfg.SuiteBudget,
		Timings:         cfg.Flight != nil,
	}
	if s.vpIdx >= w.Opts.MaxFullSuiteVPs {
		opts.PingOnly = true
	}
	if p.Spec.Client == vpn.ThirdPartyOpenVPN {
		// §6.5: DNS/IPv6 leak and failure tests ran only against
		// providers shipping their own client software.
		opts.SkipLeaks = true
		opts.SkipFailure = true
	}
	env := vpntest.NewEnv(w.Config, w.Baseline, stack, s.provider, s.label, vp.ClaimedCountry)
	env.Client.Intern = &w.dnsIntern
	env.Client.Certs = &w.certCache
	out.report = vpntest.RunSuite(env, opts)
	return out
}

// Run executes the full campaign with default resilience settings: for
// every provider, a fresh client machine per vantage point, the full
// suite on up to MaxFullSuiteVPs vantage points, and the ping-only
// sweep on the rest.
func (w *World) Run() (*Result, error) {
	return w.RunWith(RunConfig{})
}

// RunWith executes the full campaign under cfg. On a Stream error the
// partial Result is returned alongside the error. With cfg.Parallel
// greater than one (the default is GOMAXPROCS) vantage-point slots run
// concurrently on worker world replicas; the returned Result — and the
// streamed outcome sequence — is byte-identical to a sequential run.
func (w *World) RunWith(cfg RunConfig) (*Result, error) {
	cfg.fill()
	return w.runCampaign(cfg, w.campaignSpecs())
}

// RunProvider measures a single provider (used by cmd/vpnaudit).
func (w *World) RunProvider(name string) (*Result, error) {
	return w.RunProviderWith(name, RunConfig{})
}

// RunProviderWith measures a single provider under cfg.
func (w *World) RunProviderWith(name string, cfg RunConfig) (*Result, error) {
	cfg.fill()
	for i, p := range w.Providers {
		if p.Name() == name {
			return w.runCampaign(cfg, w.providerSpecs(i))
		}
	}
	return nil, fmt.Errorf("study: unknown provider %q", name)
}

// runCampaign drives specs through the committer, sequentially or on
// the parallel executor. The parallel path requires more than one
// provider in play: a single-provider campaign (RunProvider, or a
// one-provider world) stays on the primary world so post-Build
// mutations — which worker replicas cannot observe — keep applying.
func (w *World) runCampaign(cfg RunConfig, specs []slotSpec) (*Result, error) {
	if cfg.Resume != nil && cfg.Stream == nil {
		return nil, errors.New("study: RunConfig.Resume requires Stream (resume from the campaign's outcome log)")
	}
	c := newCommitter(&cfg, specRanks(specs))
	schedulable := 0
	multiProvider := false
	for _, s := range specs {
		if c.done[s.key] == outcomeNone {
			schedulable++
		}
		if s.provIdx != specs[0].provIdx {
			multiProvider = true
		}
	}
	// Clamp against schedulable slots, not provider count: with
	// vantage-point sharding every un-resumed slot is independent work.
	workers := cfg.Parallel
	if workers > schedulable {
		workers = schedulable
	}
	if workers < 1 || !multiProvider {
		workers = 1
	}
	cfg.Flight.BeginRun(len(specs), workers)
	if workers > 1 {
		return w.runParallelSlots(specs, c, workers)
	}
	return w.runSequential(specs, c)
}

// runSequential measures every spec in canonical order on the primary
// world, resetting it at each slot boundary, and hands the world's
// scratch bundle back to the pool when it returns. Cancellation is
// checked once per slot: a canceled context stops the campaign before
// the next measurement starts, never mid-slot.
func (w *World) runSequential(specs []slotSpec, c *committer) (*Result, error) {
	w.markCampaign()
	defer w.Net.ReleaseScratch()
	for _, s := range specs {
		if err := c.cfg.canceled(); err != nil {
			return c.finish(), err
		}
		needMeasure, err := c.prepare(s)
		if err != nil {
			return c.finish(), err
		}
		if !needMeasure {
			continue
		}
		out := w.measureVP(c.cfg, s)
		if out.err != nil {
			return c.finish(), out.err
		}
		if err := c.commit(s, out); err != nil {
			return c.finish(), err
		}
	}
	return c.finish(), nil
}
