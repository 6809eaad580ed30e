// Package telemetry is the campaign observability layer: a fixed set of
// atomic counters, bounded virtual-time histograms, and a per-worker
// span tracer that together describe a running study without perturbing
// it.
//
// The package is built around two invariants:
//
//  1. Disabled means free. There is one package-level sink behind an
//     atomic pointer; every record site in the instrumented packages is
//     guarded by `if t := telemetry.Active(); t != nil { ... }`. With no
//     sink installed the guard is a single atomic load and the record
//     path allocates nothing (proved by TestDisabledRecordPathAllocs).
//
//  2. Enabled never changes results. Counters and spans are side
//     channels: nothing in the measurement path branches on them.
//     Deterministic campaign metrics (the `campaign` snapshot section)
//     are recorded by the single committing goroutine in canonical slot
//     order, so they are byte-identical for a given seed/config at any
//     worker count — speculative slots that the parallel executor
//     discards are never counted there. Execution-shape metrics
//     (steals, pool traffic, raw fault draws, wall-clock latencies)
//     live in the separate `runtime` and `wall` sections and are
//     explicitly non-deterministic.
//
// Record paths are allocation-free once a sink is enabled: counters are
// named atomic.Int64 fields (no map lookups), histograms have fixed
// bucket arrays, and span rings are preallocated.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// FaultKind indexes the per-kind fault counters. The order mirrors
// faultsim's injection kinds.
type FaultKind int

const (
	FaultDropped FaultKind = iota
	FaultFlapped
	FaultRefused
	FaultDelayed
	FaultBlackout
	FaultTunnelReset
	NumFaultKinds
)

// Metrics is the fixed counter registry. Every field is a named atomic
// so a record is one atomic add — no map lookup, no allocation, no
// lock. Fields are grouped by snapshot section; see Snapshot for which
// counters are deterministic.
type Metrics struct {
	// Campaign counters — bumped only by the committer, in canonical
	// slot order, so they are deterministic for a given seed/config.
	SlotsDone         atomic.Int64 // slots accounted for (committed, resumed, or quarantine-skipped)
	SlotsCommitted    atomic.Int64 // slots measured this run and committed
	SlotsResumed      atomic.Int64 // slots replayed from a resumed outcome log
	Reports           atomic.Int64 // committed vantage-point reports
	ConnectFailures   atomic.Int64 // committed connect failures
	Recoveries        atomic.Int64 // committed reports that needed >1 connect attempt
	QuarantineTrips   atomic.Int64 // providers quarantined during commit replay
	QuarantineSkipped atomic.Int64 // slots skipped because their provider was quarantined
	Checkpoints       atomic.Int64 // outcomes handed to RunConfig.Stream
	FaultsCommitted   [NumFaultKinds]atomic.Int64

	// Runtime counters — execution-shape data. Valid observations, but
	// dependent on worker interleaving, pool warmth, and speculation;
	// excluded from determinism guarantees.
	Exchanges           atomic.Int64 // netsim packet exchanges
	SerializeBufferGets atomic.Int64 // capture serialize-buffer pool gets
	SerializeBufferNews atomic.Int64 // pool misses (fresh buffer allocated)
	DecoderGets         atomic.Int64 // capture packet-decoder pool gets
	DecoderNews         atomic.Int64 // pool misses (fresh decoder allocated)
	FaultsRaw           [NumFaultKinds]atomic.Int64
	Steals              atomic.Int64 // slots stolen from another worker's deque
	VictimScans         atomic.Int64 // queues inspected while hunting a victim
	StealRescans        atomic.Int64 // victim scans retried after losing a race
	SlotsMeasured       atomic.Int64 // slots measured, including speculative ones later discarded
	SpeculativeDiscards atomic.Int64 // measured slots thrown away because quarantine overtook them
	WorkerWorldBuilds   atomic.Int64 // lazily cloned worker world replicas
	CommitDrains        atomic.Int64 // intake batches the committer pulled (blocking or not)
	CommitBatched       atomic.Int64 // slot results delivered through those batches

	// Wall-clock counters.
	CommitWaitNs atomic.Int64 // time the committer spent blocked on not-yet-delivered slots
}

// RawFault bumps the runtime (execution-shape) counter for one injected
// fault of kind k.
func (m *Metrics) RawFault(k FaultKind) {
	m.FaultsRaw[k].Add(1)
}

// AddCommittedFaults folds one committed slot's absorbed fault delta
// into the deterministic campaign counters.
func (m *Metrics) AddCommittedFaults(dropped, flapped, refused, delayed, blackouts, tunnelResets int64) {
	m.FaultsCommitted[FaultDropped].Add(dropped)
	m.FaultsCommitted[FaultFlapped].Add(flapped)
	m.FaultsCommitted[FaultRefused].Add(refused)
	m.FaultsCommitted[FaultDelayed].Add(delayed)
	m.FaultsCommitted[FaultBlackout].Add(blackouts)
	m.FaultsCommitted[FaultTunnelReset].Add(tunnelResets)
}

// Sink is one enabled telemetry session: the counter registry, the
// shared histograms, and the span tracer rings. A Sink is safe for
// concurrent use by any number of workers plus the committer.
type Sink struct {
	start time.Time // wall-clock origin for spans and rates

	M Metrics

	// Shared histograms. SuiteVirtual and the per-test map are fed by
	// the committer only (deterministic); SlotWall and CheckpointWall
	// (per streamed outcome) are wall-clock.
	SuiteVirtual   Histogram
	SlotWall       Histogram
	CheckpointWall Histogram

	slotsTotal atomic.Int64

	testMu sync.Mutex
	tests  map[string]*Histogram

	trackMu sync.Mutex
	tracks  []*ring
	commits ring
}

// active is the package-level sink. Record sites load it once and skip
// all work when it is nil.
var active atomic.Pointer[Sink]

// Active returns the enabled sink, or nil when telemetry is off. Every
// instrumentation site must nil-check the result.
func Active() *Sink {
	return active.Load()
}

// Enable installs a fresh sink and returns it. Any previously enabled
// sink stops receiving records but stays readable by its holders.
func Enable() *Sink {
	s := &Sink{
		start: time.Now(),
		tests: map[string]*Histogram{},
	}
	s.commits.init()
	active.Store(s)
	return s
}

// Disable removes the package-level sink; record sites go back to the
// single-atomic-load fast path.
func Disable() {
	active.Store(nil)
}

// AddSlotsTotal grows the campaign's expected slot count (used by the
// progress reporter's ETA and the snapshot).
func (s *Sink) AddSlotsTotal(n int) {
	s.slotsTotal.Add(int64(n))
}

// ObserveTest records one committed suite step's virtual-time cost
// under its test name. Called by the committer only, so the resulting
// histograms are deterministic. The first observation of a new test
// name allocates its histogram; subsequent ones do not.
func (s *Sink) ObserveTest(name string, d time.Duration) {
	s.testMu.Lock()
	h := s.tests[name]
	if h == nil {
		h = &Histogram{}
		s.tests[name] = h
	}
	s.testMu.Unlock()
	h.Observe(d)
}
