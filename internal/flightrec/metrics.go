package flightrec

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// MetricsSchema identifies the metrics snapshot layout. Bump it
// whenever a field is renamed, removed, or changes meaning.
const MetricsSchema = "vpnscope-telemetry/2"

// counter indexes a ring's plain event and fact counters.
type counter int

const (
	// Campaign counters, fed by the committer in canonical slot order.
	nSlotsTotal counter = iota
	nSlotsDone
	nSlotsCommitted
	nSlotsResumed
	nReports
	nConnectFailures
	nRecoveries
	nQuarantineTrips
	nQuarantineSkipped
	nCheckpoints
	// Runtime counters: execution shape.
	nExchanges
	nSteals
	nVictimScans
	nStealRescans
	nSlotsMeasured
	nSpeculativeDiscards
	nWorkerWorldBuilds
	nCommitDrains
	nCommitBatched
	nCommitWaitNs
	numCounters
)

// tally is everything a ring counts: the counters, the committed and
// raw fault breakdowns, and the duration histograms. Counters and the
// test map are guarded by the ring's mutex; histograms are atomic so
// the watchdog can read the slot wall p99 without the lock.
type tally struct {
	c                          [numCounters]int64
	faultsCommitted, faultsRaw FaultCounts

	suiteVirtual   Histogram // committed reports' suite virtual time
	slotWall       Histogram // wall time per measured slot
	checkpointWall Histogram // wall time per streamed outcome
	tests          map[string]*Histogram
}

// committer updates the counters a committer event implies.
func (t *tally) committer(ev *Event) {
	switch ev.Kind {
	case Commit:
		t.c[nSlotsDone]++
		t.c[nSlotsCommitted]++
		if ev.Detail == OutcomeFailed {
			t.c[nConnectFailures]++
		} else {
			t.c[nReports]++
		}
	case SlotResume:
		t.c[nSlotsDone]++
		t.c[nSlotsResumed]++
	case QuarantineSkip:
		t.c[nSlotsDone]++
		t.c[nQuarantineSkipped]++
	case SlotDiscard:
		t.c[nSpeculativeDiscards]++
	case CommitWait:
		t.c[nCommitWaitNs] += ev.V1
	case Checkpoint:
		t.c[nCheckpoints]++
		t.checkpointWall.Observe(time.Duration(ev.V1))
	}
}

// add folds o into t.
func (t *tally) add(o *tally) {
	for i := range t.c {
		t.c[i] += o.c[i]
	}
	t.faultsCommitted.add(o.faultsCommitted)
	t.faultsRaw.add(o.faultsRaw)
	t.suiteVirtual.Add(&o.suiteVirtual)
	t.slotWall.Add(&o.slotWall)
	t.checkpointWall.Add(&o.checkpointWall)
	for name, h := range o.tests {
		if t.tests == nil {
			t.tests = map[string]*Histogram{}
		}
		if t.tests[name] == nil {
			t.tests[name] = &Histogram{}
		}
		t.tests[name].Add(h)
	}
}

// FaultCounts breaks fault-injection events down by kind.
type FaultCounts struct {
	Dropped      int64 `json:"dropped"`
	Flapped      int64 `json:"flapped"`
	Refused      int64 `json:"refused"`
	Delayed      int64 `json:"delayed"`
	Blackouts    int64 `json:"blackouts"`
	TunnelResets int64 `json:"tunnel_resets"`
}

func (f *FaultCounts) add(o FaultCounts) {
	f.Dropped += o.Dropped
	f.Flapped += o.Flapped
	f.Refused += o.Refused
	f.Delayed += o.Delayed
	f.Blackouts += o.Blackouts
	f.TunnelResets += o.TunnelResets
}

// Total is the number of faults of any kind.
func (f FaultCounts) Total() int64 {
	return f.Dropped + f.Flapped + f.Refused + f.Delayed + f.Blackouts + f.TunnelResets
}

// CampaignSnapshot is the deterministic section: every field is a pure
// function of seed + configuration because it is recorded by the
// committer in canonical slot order. Two runs with identical seeds emit
// identical CampaignSnapshots at any worker count.
type CampaignSnapshot struct {
	SlotsTotal        int64                        `json:"slots_total"`
	SlotsDone         int64                        `json:"slots_done"`
	SlotsCommitted    int64                        `json:"slots_committed"`
	SlotsResumed      int64                        `json:"slots_resumed"`
	Reports           int64                        `json:"reports"`
	ConnectFailures   int64                        `json:"connect_failures"`
	Recoveries        int64                        `json:"recoveries"`
	QuarantineTrips   int64                        `json:"quarantine_trips"`
	QuarantineSkipped int64                        `json:"quarantine_skipped"`
	Checkpoints       int64                        `json:"checkpoints"`
	Faults            FaultCounts                  `json:"faults_committed"`
	SuiteVirtual      HistogramSnapshot            `json:"suite_virtual_ms"`
	TestVirtual       map[string]HistogramSnapshot `json:"test_virtual_ms,omitempty"`
}

// RuntimeSnapshot is the execution-shape section: counters that depend
// on worker interleaving and speculation. Useful for diagnosing the
// executor, meaningless to diff across runs.
type RuntimeSnapshot struct {
	Exchanges           int64       `json:"exchanges"`
	FaultsRaw           FaultCounts `json:"faults_raw"`
	Steals              int64       `json:"steals"`
	VictimScans         int64       `json:"victim_scans"`
	StealRescans        int64       `json:"steal_rescans"`
	SlotsMeasured       int64       `json:"slots_measured"`
	SpeculativeDiscards int64       `json:"speculative_discards"`
	WorkerWorldBuilds   int64       `json:"worker_world_builds"`
	// EventsDropped counts ring-wrap drops: nonzero means the event
	// trail (and the trace derived from it) has lost its head.
	EventsDropped uint64 `json:"events_dropped"`
	// Committer-pipeline shape: batches drained, results carried in
	// them, and how long the committer sat blocked on undelivered slots
	// (also surfaced under wall as commit_wait_ms — here so the
	// executor-shape section answers the committer-bottleneck question
	// on its own).
	CommitDrains  int64   `json:"commit_drains"`
	CommitBatched int64   `json:"commit_batched"`
	CommitWaitMs  float64 `json:"commit_wait_ms"`
}

// WallSnapshot is the wall-clock section: how long things took on the
// host, as opposed to in virtual time.
type WallSnapshot struct {
	ElapsedMs      float64           `json:"elapsed_ms"`
	CommitWaitMs   float64           `json:"commit_wait_ms"`
	SlotWall       HistogramSnapshot `json:"slot_wall_ms"`
	CheckpointWall HistogramSnapshot `json:"checkpoint_wall_ms"`
}

// Metrics is the full schema-versioned metrics snapshot written by
// `-metrics out.json` and served by the daemon's metricsz endpoints.
// Only the `campaign` section is deterministic; `runtime` and `wall`
// describe the particular execution.
type Metrics struct {
	Schema   string           `json:"schema"`
	Campaign CampaignSnapshot `json:"campaign"`
	Runtime  RuntimeSnapshot  `json:"runtime"`
	Wall     WallSnapshot     `json:"wall"`
}

// Metrics captures the ring's counters and histograms (nil for a nil
// ring). Take it after the campaign finishes for stable values.
func (r *Ring) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.t.metrics(time.Since(r.start), r.statsLocked().Dropped)
}

// Sum is the fleet view of several campaigns: one snapshot totalling
// every ring's counters and histograms. Nil rings are skipped; elapsed
// runs from the oldest ring's creation.
func Sum(rings ...*Ring) *Metrics {
	var (
		total   tally
		elapsed time.Duration
		dropped uint64
	)
	for _, r := range rings {
		if r == nil {
			continue
		}
		r.mu.Lock()
		total.add(&r.t)
		dropped += r.statsLocked().Dropped
		if e := time.Since(r.start); e > elapsed {
			elapsed = e
		}
		r.mu.Unlock()
	}
	return total.metrics(elapsed, dropped)
}

// metrics renders the tally; the caller holds whatever lock guards it.
func (t *tally) metrics(elapsed time.Duration, dropped uint64) *Metrics {
	var tests map[string]HistogramSnapshot
	if len(t.tests) > 0 {
		tests = make(map[string]HistogramSnapshot, len(t.tests))
		for name, h := range t.tests {
			tests[name] = h.Snapshot()
		}
	}
	c := &t.c
	commitWaitMs := float64(c[nCommitWaitNs]) / float64(time.Millisecond)
	return &Metrics{
		Schema: MetricsSchema,
		Campaign: CampaignSnapshot{
			SlotsTotal:        c[nSlotsTotal],
			SlotsDone:         c[nSlotsDone],
			SlotsCommitted:    c[nSlotsCommitted],
			SlotsResumed:      c[nSlotsResumed],
			Reports:           c[nReports],
			ConnectFailures:   c[nConnectFailures],
			Recoveries:        c[nRecoveries],
			QuarantineTrips:   c[nQuarantineTrips],
			QuarantineSkipped: c[nQuarantineSkipped],
			Checkpoints:       c[nCheckpoints],
			Faults:            t.faultsCommitted,
			SuiteVirtual:      t.suiteVirtual.Snapshot(),
			TestVirtual:       tests,
		},
		Runtime: RuntimeSnapshot{
			Exchanges:           c[nExchanges],
			FaultsRaw:           t.faultsRaw,
			Steals:              c[nSteals],
			VictimScans:         c[nVictimScans],
			StealRescans:        c[nStealRescans],
			SlotsMeasured:       c[nSlotsMeasured],
			SpeculativeDiscards: c[nSpeculativeDiscards],
			WorkerWorldBuilds:   c[nWorkerWorldBuilds],
			EventsDropped:       dropped,
			CommitDrains:        c[nCommitDrains],
			CommitBatched:       c[nCommitBatched],
			CommitWaitMs:        commitWaitMs,
		},
		Wall: WallSnapshot{
			ElapsedMs:      float64(elapsed) / float64(time.Millisecond),
			CommitWaitMs:   commitWaitMs,
			SlotWall:       t.slotWall.Snapshot(),
			CheckpointWall: t.checkpointWall.Snapshot(),
		},
	}
}

// WriteMetricsTo serializes the ring's current snapshot as indented
// JSON (map keys sort, so the deterministic section diffs cleanly).
func (r *Ring) WriteMetricsTo(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Metrics())
}

// WriteFiles writes the metrics snapshot to metricsPath and the Chrome
// trace to tracePath, skipping an empty path. Every file is attempted;
// the first error is returned.
func (r *Ring) WriteFiles(metricsPath, tracePath string) error {
	var first error
	write := func(path string, fn func(io.Writer) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err == nil {
			err = fn(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil && first == nil {
			first = fmt.Errorf("writing %s: %w", path, err)
		}
	}
	write(metricsPath, r.WriteMetricsTo)
	write(tracePath, r.WriteTraceTo)
	return first
}
