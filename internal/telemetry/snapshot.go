package telemetry

import (
	"encoding/json"
	"io"
	"time"
)

// SchemaVersion identifies the snapshot layout. Bump it whenever a
// field is renamed, removed, or changes meaning.
const SchemaVersion = "vpnscope-telemetry/1"

// FaultCounts breaks fault-injection events down by kind.
type FaultCounts struct {
	Dropped      int64 `json:"dropped"`
	Flapped      int64 `json:"flapped"`
	Refused      int64 `json:"refused"`
	Delayed      int64 `json:"delayed"`
	Blackouts    int64 `json:"blackouts"`
	TunnelResets int64 `json:"tunnel_resets"`
}

func faultCounts(a *[NumFaultKinds]int64) FaultCounts {
	return FaultCounts{
		Dropped:      a[FaultDropped],
		Flapped:      a[FaultFlapped],
		Refused:      a[FaultRefused],
		Delayed:      a[FaultDelayed],
		Blackouts:    a[FaultBlackout],
		TunnelResets: a[FaultTunnelReset],
	}
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
// on worker interleaving, pool warmth, and speculation. Useful for
// diagnosing the executor, meaningless to diff across runs.
type RuntimeSnapshot struct {
	Exchanges           int64       `json:"exchanges"`
	SerializeBufferGets int64       `json:"serialize_buffer_gets"`
	SerializeBufferNews int64       `json:"serialize_buffer_news"`
	DecoderGets         int64       `json:"decoder_gets"`
	DecoderNews         int64       `json:"decoder_news"`
	FaultsRaw           FaultCounts `json:"faults_raw"`
	Steals              int64       `json:"steals"`
	VictimScans         int64       `json:"victim_scans"`
	StealRescans        int64       `json:"steal_rescans"`
	SlotsMeasured       int64       `json:"slots_measured"`
	SpeculativeDiscards int64       `json:"speculative_discards"`
	WorkerWorldBuilds   int64       `json:"worker_world_builds"`
	SpansDropped        int64       `json:"spans_dropped"`
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

// Snapshot is the full schema-versioned metrics dump written by
// `-metrics out.json`. Only the `campaign` section is deterministic;
// `runtime` and `wall` describe the particular execution.
type Snapshot struct {
	Schema   string           `json:"schema"`
	Campaign CampaignSnapshot `json:"campaign"`
	Runtime  RuntimeSnapshot  `json:"runtime"`
	Wall     WallSnapshot     `json:"wall"`
}

// Snapshot captures the sink's current state. Take it after the
// campaign finishes for stable values.
func (s *Sink) Snapshot() *Snapshot {
	m := &s.M
	var committed, raw [NumFaultKinds]int64
	for k := FaultKind(0); k < NumFaultKinds; k++ {
		committed[k] = m.FaultsCommitted[k].Load()
		raw[k] = m.FaultsRaw[k].Load()
	}

	s.testMu.Lock()
	tests := make(map[string]HistogramSnapshot, len(s.tests))
	for name, h := range s.tests {
		tests[name] = h.Snapshot()
	}
	s.testMu.Unlock()
	if len(tests) == 0 {
		tests = nil
	}

	return &Snapshot{
		Schema: SchemaVersion,
		Campaign: CampaignSnapshot{
			SlotsTotal:        s.slotsTotal.Load(),
			SlotsDone:         m.SlotsDone.Load(),
			SlotsCommitted:    m.SlotsCommitted.Load(),
			SlotsResumed:      m.SlotsResumed.Load(),
			Reports:           m.Reports.Load(),
			ConnectFailures:   m.ConnectFailures.Load(),
			Recoveries:        m.Recoveries.Load(),
			QuarantineTrips:   m.QuarantineTrips.Load(),
			QuarantineSkipped: m.QuarantineSkipped.Load(),
			Checkpoints:       m.Checkpoints.Load(),
			Faults:            faultCounts(&committed),
			SuiteVirtual:      s.SuiteVirtual.Snapshot(),
			TestVirtual:       tests,
		},
		Runtime: RuntimeSnapshot{
			Exchanges:           m.Exchanges.Load(),
			SerializeBufferGets: m.SerializeBufferGets.Load(),
			SerializeBufferNews: m.SerializeBufferNews.Load(),
			DecoderGets:         m.DecoderGets.Load(),
			DecoderNews:         m.DecoderNews.Load(),
			FaultsRaw:           faultCounts(&raw),
			Steals:              m.Steals.Load(),
			VictimScans:         m.VictimScans.Load(),
			StealRescans:        m.StealRescans.Load(),
			SlotsMeasured:       m.SlotsMeasured.Load(),
			SpeculativeDiscards: m.SpeculativeDiscards.Load(),
			WorkerWorldBuilds:   m.WorkerWorldBuilds.Load(),
			SpansDropped:        s.spansDropped(),
			CommitDrains:        m.CommitDrains.Load(),
			CommitBatched:       m.CommitBatched.Load(),
			CommitWaitMs:        float64(m.CommitWaitNs.Load()) / float64(time.Millisecond),
		},
		Wall: WallSnapshot{
			ElapsedMs:      float64(time.Since(s.start)) / float64(time.Millisecond),
			CommitWaitMs:   float64(m.CommitWaitNs.Load()) / float64(time.Millisecond),
			SlotWall:       s.SlotWall.Snapshot(),
			CheckpointWall: s.CheckpointWall.Snapshot(),
		},
	}
}

// WriteMetricsTo serializes the current snapshot as indented JSON
// (map keys sort, so the deterministic section diffs cleanly).
func (s *Sink) WriteMetricsTo(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Snapshot())
}
