package flightrec

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"testing"
	"time"
)

// TestRingWrapAndStats: a full ring keeps the newest `capacity` events,
// counts the overwritten ones, and snapshots oldest-first.
func TestRingWrapAndStats(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 20; i++ {
		r.Record(Event{Kind: Commit, Slot: i})
	}
	st := r.Stats()
	if st.Events != 20 || st.Dropped != 12 || st.Capacity != 8 {
		t.Fatalf("Stats = %+v, want events=20 dropped=12 capacity=8", st)
	}
	snap := r.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("Snapshot holds %d events, want 8", len(snap))
	}
	for i, ev := range snap {
		wantSeq := uint64(12 + i)
		if ev.Seq != wantSeq || ev.Slot != 12+i {
			t.Fatalf("snap[%d] = seq %d slot %d, want seq %d slot %d", i, ev.Seq, ev.Slot, wantSeq, 12+i)
		}
	}
}

// TestSpanRingWrapCountsDrops: slot spans are derived from the ring,
// so a wrap drops the spans whose events were overwritten — but never
// the counts. The metrics snapshot still sees every slot and reports
// the drops, and the trace keeps the newest window of spans.
func TestSpanRingWrapCountsDrops(t *testing.T) {
	const capacity, slots = 8, 14
	r := NewRing(capacity)
	r.BeginRun(slots, 1)
	for i := 0; i < slots; i++ {
		r.Record(Event{Kind: SlotStart, Worker: 0, Slot: i, Provider: "p", VP: "vp"})
		r.Record(Event{Kind: SlotFinish, Worker: 0, Slot: i, V1: int64(time.Millisecond)})
		r.Record(Event{Kind: Commit, Worker: -1, Slot: i})
	}
	// 42 events through an 8-slot ring: 34 dropped, and the retained
	// window starts mid-slot, so only complete Start/Finish pairs
	// become spans.
	m := r.Metrics()
	if m.Runtime.EventsDropped != 3*slots-capacity {
		t.Fatalf("events_dropped = %d, want %d", m.Runtime.EventsDropped, 3*slots-capacity)
	}
	if m.Campaign.SlotsCommitted != slots || m.Runtime.SlotsMeasured != slots || m.Wall.SlotWall.Count != slots {
		t.Fatalf("wrap lost counts: committed=%d measured=%d slot wall=%d, want %d each",
			m.Campaign.SlotsCommitted, m.Runtime.SlotsMeasured, m.Wall.SlotWall.Count, slots)
	}
	var buf bytes.Buffer
	if err := r.WriteTraceTo(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var spanSlots []float64
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			spanSlots = append(spanSlots, ev.Args["slot"].(float64))
		}
	}
	// Retained: Finish(11) Commit(11) | Start/Finish/Commit 12 and 13.
	if len(spanSlots) != 2 || spanSlots[0] != 12 || spanSlots[1] != 13 {
		t.Fatalf("trace after wrap holds spans for slots %v, want [12 13]", spanSlots)
	}
}

// TestRingDefaultCapacity: non-positive capacities fall back to
// DefaultEvents.
func TestRingDefaultCapacity(t *testing.T) {
	for _, c := range []int{0, -5} {
		if got := NewRing(c).Stats().Capacity; got != DefaultEvents {
			t.Fatalf("NewRing(%d) capacity = %d, want %d", c, got, DefaultEvents)
		}
	}
}

// TestNilRingInert: every method of a nil *Ring is a safe no-op — the
// contract that lets record sites skip nil checks.
func TestNilRingInert(t *testing.T) {
	var r *Ring
	r.Record(Event{Kind: SlotStart, Worker: 3})
	r.BeginRun(4, 4)
	r.CommitFacts(FaultCounts{Dropped: 1}, true)
	r.ObserveSuite(time.Second)
	r.ObserveTest("geo", time.Second)
	r.SlotRuntime(1, FaultCounts{Dropped: 1})
	r.SchedulerScans(1, 1)
	r.WorkerWorldBuilt()
	r.CommitDrain(1)
	r.StartProgress(io.Discard, time.Hour)()
	if r.Metrics() != nil {
		t.Fatal("nil ring Metrics != nil")
	}
	if st := r.Stats(); st != (Stats{}) {
		t.Fatalf("nil ring Stats = %+v, want zero", st)
	}
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil ring Snapshot = %v, want nil", snap)
	}
	if got := r.ActiveSlots(nil); got != nil {
		t.Fatalf("nil ring ActiveSlots = %v, want nil", got)
	}
	if f, c := r.Liveness(); !f.IsZero() || !c.IsZero() {
		t.Fatal("nil ring Liveness returned non-zero stamps")
	}
	if r.SlotWall() != nil {
		t.Fatal("nil ring SlotWall != nil")
	}
	var buf bytes.Buffer
	if err := r.WriteNDJSON(&buf, DumpMeta{Reason: "test"}); err != nil {
		t.Fatalf("nil ring WriteNDJSON: %v", err)
	}
	var hdr map[string]any
	if err := json.Unmarshal(buf.Bytes(), &hdr); err != nil {
		t.Fatalf("nil ring dump is not one JSON line: %v", err)
	}
	if hdr["schema"] != SchemaVersion {
		t.Fatalf("nil ring dump schema = %v", hdr["schema"])
	}
}

// TestActiveSlots: SlotStart marks a worker's slot in flight,
// SlotFinish clears it, and the dst buffer is append-reused.
func TestActiveSlots(t *testing.T) {
	r := NewRing(16)
	r.BeginRun(4, 3)
	r.Record(Event{Kind: SlotStart, Worker: 0, Slot: 10, Provider: "Mullvad", VP: "se-1"})
	r.Record(Event{Kind: SlotStart, Worker: 2, Slot: 11, Provider: "NordVPN", VP: "us-3"})
	got := r.ActiveSlots(nil)
	if len(got) != 2 {
		t.Fatalf("ActiveSlots = %d entries, want 2", len(got))
	}
	if got[0].Worker != 0 || got[0].Slot != 10 || got[0].Provider != "Mullvad" || got[0].VP != "se-1" {
		t.Fatalf("ActiveSlots[0] = %+v", got[0])
	}
	if got[0].Start.IsZero() {
		t.Fatal("active slot has a zero start time")
	}

	r.Record(Event{Kind: SlotFinish, Worker: 0, Slot: 10, V1: int64(5 * time.Millisecond)})
	got = r.ActiveSlots(got[:0])
	if len(got) != 1 || got[0].Worker != 2 {
		t.Fatalf("after finish, ActiveSlots = %+v, want only worker 2", got)
	}

	// Worker indices beyond the run's worker count record without
	// corrupting the table.
	r.Record(Event{Kind: SlotStart, Worker: 5, Slot: 99})
	if got = r.ActiveSlots(got[:0]); len(got) != 1 {
		t.Fatalf("out-of-range worker index leaked into active table: %+v", got)
	}
}

// TestActiveSlotsManyWorkers: the active table is sized from the run's
// worker count, so a daemon campaign wider than any fixed bound (here
// 96 workers) keeps every worker's in-flight slot visible to the
// watchdog.
func TestActiveSlotsManyWorkers(t *testing.T) {
	const workers = 96
	r := NewRing(1024)
	r.BeginRun(workers, workers)
	for w := 0; w < workers; w++ {
		r.Record(Event{Kind: SlotStart, Worker: w, Slot: 1000 + w})
	}
	got := r.ActiveSlots(nil)
	if len(got) != workers {
		t.Fatalf("ActiveSlots = %d entries, want %d", len(got), workers)
	}
	if a := got[80]; a.Worker != 80 || a.Slot != 1080 {
		t.Fatalf("worker 80's active slot = %+v", a)
	}
	r.Record(Event{Kind: SlotFinish, Worker: 80, Slot: 1080})
	if got = r.ActiveSlots(got[:0]); len(got) != workers-1 {
		t.Fatalf("after worker 80 finished, ActiveSlots = %d entries, want %d", len(got), workers-1)
	}
}

// TestLivenessAndSlotWall: SlotFinish advances the finish stamp and
// feeds the wall histogram; committer kinds advance the commit stamp.
func TestLivenessAndSlotWall(t *testing.T) {
	r := NewRing(16)
	if f, c := r.Liveness(); !f.IsZero() || !c.IsZero() {
		t.Fatal("fresh ring has non-zero liveness stamps")
	}
	r.Record(Event{Kind: SlotFinish, Worker: 0, V1: int64(3 * time.Millisecond)})
	f1, c1 := r.Liveness()
	if f1.IsZero() || !c1.IsZero() {
		t.Fatalf("after finish: lastFinish=%v lastCommit=%v", f1, c1)
	}
	r.Record(Event{Kind: Commit, Worker: -1, Slot: 0})
	if _, c2 := r.Liveness(); c2.IsZero() {
		t.Fatal("Commit did not advance the committer stamp")
	}
	for _, k := range []Kind{Checkpoint, CommitWait, SlotResume, QuarantineSkip, SlotDiscard} {
		_, before := r.Liveness()
		r.Record(Event{Kind: k, Worker: -1})
		if _, c := r.Liveness(); c.Before(before) {
			t.Fatalf("%v did not count as committer liveness", k)
		}
	}
	if n := r.SlotWall().Count(); n != 1 {
		t.Fatalf("slot wall histogram count = %d, want 1", n)
	}
}

// TestWriteNDJSON: a dump is a well-formed header line plus one JSON
// line per retained event, oldest first, with stable kind names.
func TestWriteNDJSON(t *testing.T) {
	r := NewRing(4)
	r.Record(Event{Kind: SlotStart, Worker: 1, Slot: 7, Provider: "Avira", VP: "de-2"})
	r.Record(Event{Kind: Retry, Worker: 1, Slot: 7, V1: 1, V2: int64(time.Second)})
	r.Record(Event{Kind: SlotFinish, Worker: 1, Slot: 7, Detail: "measured", V1: int64(time.Millisecond), V2: 2})
	r.Record(Event{Kind: Commit, Worker: -1, Slot: 7, Detail: "measured"})
	r.Record(Event{Kind: Checkpoint, Worker: -1, Detail: "checkpoint", V1: int64(time.Millisecond)})

	var buf bytes.Buffer
	if err := r.WriteNDJSON(&buf, DumpMeta{Campaign: "c1", Reason: "on-demand"}); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("empty dump")
	}
	var hdr struct {
		Schema   string `json:"schema"`
		Campaign string `json:"campaign"`
		Reason   string `json:"reason"`
		Events   uint64 `json:"events"`
		Dropped  uint64 `json:"dropped"`
		Capacity int    `json:"capacity"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("header line: %v", err)
	}
	if hdr.Schema != SchemaVersion || hdr.Campaign != "c1" || hdr.Reason != "on-demand" {
		t.Fatalf("header = %+v", hdr)
	}
	if hdr.Events != 5 || hdr.Dropped != 1 || hdr.Capacity != 4 {
		t.Fatalf("header accounting = %+v, want events=5 dropped=1 capacity=4", hdr)
	}
	var kinds []string
	lastSeq := int64(-1)
	for sc.Scan() {
		var ev struct {
			Seq  int64  `json:"seq"`
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line %q: %v", sc.Text(), err)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("events out of order: seq %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		kinds = append(kinds, ev.Kind)
	}
	want := []string{"retry", "slot_finish", "commit", "checkpoint"}
	if len(kinds) != len(want) {
		t.Fatalf("dump holds %d events (%v), want %d", len(kinds), kinds, len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
}

// TestRecordZeroAlloc is the hot-path contract: recording allocates
// nothing, enabled or nil.
func TestRecordZeroAlloc(t *testing.T) {
	r := NewRing(64)
	r.BeginRun(4, 2)
	ev := Event{Kind: SlotFinish, Worker: 1, Slot: 3, Provider: "Mullvad", VP: "se-1",
		Detail: OutcomeMeasured, V1: int64(time.Millisecond), V2: 2}
	if allocs := testing.AllocsPerRun(200, func() { r.Record(ev) }); allocs > 0 {
		t.Fatalf("Record allocates %.1f objects per op on a live ring, ceiling is 0", allocs)
	}
	var nilRing *Ring
	if allocs := testing.AllocsPerRun(200, func() { nilRing.Record(ev) }); allocs > 0 {
		t.Fatalf("Record allocates %.1f objects per op on a nil ring, ceiling is 0", allocs)
	}
	var dst []ActiveSlot
	r.Record(Event{Kind: SlotStart, Worker: 0, Slot: 1})
	dst = r.ActiveSlots(dst[:0])
	if allocs := testing.AllocsPerRun(200, func() { dst = r.ActiveSlots(dst[:0]) }); allocs > 0 {
		t.Fatalf("ActiveSlots with a reused buffer allocates %.1f objects per op", allocs)
	}
}

// recordFacts drives every record path an instrumented run uses: the
// event itself plus each explicit fact method.
func recordFacts(r *Ring, ev Event) func() {
	return func() {
		r.Record(ev)
		r.CommitFacts(FaultCounts{Dropped: 1}, true)
		r.ObserveSuite(time.Minute)
		r.ObserveTest("geo", time.Millisecond)
		r.SlotRuntime(10, FaultCounts{Delayed: 1})
		r.SchedulerScans(2, 1)
		r.WorkerWorldBuilt()
		r.CommitDrain(3)
	}
}

// TestDisabledRecordPathAllocs: with recording off the ring is nil, and
// every record site — event and fact methods alike — must cost zero
// allocations, so an uninstrumented run pays nothing.
func TestDisabledRecordPathAllocs(t *testing.T) {
	ev := Event{Kind: SlotFinish, Worker: 1, Slot: 3, Detail: OutcomeMeasured, V1: int64(time.Millisecond)}
	if allocs := testing.AllocsPerRun(1000, recordFacts(nil, ev)); allocs != 0 {
		t.Fatalf("disabled record path allocates %.1f objects per op, want 0", allocs)
	}
}

// TestEnabledRecordPathAllocs: on a live ring the same record sites —
// counters, fault breakdowns, histograms, a per-test observe of a
// known name — are allocation-free too.
func TestEnabledRecordPathAllocs(t *testing.T) {
	r := NewRing(64)
	r.BeginRun(4, 2)
	r.ObserveTest("geo", time.Millisecond) // allocate the histogram once
	ev := Event{Kind: SlotFinish, Worker: 1, Slot: 3, Provider: "Mullvad", VP: "se-1",
		Detail: OutcomeMeasured, V1: int64(time.Millisecond), V2: 2}
	if allocs := testing.AllocsPerRun(1000, recordFacts(r, ev)); allocs != 0 {
		t.Fatalf("enabled record path allocates %.1f objects per op, want 0", allocs)
	}
	if m := r.Metrics(); m.Runtime.Exchanges == 0 || m.Campaign.Recoveries == 0 {
		t.Fatalf("fact methods recorded nothing: exchanges=%d recoveries=%d",
			m.Runtime.Exchanges, m.Campaign.Recoveries)
	}
}

// TestConcurrentUse hammers the ring from recorders and readers at
// once; run under -race this is the ring's data-race proof.
func TestConcurrentUse(t *testing.T) {
	r := NewRing(128)
	r.BeginRun(1000, 4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Record(Event{Kind: SlotStart, Worker: w, Slot: i})
				r.Record(Event{Kind: SlotFinish, Worker: w, Slot: i, V1: int64(time.Microsecond)})
			}
		}(w)
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst []ActiveSlot
			for j := 0; j < 200; j++ {
				r.Stats()
				r.Snapshot()
				dst = r.ActiveSlots(dst[:0])
				r.Liveness()
				r.WriteNDJSON(&bytes.Buffer{}, DumpMeta{Reason: "race"})
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if r.Stats().Events == 0 {
		t.Fatal("hammer recorded nothing")
	}
}

// TestConcurrentRecordingAndSnapshot records facts from every worker
// while readers take metrics, fleet sums, traces and progress lines;
// under -race it proves the derived views are data-race free, and the
// final counts prove no concurrent record was lost.
func TestConcurrentRecordingAndSnapshot(t *testing.T) {
	const workers, perWorker = 8, 500
	r := NewRing(128)
	r.BeginRun(workers*perWorker, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Record(Event{Kind: SlotStart, Worker: w, Slot: i})
				r.Record(Event{Kind: SlotFinish, Worker: w, Slot: i, V1: int64(i) * int64(time.Microsecond)})
				r.SlotRuntime(1, FaultCounts{Dropped: 1})
				r.ObserveTest("ping", time.Millisecond)
				if i%100 == 0 {
					r.Record(Event{Kind: Checkpoint, Worker: -1, V1: int64(time.Microsecond)})
				}
			}
		}(w)
	}
	stopProgress := r.StartProgress(io.Discard, time.Millisecond)
	for i := 0; i < 10; i++ {
		r.Metrics()
		Sum(r)
		r.SlotWall().Quantile(0.99)
		r.WriteTraceTo(io.Discard)
	}
	wg.Wait()
	stopProgress()

	m := r.Metrics()
	const total = workers * perWorker
	if m.Runtime.Exchanges != total || m.Runtime.FaultsRaw.Dropped != total {
		t.Fatalf("exchanges=%d raw dropped=%d, want %d each", m.Runtime.Exchanges, m.Runtime.FaultsRaw.Dropped, total)
	}
	if m.Wall.SlotWall.Count != total || m.Campaign.TestVirtual["ping"].Count != total {
		t.Fatalf("slot wall count=%d ping count=%d, want %d each",
			m.Wall.SlotWall.Count, m.Campaign.TestVirtual["ping"].Count, total)
	}
	if want := int64(workers * perWorker / 100); m.Campaign.Checkpoints != want {
		t.Fatalf("checkpoints = %d, want %d", m.Campaign.Checkpoints, want)
	}
}
