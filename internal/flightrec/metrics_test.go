package flightrec

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestTraceEventFormat: slot spans are derived from SlotStart/
// SlotFinish pairs on their worker's track, annotated from the
// worker's SlotSteal and FaultDraws events; stream writes land on the
// committer track after the worker tracks.
func TestTraceEventFormat(t *testing.T) {
	r := NewRing(64)
	r.BeginRun(8, 2)
	r.Record(Event{Kind: SlotSteal, Worker: 1, Slot: 7, V1: 0})
	r.Record(Event{Kind: SlotStart, Worker: 1, Slot: 7, Provider: "NordVPN", VP: "us1.nordvpn.com (US)",
		VirtNs: int64(time.Hour)})
	r.Record(Event{Kind: SlotFinish, Worker: 1, Slot: 7, Detail: OutcomeMeasured,
		V1: int64(2 * time.Millisecond), V2: 2, VirtNs: int64(45 * time.Minute)})
	r.Record(Event{Kind: FaultDraws, Worker: 1, Slot: 7, V1: 3})
	r.Record(Event{Kind: Commit, Worker: -1, Slot: 7, Detail: OutcomeMeasured})
	r.Record(Event{Kind: Checkpoint, Worker: -1, Slot: 7, Detail: "stream", V1: int64(time.Millisecond)})
	r.Record(Event{Kind: SlotStart, Worker: 0, Slot: 8}) // in flight: no span

	var buf bytes.Buffer
	if err := r.WriteTraceTo(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}
	var slots, streams int
	var workerMeta, committerMeta bool
	for _, ev := range tf.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Args["name"] == "worker 1":
			workerMeta = true
		case ev.Ph == "M" && ev.Args["name"] == "committer":
			committerMeta = true
		case ev.Ph == "M":
			t.Fatalf("unexpected track %v", ev.Args["name"])
		case ev.Ph == "X" && ev.Name == "NordVPN · us1.nordvpn.com (US)":
			slots++
			if ev.Tid != 1 {
				t.Fatalf("slot span on tid %d, want 1", ev.Tid)
			}
			if ev.Ts <= 0 || ev.Dur != 2000 {
				t.Fatalf("span ts/dur = %v/%v µs, want >0/2000", ev.Ts, ev.Dur)
			}
			if ev.Args["virtual_start_ms"] != float64(time.Hour/time.Millisecond) ||
				ev.Args["virtual_ms"] != float64(45*time.Minute/time.Millisecond) {
				t.Fatalf("virtual window = %v+%v", ev.Args["virtual_start_ms"], ev.Args["virtual_ms"])
			}
			if ev.Args["stolen_from"] != float64(0) || ev.Args["attempts"] != float64(2) ||
				ev.Args["faults"] != float64(3) || ev.Args["outcome"] != OutcomeMeasured {
				t.Fatalf("span args wrong: %+v", ev.Args)
			}
			for _, k := range []string{"slot", "provider", "vp"} {
				if _, ok := ev.Args[k]; !ok {
					t.Fatalf("span args missing %s: %+v", k, ev.Args)
				}
			}
		case ev.Ph == "X" && ev.Name == "stream":
			streams++
			if ev.Tid != 2 {
				t.Fatalf("stream span on tid %d, want 2 (after 2 worker tracks)", ev.Tid)
			}
		default:
			t.Fatalf("unexpected trace event %+v", ev)
		}
	}
	if slots != 1 || streams != 1 || !workerMeta || !committerMeta {
		t.Fatalf("trace events: slots=%d streams=%d workerMeta=%v committerMeta=%v",
			slots, streams, workerMeta, committerMeta)
	}
}

// TestSnapshotSchemaAndSections: events and explicit facts land in the
// right snapshot sections.
func TestSnapshotSchemaAndSections(t *testing.T) {
	r := NewRing(64)
	r.BeginRun(10, 1)
	for i := 0; i < 3; i++ {
		r.Record(Event{Kind: Commit, Slot: i, Detail: OutcomeMeasured})
	}
	r.Record(Event{Kind: Commit, Slot: 3, Detail: OutcomeFailed})
	r.CommitFacts(FaultCounts{1, 2, 3, 4, 5, 6}, true)
	r.SlotRuntime(7, FaultCounts{Flapped: 1})
	r.ObserveTest("geo", 2*time.Second)
	r.ObserveSuite(40 * time.Minute)

	var buf bytes.Buffer
	if err := r.WriteMetricsTo(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Metrics
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v", err)
	}
	if snap.Schema != MetricsSchema {
		t.Fatalf("schema = %q, want %q", snap.Schema, MetricsSchema)
	}
	c := snap.Campaign
	if c.SlotsTotal != 10 || c.SlotsDone != 4 || c.Reports != 3 || c.ConnectFailures != 1 || c.Recoveries != 1 {
		t.Fatalf("campaign counters = %+v", c)
	}
	if c.Faults != (FaultCounts{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("committed faults = %+v", c.Faults)
	}
	if snap.Runtime.FaultsRaw.Flapped != 1 || snap.Runtime.Exchanges != 7 {
		t.Fatalf("runtime = %+v", snap.Runtime)
	}
	if h, ok := c.TestVirtual["geo"]; !ok || h.Count != 1 {
		t.Fatalf("test_virtual_ms missing geo: %+v", c.TestVirtual)
	}
	if c.SuiteVirtual.Count != 1 {
		t.Fatalf("suite_virtual_ms count = %d", c.SuiteVirtual.Count)
	}

	// The fleet view is the sum of its rings.
	sum := Sum(r, nil, r)
	if sum.Campaign.SlotsDone != 8 || sum.Campaign.Faults.Dropped != 2 ||
		sum.Campaign.TestVirtual["geo"].Count != 2 || sum.Runtime.Exchanges != 14 {
		t.Fatalf("Sum = %+v", sum.Campaign)
	}
}

func TestProgressLine(t *testing.T) {
	r := NewRing(16)
	r.BeginRun(8, 1)
	r.Record(Event{Kind: Commit, Detail: OutcomeMeasured})
	r.Record(Event{Kind: SlotResume})
	r.Record(Event{Kind: QuarantineTrip})
	var buf bytes.Buffer
	stop := r.StartProgress(&buf, time.Hour) // only the final line fires
	stop()
	stop() // idempotent
	line := buf.String()
	if !strings.Contains(line, "2/8 slots") || !strings.Contains(line, "1 quarantined") {
		t.Fatalf("progress line = %q", line)
	}
	if strings.Count(line, "\n") != 1 {
		t.Fatalf("stop() not idempotent, got %q", line)
	}
}
