package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// ringCapacity bounds each track's span buffer. A full commercial-scale
// campaign is a few hundred slots plus a stream write per slot, so 4096
// keeps everything; if a run ever overflows, the oldest spans are
// overwritten and the loss is reported in the snapshot's
// runtime.spans_dropped.
const ringCapacity = 4096

// Span is one traced interval: a measured vantage-point slot or a
// stream write. Spans are placed on the wall clock (WallStart /
// WallDur — where the work actually ran) and annotated with the
// virtual-time window the simulation assigned it (VirtStart / VirtDur).
type Span struct {
	Kind     string // "slot" or "stream"
	Slot     int    // canonical slot order (slots only)
	Provider string
	VP       string

	WallStart time.Time
	WallDur   time.Duration
	VirtStart time.Duration // virtual campaign offset of the slot window
	VirtDur   time.Duration // virtual time the suite consumed

	Attempts   int    // connect attempts spent (slots only)
	Faults     int    // fault-injection events absorbed during the slot
	StolenFrom int    // worker deque the slot was stolen from; -1 if owned
	Outcome    string // "measured" or "failed"
}

// ring is a fixed-capacity span buffer. Each worker gets its own ring
// so recording never contends across workers; the per-ring mutex only
// orders a worker against a concurrent trace export.
type ring struct {
	mu  sync.Mutex
	buf []Span
	n   uint64 // total spans ever recorded (n - len(buf) were dropped)
}

func (r *ring) init() {
	r.buf = make([]Span, ringCapacity)
}

func (r *ring) record(sp Span) {
	r.mu.Lock()
	if r.buf == nil {
		r.buf = make([]Span, ringCapacity)
	}
	r.buf[r.n%uint64(len(r.buf))] = sp
	r.n++
	r.mu.Unlock()
}

// snapshot returns the retained spans oldest-first plus the number of
// overwritten (dropped) spans.
func (r *ring) snapshot() (spans []Span, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 || r.buf == nil {
		return nil, 0
	}
	cap64 := uint64(len(r.buf))
	kept := r.n
	if kept > cap64 {
		kept = cap64
		dropped = int64(r.n - cap64)
	}
	spans = make([]Span, 0, kept)
	start := r.n - kept
	for i := start; i < r.n; i++ {
		spans = append(spans, r.buf[i%cap64])
	}
	return spans, dropped
}

// EnsureWorkerTracks preallocates ring buffers for workers [0, n) so
// the first RecordSpan on each track does not allocate. The executor
// calls it once before spawning workers.
func (s *Sink) EnsureWorkerTracks(n int) {
	s.trackMu.Lock()
	defer s.trackMu.Unlock()
	for len(s.tracks) < n {
		r := &ring{}
		r.init()
		s.tracks = append(s.tracks, r)
	}
}

func (s *Sink) workerRing(worker int) *ring {
	if worker < 0 {
		worker = 0
	}
	s.trackMu.Lock()
	for len(s.tracks) <= worker {
		r := &ring{}
		r.init()
		s.tracks = append(s.tracks, r)
	}
	r := s.tracks[worker]
	s.trackMu.Unlock()
	return r
}

// RecordSpan appends a span to the given worker's track. Allocation-
// free once the track exists (see EnsureWorkerTracks).
func (s *Sink) RecordSpan(worker int, sp Span) {
	s.workerRing(worker).record(sp)
}

// RecordCommitSpan appends a span to the committer's dedicated track
// (stream writes live there, not on any worker).
func (s *Sink) RecordCommitSpan(sp Span) {
	s.commits.record(sp)
}

// spansDropped sums ring overwrites across all tracks for the snapshot.
func (s *Sink) spansDropped() int64 {
	s.trackMu.Lock()
	tracks := append([]*ring(nil), s.tracks...)
	s.trackMu.Unlock()
	var dropped int64
	for _, r := range tracks {
		_, d := r.snapshot()
		dropped += d
	}
	_, d := s.commits.snapshot()
	return dropped + d
}

// traceEvent is one entry in the Chrome trace-event JSON format
// (chrome://tracing and Perfetto both load it). Ts and Dur are
// microseconds on the wall clock, relative to the sink's start.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// WriteTraceTo serializes every recorded span as a Chrome trace-event
// file: one track (tid) per worker plus a "committer" track, spans on
// the wall-clock axis, virtual-time placement in each span's args.
func (s *Sink) WriteTraceTo(w io.Writer) error {
	s.trackMu.Lock()
	tracks := append([]*ring(nil), s.tracks...)
	s.trackMu.Unlock()

	commitTid := len(tracks)
	var events []traceEvent
	for tid, r := range tracks {
		spans, _ := r.snapshot()
		if len(spans) == 0 {
			continue
		}
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", tid)},
		})
		for _, sp := range spans {
			events = append(events, s.spanEvent(tid, sp))
		}
	}
	if commitSpans, _ := s.commits.snapshot(); len(commitSpans) > 0 {
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: commitTid,
			Args: map[string]any{"name": "committer"},
		})
		for _, sp := range commitSpans {
			events = append(events, s.spanEvent(commitTid, sp))
		}
	}

	// Metadata first, then spans in wall order: stable output and the
	// layout chrome://tracing expects.
	sort.SliceStable(events, func(i, j int) bool {
		mi, mj := events[i].Ph == "M", events[j].Ph == "M"
		if mi != mj {
			return mi
		}
		return events[i].Ts < events[j].Ts
	})

	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{DisplayTimeUnit: "ms", TraceEvents: events})
}

func (s *Sink) spanEvent(tid int, sp Span) traceEvent {
	name := sp.Kind
	if sp.Kind == "slot" {
		name = sp.Provider + " · " + sp.VP
	}
	args := map[string]any{
		"virtual_start_ms": float64(sp.VirtStart) / float64(time.Millisecond),
		"virtual_ms":       float64(sp.VirtDur) / float64(time.Millisecond),
	}
	if sp.Kind == "slot" {
		args["slot"] = sp.Slot
		args["provider"] = sp.Provider
		args["vp"] = sp.VP
		args["attempts"] = sp.Attempts
		args["faults"] = sp.Faults
		args["stolen_from"] = sp.StolenFrom
		args["outcome"] = sp.Outcome
	}
	return traceEvent{
		Name: name,
		Ph:   "X",
		Ts:   float64(sp.WallStart.Sub(s.start)) / float64(time.Microsecond),
		Dur:  float64(sp.WallDur) / float64(time.Microsecond),
		Pid:  1,
		Tid:  tid,
		Args: args,
	}
}
