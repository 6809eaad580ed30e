package flightrec

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// traceEvent is one entry in the Chrome trace-event JSON format
// (chrome://tracing and Perfetto both load it). Ts and Dur are
// microseconds on the wall clock, relative to the ring's creation.
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

// WriteTraceTo serializes the retained event trail as a Chrome
// trace-event file: one track (tid) per worker that measured a slot,
// plus a "committer" track for stream writes. Each slot span pairs a
// worker's SlotStart with its SlotFinish and carries the slot's
// virtual-time window, connect attempts, the faults of its FaultDraws
// event, and the victim of the SlotSteal that handed it over (-1 when
// the worker owned it). A slot still in flight, or whose start wrapped
// out of the ring, has no span.
func (r *Ring) WriteTraceTo(w io.Writer) error {
	var (
		events  []Event
		workers int
		start   time.Time
	)
	if r != nil {
		r.mu.Lock()
		events = r.snapshotLocked()
		workers = len(r.active)
		start = r.start
		r.mu.Unlock()
	}
	us := func(ns int64) float64 { return float64(ns-start.UnixNano()) / float64(time.Microsecond) }
	ms := func(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }

	type stolen struct{ slot, victim int }
	var (
		out       []traceEvent
		open      = map[int]Event{}  // worker → its unfinished SlotStart
		steals    = map[int]stolen{} // worker → its latest steal
		lastSpan  = map[int]int{}    // worker → index of its latest slot span
		tracks    = map[int]bool{}
		committer bool
	)
	for _, ev := range events {
		switch ev.Kind {
		case SlotSteal:
			steals[ev.Worker] = stolen{ev.Slot, int(ev.V1)}
		case SlotStart:
			open[ev.Worker] = ev
		case SlotFinish:
			st, ok := open[ev.Worker]
			if !ok || st.Slot != ev.Slot {
				continue
			}
			delete(open, ev.Worker)
			from := -1
			if s, ok := steals[ev.Worker]; ok && s.slot == ev.Slot {
				from = s.victim
			}
			tracks[ev.Worker] = true
			lastSpan[ev.Worker] = len(out)
			out = append(out, traceEvent{
				Name: st.Provider + " · " + st.VP,
				Ph:   "X",
				Ts:   us(st.WallNs),
				Dur:  float64(ev.V1) / float64(time.Microsecond),
				Pid:  1,
				Tid:  ev.Worker,
				Args: map[string]any{
					"virtual_start_ms": ms(st.VirtNs),
					"virtual_ms":       ms(ev.VirtNs),
					"slot":             ev.Slot,
					"provider":         st.Provider,
					"vp":               st.VP,
					"attempts":         ev.V2,
					"faults":           0,
					"stolen_from":      from,
					"outcome":          ev.Detail,
				},
			})
		case FaultDraws:
			if i, ok := lastSpan[ev.Worker]; ok && out[i].Args["slot"] == ev.Slot {
				out[i].Args["faults"] = ev.V1
			}
		case Checkpoint:
			committer = true
			out = append(out, traceEvent{
				Name: "stream",
				Ph:   "X",
				Ts:   us(ev.WallNs - ev.V1),
				Dur:  float64(ev.V1) / float64(time.Microsecond),
				Pid:  1,
				Tid:  workers,
				Args: map[string]any{"virtual_start_ms": 0.0, "virtual_ms": 0.0},
			})
		}
	}
	for tid := range tracks {
		out = append(out, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", tid)},
		})
	}
	if committer {
		out = append(out, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: workers,
			Args: map[string]any{"name": "committer"},
		})
	}

	// Metadata first (by track), then spans in wall order: stable
	// output and the layout chrome://tracing expects.
	sort.SliceStable(out, func(i, j int) bool {
		mi, mj := out[i].Ph == "M", out[j].Ph == "M"
		if mi != mj {
			return mi
		}
		if mi {
			return out[i].Tid < out[j].Tid
		}
		return out[i].Ts < out[j].Ts
	})
	return json.NewEncoder(w).Encode(traceFile{DisplayTimeUnit: "ms", TraceEvents: out})
}
