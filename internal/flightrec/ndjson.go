package flightrec

import (
	"bufio"
	"encoding/json"
	"io"
	"time"
)

// SchemaVersion identifies the dump format; the first NDJSON line of
// every dump carries it.
const SchemaVersion = "vpnscope-flightrec/1"

// DumpMeta is the caller-supplied header context for a dump: which
// campaign (empty for the daemon-wide ring) and why the dump was
// taken ("panic", "watchdog-slot_stall", "on-demand", ...).
type DumpMeta struct {
	Campaign string
	Reason   string
}

// dumpHeader is the first NDJSON line of a dump.
type dumpHeader struct {
	Schema     string `json:"schema"`
	Campaign   string `json:"campaign,omitempty"`
	Reason     string `json:"reason"`
	DumpedAtNs int64  `json:"dumped_at_ns"`
	Events     uint64 `json:"events"`
	Dropped    uint64 `json:"dropped"`
	Capacity   int    `json:"capacity"`
}

// eventJSON is the per-event NDJSON line. Numeric fields are always
// emitted (a fixed flat schema keeps dumps greppable); string fields
// are omitted when empty.
type eventJSON struct {
	Seq      uint64 `json:"seq"`
	WallNs   int64  `json:"wall_ns"`
	Kind     string `json:"kind"`
	Campaign string `json:"campaign,omitempty"`
	Worker   int    `json:"worker"`
	Slot     int    `json:"slot"`
	Provider string `json:"provider,omitempty"`
	VP       string `json:"vp,omitempty"`
	Detail   string `json:"detail,omitempty"`
	V1       int64  `json:"v1"`
	V2       int64  `json:"v2"`
	VirtNs   int64  `json:"virt_ns"`
}

// WriteNDJSON dumps the ring as NDJSON: one header line (schema,
// reason, drop accounting) followed by the retained events oldest
// first. The ring lock is held only while snapshotting, never across
// the writes, so a slow sink (an HTTP client on /debugz/flightrec)
// cannot stall recording. A nil ring writes just the header.
func (r *Ring) WriteNDJSON(w io.Writer, meta DumpMeta) error {
	var (
		events []Event
		stats  Stats
	)
	if r != nil {
		r.mu.Lock()
		events = r.snapshotLocked()
		stats = r.statsLocked()
		r.mu.Unlock()
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	hdr := dumpHeader{
		Schema:     SchemaVersion,
		Campaign:   meta.Campaign,
		Reason:     meta.Reason,
		DumpedAtNs: time.Now().UnixNano(),
		Events:     stats.Events,
		Dropped:    stats.Dropped,
		Capacity:   stats.Capacity,
	}
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for i := range events {
		ev := &events[i]
		line := eventJSON{
			Seq:      ev.Seq,
			WallNs:   ev.WallNs,
			Kind:     ev.Kind.String(),
			Campaign: ev.Campaign,
			Worker:   ev.Worker,
			Slot:     ev.Slot,
			Provider: ev.Provider,
			VP:       ev.VP,
			Detail:   ev.Detail,
			V1:       ev.V1,
			V2:       ev.V2,
			VirtNs:   ev.VirtNs,
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
