package capture

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// Record is one captured packet with its capture timestamp (virtual
// time) and the interface it was seen on.
type Record struct {
	Time      time.Duration // virtual time since simulation start
	Interface string
	Dir       Direction
	Data      []byte
}

// Direction marks whether the packet left or entered the interface.
type Direction byte

// Packet directions.
const (
	DirOut Direction = iota
	DirIn
)

func (d Direction) String() string {
	if d == DirIn {
		return "in"
	}
	return "out"
}

// Sink collects packet records, like a tcpdump process attached to an
// interface. A sink is owned by the stack that holds it and is driven
// only by that stack's owner goroutine; it does no locking of its own.
type Sink struct {
	records []Record
	alloc   func(n int) []byte
}

// NewSink returns an empty sink.
func NewSink() *Sink { return &Sink{} }

// SetAlloc installs the allocator backing record payload copies — a
// slot arena when the records provably die with the slot (leak tests
// count them in place and nothing snapshots them out). Nil restores the
// heap, which is required whenever records outlive the sink's scope
// (pcap collection).
func (s *Sink) SetAlloc(alloc func(n int) []byte) { s.alloc = alloc }

// Capture appends a record. The packet bytes are copied.
func (s *Sink) Capture(t time.Duration, iface string, dir Direction, data []byte) {
	var cp []byte
	if s.alloc != nil {
		cp = s.alloc(len(data))
	} else {
		cp = make([]byte, len(data))
	}
	copy(cp, data)
	s.records = append(s.records, Record{t, iface, dir, cp})
}

// Records returns a snapshot of all captured records in capture order.
func (s *Sink) Records() []Record {
	out := make([]Record, len(s.records))
	copy(out, s.records)
	return out
}

// Len returns the number of captured packets.
func (s *Sink) Len() int { return len(s.records) }

// Reset discards all records.
func (s *Sink) Reset() { s.records = nil }

// Rebase hands the sink a reusable backing array for its record list
// and returns the previous one, emptied and with its payload
// references cleared. A recycler (the simulator's slot runner) threads
// backings from retired sinks into fresh ones so per-slot captures
// stop regrowing the record list from scratch; snapshots handed out by
// Records are copies, so rebasing never invalidates them.
func (s *Sink) Rebase(backing []Record) []Record {
	old := s.records
	clear(old)
	s.records = backing[:0:cap(backing)]
	return old[:0:cap(old)]
}

// Filter returns the records matching pred, in order.
func (s *Sink) Filter(pred func(Record) bool) []Record {
	var out []Record
	for _, r := range s.Records() {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// pcap writing/reading (classic libpcap format, LINKTYPE_RAW)
// ---------------------------------------------------------------------

const (
	pcapMagic   = 0xA1B2C3D4
	linktypeRaw = 101 // raw IP: packet begins with an IPv4/IPv6 header
)

// WritePcap writes records to w in classic pcap format with the RAW
// linktype (packets start at the IP header), so traces are readable by
// standard tools.
func WritePcap(w io.Writer, records []Record) error {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // major
	binary.LittleEndian.PutUint16(hdr[6:8], 4) // minor
	binary.LittleEndian.PutUint32(hdr[16:20], 0xFFFF)
	binary.LittleEndian.PutUint32(hdr[20:24], linktypeRaw)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("capture: writing pcap header: %w", err)
	}
	rec := make([]byte, 16)
	for i, r := range records {
		sec := uint32(r.Time / time.Second)
		usec := uint32(r.Time % time.Second / time.Microsecond)
		binary.LittleEndian.PutUint32(rec[0:4], sec)
		binary.LittleEndian.PutUint32(rec[4:8], usec)
		binary.LittleEndian.PutUint32(rec[8:12], uint32(len(r.Data)))
		binary.LittleEndian.PutUint32(rec[12:16], uint32(len(r.Data)))
		if _, err := w.Write(rec); err != nil {
			return fmt.Errorf("capture: writing record %d header: %w", i, err)
		}
		if _, err := w.Write(r.Data); err != nil {
			return fmt.Errorf("capture: writing record %d data: %w", i, err)
		}
	}
	return nil
}

// ReadPcap parses a classic pcap stream written by WritePcap. Interface
// and direction metadata are not part of the pcap format and come back
// zero-valued.
func ReadPcap(r io.Reader) ([]Record, error) {
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("capture: reading pcap header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != pcapMagic {
		return nil, fmt.Errorf("capture: bad pcap magic %#x", binary.LittleEndian.Uint32(hdr[0:4]))
	}
	var out []Record
	rec := make([]byte, 16)
	for {
		if _, err := io.ReadFull(r, rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("capture: reading record header: %w", err)
		}
		capLen := binary.LittleEndian.Uint32(rec[8:12])
		if capLen > 1<<20 {
			return nil, fmt.Errorf("capture: implausible record length %d", capLen)
		}
		data := make([]byte, capLen)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, fmt.Errorf("capture: reading record data: %w", err)
		}
		sec := binary.LittleEndian.Uint32(rec[0:4])
		usec := binary.LittleEndian.Uint32(rec[4:8])
		out = append(out, Record{
			Time: time.Duration(sec)*time.Second + time.Duration(usec)*time.Microsecond,
			Data: data,
		})
	}
}
