package capture

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
)

// Packet is a decoded stack of layers over a single buffer of packet
// data. Construct with NewPacket. Decoding failures do not abort the
// packet: successfully decoded layers remain available and ErrorLayer
// reports the failure, mirroring gopacket.
type Packet struct {
	data   []byte
	layers []Layer
	err    *DecodeError
}

// DecodeOptions controls NewPacket.
type DecodeOptions struct {
	// NoCopy uses the caller's slice directly instead of copying. Only
	// safe when the caller guarantees the bytes stay immutable.
	NoCopy bool
}

// Default and NoCopy are the common option sets.
var (
	Default = DecodeOptions{}
	NoCopy  = DecodeOptions{NoCopy: true}
)

// NewPacket decodes data, starting at layer type first.
func NewPacket(data []byte, first LayerType, opts DecodeOptions) *Packet {
	p := &Packet{}
	if opts.NoCopy {
		p.data = data
	} else {
		p.data = bytes.Clone(data)
	}
	rest := p.data
	next := first
	for len(rest) > 0 && next != TypePayload && next != TypeInvalid {
		layer := newLayerOf(next)
		if layer == nil {
			break
		}
		if err := layer.DecodeFromBytes(rest); err != nil {
			if de, ok := err.(*DecodeError); ok {
				p.err = de
			} else {
				p.err = &DecodeError{next, err.Error()}
			}
			return p
		}
		p.layers = append(p.layers, layer)
		rest = layer.LayerPayload()
		next = layer.NextLayerType()
	}
	if len(rest) > 0 {
		p.layers = append(p.layers, Payload(rest))
	}
	return p
}

func newLayerOf(t LayerType) DecodingLayer {
	switch t {
	case TypeIPv4:
		return &IPv4{}
	case TypeIPv6:
		return &IPv6{}
	case TypeUDP:
		return &UDP{}
	case TypeTCP:
		return &TCP{}
	case TypeICMP:
		return &ICMP{}
	case TypeTunnel:
		return &Tunnel{}
	default:
		return nil
	}
}

// Data returns the raw bytes underlying the packet.
func (p *Packet) Data() []byte { return p.data }

// Layers returns all decoded layers, outermost first.
func (p *Packet) Layers() []Layer { return p.layers }

// Layer returns the first layer of type t, or nil.
func (p *Packet) Layer(t LayerType) Layer {
	for _, l := range p.layers {
		if l.LayerType() == t {
			return l
		}
	}
	return nil
}

// NetworkLayer returns the first network-level layer (IPv4 or IPv6).
func (p *Packet) NetworkLayer() NetworkLayer {
	for _, l := range p.layers {
		if nl, ok := l.(NetworkLayer); ok {
			return nl
		}
	}
	return nil
}

// TransportLayer returns the first transport-level layer (TCP or UDP).
func (p *Packet) TransportLayer() TransportLayer {
	for _, l := range p.layers {
		if tl, ok := l.(TransportLayer); ok {
			return tl
		}
	}
	return nil
}

// ApplicationLayer returns the trailing Payload layer, or nil.
func (p *Packet) ApplicationLayer() Payload {
	for _, l := range p.layers {
		if pl, ok := l.(Payload); ok {
			return pl
		}
	}
	return nil
}

// ErrorLayer returns the decode error encountered, if any.
func (p *Packet) ErrorLayer() *DecodeError { return p.err }

// String renders the layer stack for debugging.
func (p *Packet) String() string {
	var b strings.Builder
	for i, l := range p.layers {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(l.LayerType().String())
	}
	if p.err != nil {
		fmt.Fprintf(&b, "/!%s", p.err.Type)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Flow / Endpoint
// ---------------------------------------------------------------------

// EndpointKind distinguishes the address family of a Flow's endpoints.
type EndpointKind byte

// Endpoint kinds.
const (
	EndpointIP EndpointKind = iota + 1
	EndpointUDPPort
	EndpointTCPPort
)

// Flow is a (src, dst) endpoint pair at one layer of a packet.
type Flow struct {
	Kind     EndpointKind
	src, dst []byte
}

// NewFlow builds a flow from raw endpoint bytes.
func NewFlow(kind EndpointKind, src, dst []byte) Flow {
	return Flow{kind, bytes.Clone(src), bytes.Clone(dst)}
}

// Src and Dst return the endpoint byte strings.
func (f Flow) Src() []byte { return f.src }
func (f Flow) Dst() []byte { return f.dst }

// Reverse returns the flow with endpoints swapped.
func (f Flow) Reverse() Flow { return Flow{f.Kind, f.dst, f.src} }

// Key returns a map key for the directed flow.
func (f Flow) Key() string {
	return string(f.Kind) + string(f.src) + ">" + string(f.dst)
}

// FastHash returns a symmetric hash: A->B and B->A collide, so
// bidirectional traffic lands in the same bucket.
func (f Flow) FastHash() uint64 {
	return hashBytes(f.src) ^ hashBytes(f.dst) ^ uint64(f.Kind)<<56
}

func hashBytes(b []byte) uint64 {
	var h uint64 = 0xCBF29CE484222325
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001B3
	}
	return h
}

// ---------------------------------------------------------------------
// DecodingLayerParser — the allocation-free fast path
// ---------------------------------------------------------------------

// DecodingLayerParser decodes packet data into caller-owned, preallocated
// layers. It handles only the layer types registered with it; decoding
// stops (without error) at the first unregistered type, whose identity is
// reported through the decoded slice semantics below.
type DecodingLayerParser struct {
	first LayerType
	// layers is a dense dispatch table indexed by LayerType — the enum
	// is small and fixed, so registration and per-layer lookup are
	// array indexing instead of map hashing, and construction allocates
	// nothing beyond the parser itself.
	layers [layerTypeCount]DecodingLayer
}

// NewDecodingLayerParser registers decoders for the given layers; each
// DecodeLayers call writes into those same layer values.
func NewDecodingLayerParser(first LayerType, layers ...DecodingLayer) *DecodingLayerParser {
	p := &DecodingLayerParser{first: first}
	for _, l := range layers {
		if t := l.LayerType(); t >= 0 && t < layerTypeCount {
			p.layers[t] = l
		}
	}
	return p
}

// DecodeLayers decodes data, appending the types decoded into *decoded
// (which is truncated first). It returns a non-nil error only on a
// malformed layer; running out of registered decoders is not an error.
func (p *DecodingLayerParser) DecodeLayers(data []byte, decoded *[]LayerType) error {
	return p.DecodeLayersFrom(p.first, data, decoded)
}

// DecodeLayersFrom is DecodeLayers with an explicit first layer type,
// letting one parser (and its registered scratch layers) serve packets
// of different families — the reuse pattern the simulator's fast path
// depends on.
func (p *DecodingLayerParser) DecodeLayersFrom(first LayerType, data []byte, decoded *[]LayerType) error {
	*decoded = (*decoded)[:0]
	rest := data
	next := first
	for len(rest) > 0 {
		if next < 0 || next >= layerTypeCount {
			return nil
		}
		layer := p.layers[next]
		if layer == nil {
			return nil
		}
		if err := layer.DecodeFromBytes(rest); err != nil {
			return err
		}
		*decoded = append(*decoded, next)
		rest = layer.LayerPayload()
		next = layer.NextLayerType()
	}
	return nil
}

// ---------------------------------------------------------------------
// SerializeBuffer
// ---------------------------------------------------------------------

// SerializeBuffer accumulates packet bytes by prepending: serialize the
// innermost layer first and wrap outward, as gopacket does.
type SerializeBuffer struct {
	buf   []byte
	start int

	// HdrV4/HdrV6 are network-header scratch for packet builders: a
	// pooled buffer carries its header scratch with it instead of
	// paying a second pool round-trip per packet. Valid only inside a
	// single build — nested builds hold distinct buffers.
	HdrV4 IPv4
	HdrV6 IPv6
}

// NewSerializeBuffer returns an empty buffer.
func NewSerializeBuffer() *SerializeBuffer {
	const initial = 256
	return &SerializeBuffer{buf: make([]byte, initial), start: initial}
}

// Bytes returns the current contents.
func (b *SerializeBuffer) Bytes() []byte { return b.buf[b.start:] }

// Prepend grows the front of the buffer by n bytes and returns the new
// zeroed front region.
func (b *SerializeBuffer) Prepend(n int) []byte {
	if n > b.start {
		grown := make([]byte, n+len(b.buf)*2)
		newStart := len(grown) - len(b.Bytes()) - n
		copy(grown[newStart+n:], b.Bytes())
		b.buf = grown
		b.start = newStart
	} else {
		b.start -= n
	}
	front := b.buf[b.start : b.start+n]
	for i := range front {
		front[i] = 0
	}
	return front
}

// Clear resets the buffer to empty.
func (b *SerializeBuffer) Clear() { b.start = len(b.buf) }

// Reserve clears the buffer and returns a writable region of exactly n
// bytes that becomes the buffer's whole contents. Unlike Prepend it does
// not zero the region — the caller must overwrite every byte. This is
// the entry point for prototype patching, where the full packet image is
// copied in anyway.
func (b *SerializeBuffer) Reserve(n int) []byte {
	if n > len(b.buf) {
		b.buf = make([]byte, n+len(b.buf)*2)
	}
	b.start = len(b.buf) - n
	return b.buf[b.start:]
}

var serializeBufferPool = sync.Pool{
	New: func() any { return NewSerializeBuffer() },
}

// GetSerializeBuffer returns a cleared buffer from a process-wide pool.
// Pair it with Release once every slice obtained from Bytes() is either
// copied or dead; the pool reuses the backing array.
func GetSerializeBuffer() *SerializeBuffer {
	b := serializeBufferPool.Get().(*SerializeBuffer)
	b.Clear()
	return b
}

// Release returns b to the pool. The caller must not touch b — or any
// slice previously returned by b.Bytes() or b.Prepend() — afterwards.
func (b *SerializeBuffer) Release() {
	serializeBufferPool.Put(b)
}

// SerializeLayers clears b and serializes the given layers outermost
// first (it walks them in reverse so each layer sees its payload).
func SerializeLayers(b *SerializeBuffer, layers ...SerializableLayer) error {
	b.Clear()
	for i := len(layers) - 1; i >= 0; i-- {
		if err := layers[i].SerializeTo(b); err != nil {
			return err
		}
	}
	return nil
}
