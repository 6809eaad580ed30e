package netsim

import (
	"encoding/binary"
	"net/netip"

	"vpnscope/internal/arena"
	"vpnscope/internal/capture"
)

// Packet-prototype fast path.
//
// Successive packets a builder emits for one (src, dst, layer-shape)
// flow differ only in a handful of header fields: lengths, ports,
// sequence numbers, the payload bytes. The first packet built for a
// flow is serialized once through the full layer-by-layer path and its
// IP+transport header image is captured into slot-arena memory as a
// prototype; every later packet on the flow is produced by copying that
// image, splicing the payload, and patching only the varying fields —
// with the IPv4 checksum maintained by RFC 1624 incremental update
// instead of a full header re-sum. Byte-identity to the full serialize
// is the contract, proven differentially by FuzzPacketPrototype.
//
// The cache is flow-scoped and slot-scoped: each flow's state
// (flow.go) holds one prototype per layer shape, keeps its header
// images in the slot arena (the heap before one is installed), and is
// dropped by Network.BeginSlot together with the arena reset that
// invalidates those images.

// packetPrototype is the cached serialized image of a flow's first
// packet, minus the payload, plus the field values needed to patch.
type packetPrototype struct {
	hdr     []byte // IP+transport header image (slot arena or heap)
	ipLen   int
	v4      bool
	proto   byte   // protocol / next-header byte as serialized
	baseLen uint16 // v4 total-length word (or v6 payload-length word)
	baseTTL byte
	baseSum uint16 // v4 header checksum as serialized
}

// splitInner validates that the inner layer stack has a prototype-able
// shape — a transport layer optionally followed by a payload — and
// extracts the pieces. shape indexes a flow's prototypes: the
// transport, shifted, plus whether a payload layer follows. ok=false
// sends the build down the full path.
func splitInner(inner []capture.SerializableLayer) (transport capture.SerializableLayer, payload []byte, shape int, ok bool) {
	if len(inner) < 1 || len(inner) > 2 {
		return nil, nil, 0, false
	}
	switch inner[0].LayerType() {
	case capture.TypeUDP:
		shape = 0
	case capture.TypeTCP:
		shape = 2
	case capture.TypeICMP:
		shape = 4
	case capture.TypeTunnel:
		shape = 6
	default:
		return nil, nil, 0, false
	}
	if len(inner) == 2 {
		switch p := inner[1].(type) {
		case *capture.Payload:
			payload = []byte(*p)
		case capture.Payload:
			payload = []byte(p)
		default:
			return nil, nil, 0, false
		}
		shape |= 1
	}
	return inner[0], payload, shape, true
}

func transportHeaderLen(l capture.SerializableLayer) int {
	switch l.(type) {
	case *capture.UDP:
		return 8
	case *capture.TCP:
		return 20
	case *capture.ICMP:
		return 8
	case *capture.Tunnel:
		return 8
	default:
		return -1
	}
}

// newPrototype captures the header image of a freshly built packet.
func newPrototype(a *arena.Arena, pkt []byte, ttl byte, transport capture.SerializableLayer) (packetPrototype, bool) {
	tLen := transportHeaderLen(transport)
	if tLen < 0 || len(pkt) == 0 {
		return packetPrototype{}, false
	}
	var p packetPrototype
	switch pkt[0] >> 4 {
	case 4:
		p.v4 = true
		p.ipLen = 20
		p.baseLen = binary.BigEndian.Uint16(pkt[2:4])
		p.baseSum = binary.BigEndian.Uint16(pkt[10:12])
		p.proto = pkt[9]
	case 6:
		p.ipLen = 40
		p.baseLen = binary.BigEndian.Uint16(pkt[4:6])
		p.proto = pkt[6]
	default:
		return packetPrototype{}, false
	}
	hdrLen := p.ipLen + tLen
	if hdrLen > len(pkt) {
		return packetPrototype{}, false
	}
	p.baseTTL = ttl
	p.hdr = a.Copy(pkt[:hdrLen])
	return p, true
}

// patch produces the next packet on the flow by copying the prototype
// image into buf, splicing the payload, and patching the varying
// fields. ok=false (sizes the full path would reject, unexpected
// transport) sends the build down the full path so error text stays
// identical.
func (p *packetPrototype) patch(buf *capture.SerializeBuffer, ttl byte, transport capture.SerializableLayer, payload []byte) ([]byte, bool) {
	total, ok := p.size(payload)
	if !ok {
		return nil, false
	}
	return p.fill(buf.Reserve(total), ttl, transport, payload)
}

// size returns the length of the packet carrying payload, and false
// when the full path would reject that size.
func (p *packetPrototype) size(payload []byte) (int, bool) {
	total := len(p.hdr) + len(payload)
	if p.v4 {
		return total, total <= 0xFFFF
	}
	return total, total-p.ipLen <= 0xFFFF
}

// fill writes the packet carrying payload into out, which is exactly
// size(payload) bytes long: patch's work on memory the caller chose.
func (p *packetPrototype) fill(out []byte, ttl byte, transport capture.SerializableLayer, payload []byte) ([]byte, bool) {
	total := len(out)
	copy(out, p.hdr)
	copy(out[len(p.hdr):], payload)

	// Network layer: length word, TTL, and (v4) incremental checksum.
	if p.v4 {
		sum := p.baseSum
		if tot := uint16(total); tot != p.baseLen {
			binary.BigEndian.PutUint16(out[2:4], tot)
			sum = capture.ChecksumUpdate(sum, p.baseLen, tot)
		}
		if ttl != p.baseTTL {
			out[8] = ttl
			oldWord := uint16(p.baseTTL)<<8 | uint16(p.proto)
			newWord := uint16(ttl)<<8 | uint16(p.proto)
			sum = capture.ChecksumUpdate(sum, oldWord, newWord)
		}
		binary.BigEndian.PutUint16(out[10:12], sum)
	} else {
		binary.BigEndian.PutUint16(out[4:6], uint16(total-p.ipLen))
		out[7] = ttl
	}

	// Transport layer: every field SerializeTo writes that can vary.
	th := out[p.ipLen:]
	switch t := transport.(type) {
	case *capture.UDP:
		dgram := 8 + len(payload)
		if dgram > 0xFFFF {
			return nil, false
		}
		binary.BigEndian.PutUint16(th[0:2], t.SrcPort)
		binary.BigEndian.PutUint16(th[2:4], t.DstPort)
		binary.BigEndian.PutUint16(th[4:6], uint16(dgram))
	case *capture.TCP:
		binary.BigEndian.PutUint16(th[0:2], t.SrcPort)
		binary.BigEndian.PutUint16(th[2:4], t.DstPort)
		binary.BigEndian.PutUint32(th[4:8], t.Seq)
		binary.BigEndian.PutUint32(th[8:12], t.Ack)
		th[13] = t.Flags & 0x1F
	case *capture.ICMP:
		th[0] = t.TypeCode
		th[1] = t.Code
		binary.BigEndian.PutUint16(th[4:6], t.ID)
		binary.BigEndian.PutUint16(th[6:8], t.Seq)
	case *capture.Tunnel:
		binary.BigEndian.PutUint32(th[4:8], t.SessionID)
	default:
		return nil, false
	}
	return out, true
}

// BuildPacketTTLInto is the prototype-cached form of buildPacketTTLInto:
// byte-identical output, but after the first packet on a flow the
// header is patched instead of re-serialized. It finds the flow in the
// world's flow table on every call; a holder of a Flow handle builds
// with Flow.BuildInto instead.
func (n *Network) BuildPacketTTLInto(buf *capture.SerializeBuffer, ttl byte, src, dst netip.Addr, inner ...capture.SerializableLayer) ([]byte, error) {
	return n.buildOn(n.flowFor(src, dst), buf, ttl, inner...)
}

// BuildPacketInto is BuildPacketTTLInto with the default TTL of 64. It
// is the zero-copy form of BuildPacket: it serializes into buf
// (typically from AcquireBuffer) and returns a slice aliasing buf's
// storage. Use it for packets that die within the calling scope —
// built, sent through Exchange/SendVia (which copy what they keep),
// then released — and keep BuildPacket for packets whose bytes escape,
// e.g. responses returned to a peer.
func (n *Network) BuildPacketInto(buf *capture.SerializeBuffer, src, dst netip.Addr, inner ...capture.SerializableLayer) ([]byte, error) {
	return n.BuildPacketTTLInto(buf, 64, src, dst, inner...)
}

// BeginSlot recycles the slot arena and drops the flow tables whose
// prototype images live in it, advancing the world epoch so every flow
// handle re-resolves. The campaign runner calls it at every
// vantage-point slot boundary. It is also the one point where
// ownership of the world may change hands: the calling goroutine
// becomes the owner.
func (n *Network) BeginSlot() {
	n.owner.take()
	n.epoch++
	n.slotArena.Reset()
	if n.scratch != nil {
		n.scratch.resetFlows()
	}
}
