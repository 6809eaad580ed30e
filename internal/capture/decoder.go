package capture

import (
	"net/netip"
	"sync"
)

// PacketDecoder is a reusable, allocation-free alternative to NewPacket
// for the simulator's hot delivery path. It owns one preallocated value
// of every layer type and a DecodingLayerParser wired to them; each
// Decode overwrites that scratch state in place.
//
// Decoding aliases the input bytes (the NoCopy contract): the caller
// must keep data immutable for as long as it reads layer payloads, and
// must not use the decoder's layers after Release.
type PacketDecoder struct {
	v4   IPv4
	v6   IPv6
	udp  UDP
	tcp  TCP
	icmp ICMP
	tun  Tunnel

	parser  *DecodingLayerParser
	decoded []LayerType
}

// NewPacketDecoder returns a decoder with all simulator layer types
// registered. Most callers should prefer AcquirePacketDecoder/Release.
func NewPacketDecoder() *PacketDecoder {
	d := &PacketDecoder{decoded: make([]LayerType, 0, 8)}
	d.parser = NewDecodingLayerParser(TypeIPv4,
		&d.v4, &d.v6, &d.udp, &d.tcp, &d.icmp, &d.tun)
	return d
}

var packetDecoderPool = sync.Pool{
	New: func() any { return NewPacketDecoder() },
}

// AcquirePacketDecoder returns a decoder from a process-wide pool. Pair
// with Release. Nested decodes (for example a tunnel server decoding an
// inner packet while the outer decode is still live) must each acquire
// their own decoder.
func AcquirePacketDecoder() *PacketDecoder {
	return packetDecoderPool.Get().(*PacketDecoder)
}

// Release returns d to the pool. The caller must not touch d or any
// layer pointer obtained from it afterwards; payload slices (which alias
// the input data, not the decoder) stay valid.
func (d *PacketDecoder) Release() {
	packetDecoderPool.Put(d)
}

// Decode parses data starting at layer type first, replacing all prior
// scratch state. It mirrors DecodingLayerParser semantics: a non-nil
// error only for a malformed layer; already-decoded layers remain
// readable after an error.
func (d *PacketDecoder) Decode(data []byte, first LayerType) error {
	return d.parser.DecodeLayersFrom(first, data, &d.decoded)
}

// Decoded returns the layer types decoded by the last Decode, outermost
// first. The slice is owned by the decoder.
func (d *PacketDecoder) Decoded() []LayerType { return d.decoded }

// Layer returns the decoder's layer value for t if the last Decode
// produced it, else nil.
func (d *PacketDecoder) Layer(t LayerType) Layer {
	for _, dt := range d.decoded {
		if dt == t {
			return d.layerOf(t)
		}
	}
	return nil
}

func (d *PacketDecoder) layerOf(t LayerType) Layer {
	switch t {
	case TypeIPv4:
		return &d.v4
	case TypeIPv6:
		return &d.v6
	case TypeUDP:
		return &d.udp
	case TypeTCP:
		return &d.tcp
	case TypeICMP:
		return &d.icmp
	case TypeTunnel:
		return &d.tun
	default:
		return nil
	}
}

// IPv4, IPv6, UDP, TCP, ICMP, Tunnel return the decoder's scratch layer
// of that type when the last Decode produced it. Second result reports
// presence.
func (d *PacketDecoder) IPv4() (*IPv4, bool)     { l := d.Layer(TypeIPv4); return &d.v4, l != nil }
func (d *PacketDecoder) IPv6() (*IPv6, bool)     { l := d.Layer(TypeIPv6); return &d.v6, l != nil }
func (d *PacketDecoder) UDP() (*UDP, bool)       { l := d.Layer(TypeUDP); return &d.udp, l != nil }
func (d *PacketDecoder) TCP() (*TCP, bool)       { l := d.Layer(TypeTCP); return &d.tcp, l != nil }
func (d *PacketDecoder) ICMP() (*ICMP, bool)     { l := d.Layer(TypeICMP); return &d.icmp, l != nil }
func (d *PacketDecoder) Tunnel() (*Tunnel, bool) { l := d.Layer(TypeTunnel); return &d.tun, l != nil }

// NetworkLayer returns the decoded network layer, or nil.
func (d *PacketDecoder) NetworkLayer() NetworkLayer {
	for _, dt := range d.decoded {
		switch dt {
		case TypeIPv4:
			return &d.v4
		case TypeIPv6:
			return &d.v6
		}
	}
	return nil
}

// Addrs returns the network-layer source and destination addresses
// without allocating (unlike NetworkFlow, which materializes byte
// slices). ok is false when no network layer was decoded.
func (d *PacketDecoder) Addrs() (src, dst netip.Addr, ok bool) {
	for _, dt := range d.decoded {
		switch dt {
		case TypeIPv4:
			return d.v4.Src, d.v4.Dst, true
		case TypeIPv6:
			return d.v6.Src, d.v6.Dst, true
		}
	}
	return netip.Addr{}, netip.Addr{}, false
}

// Payload returns the application payload: the innermost decoded layer's
// payload, matching Packet.ApplicationLayer for well-formed packets. It
// returns nil when empty so callers can keep nil-checking.
func (d *PacketDecoder) Payload() []byte {
	n := len(d.decoded)
	if n == 0 {
		return nil
	}
	p := d.layerOf(d.decoded[n-1]).LayerPayload()
	if len(p) == 0 {
		return nil
	}
	return p
}
