package capture

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// ---------------------------------------------------------------------
// IPv4
// ---------------------------------------------------------------------

// IPv4 is an IPv4 header (20 bytes, no options in this simulator).
type IPv4 struct {
	TTL      byte
	Protocol IPProtocol
	Src, Dst netip.Addr

	contents, payload []byte
}

const ipv4HeaderLen = 20

// LayerType implements Layer.
func (ip *IPv4) LayerType() LayerType { return TypeIPv4 }

// LayerContents implements Layer.
func (ip *IPv4) LayerContents() []byte { return ip.contents }

// LayerPayload implements Layer.
func (ip *IPv4) LayerPayload() []byte { return ip.payload }

// NetworkFlow implements NetworkLayer.
func (ip *IPv4) NetworkFlow() Flow {
	return Flow{EndpointIP, ip.Src.AsSlice(), ip.Dst.AsSlice()}
}

// DecodeFromBytes implements DecodingLayer.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < ipv4HeaderLen {
		return &DecodeError{TypeIPv4, "truncated header"}
	}
	if version := data[0] >> 4; version != 4 {
		return &DecodeError{TypeIPv4, fmt.Sprintf("version %d", version)}
	}
	totalLen := int(binary.BigEndian.Uint16(data[2:4]))
	if totalLen < ipv4HeaderLen || totalLen > len(data) {
		return &DecodeError{TypeIPv4, "bad total length"}
	}
	ip.TTL = data[8]
	ip.Protocol = IPProtocol(data[9])
	src, _ := netip.AddrFromSlice(data[12:16])
	dst, _ := netip.AddrFromSlice(data[16:20])
	ip.Src, ip.Dst = src, dst
	ip.contents = data[:ipv4HeaderLen]
	ip.payload = data[ipv4HeaderLen:totalLen]
	return nil
}

// NextLayerType implements DecodingLayer.
func (ip *IPv4) NextLayerType() LayerType { return ip.Protocol.layerType() }

// SerializeTo implements SerializableLayer.
func (ip *IPv4) SerializeTo(b *SerializeBuffer) error {
	if !ip.Src.Is4() || !ip.Dst.Is4() {
		return fmt.Errorf("capture: IPv4 layer with non-v4 address %v -> %v", ip.Src, ip.Dst)
	}
	payloadLen := len(b.Bytes())
	hdr := b.Prepend(ipv4HeaderLen)
	hdr[0] = 4<<4 | 5 // version 4, IHL 5
	total := ipv4HeaderLen + payloadLen
	if total > 0xFFFF {
		return fmt.Errorf("capture: IPv4 packet too large (%d bytes)", total)
	}
	binary.BigEndian.PutUint16(hdr[2:4], uint16(total))
	hdr[8] = ip.TTL
	hdr[9] = byte(ip.Protocol)
	src, dst := ip.Src.As4(), ip.Dst.As4()
	copy(hdr[12:16], src[:])
	copy(hdr[16:20], dst[:])
	binary.BigEndian.PutUint16(hdr[10:12], headerChecksum(hdr))
	ip.contents = hdr
	return nil
}

// headerChecksum computes the RFC 791 header checksum with the checksum
// field zeroed.
func headerChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		if i == 10 { // checksum field itself
			continue
		}
		sum += uint32(binary.BigEndian.Uint16(hdr[i : i+2]))
	}
	for sum > 0xFFFF {
		sum = sum>>16 + sum&0xFFFF
	}
	return ^uint16(sum)
}

// ---------------------------------------------------------------------
// IPv6
// ---------------------------------------------------------------------

// IPv6 is an IPv6 fixed header (40 bytes, no extension headers).
type IPv6 struct {
	HopLimit byte
	Next     IPProtocol
	Src, Dst netip.Addr

	contents, payload []byte
}

const ipv6HeaderLen = 40

// LayerType implements Layer.
func (ip *IPv6) LayerType() LayerType { return TypeIPv6 }

// LayerContents implements Layer.
func (ip *IPv6) LayerContents() []byte { return ip.contents }

// LayerPayload implements Layer.
func (ip *IPv6) LayerPayload() []byte { return ip.payload }

// NetworkFlow implements NetworkLayer.
func (ip *IPv6) NetworkFlow() Flow {
	return Flow{EndpointIP, ip.Src.AsSlice(), ip.Dst.AsSlice()}
}

// DecodeFromBytes implements DecodingLayer.
func (ip *IPv6) DecodeFromBytes(data []byte) error {
	if len(data) < ipv6HeaderLen {
		return &DecodeError{TypeIPv6, "truncated header"}
	}
	if version := data[0] >> 4; version != 6 {
		return &DecodeError{TypeIPv6, fmt.Sprintf("version %d", version)}
	}
	payloadLen := int(binary.BigEndian.Uint16(data[4:6]))
	if ipv6HeaderLen+payloadLen > len(data) {
		return &DecodeError{TypeIPv6, "bad payload length"}
	}
	ip.Next = IPProtocol(data[6])
	ip.HopLimit = data[7]
	src, _ := netip.AddrFromSlice(data[8:24])
	dst, _ := netip.AddrFromSlice(data[24:40])
	ip.Src, ip.Dst = src, dst
	ip.contents = data[:ipv6HeaderLen]
	ip.payload = data[ipv6HeaderLen : ipv6HeaderLen+payloadLen]
	return nil
}

// NextLayerType implements DecodingLayer.
func (ip *IPv6) NextLayerType() LayerType { return ip.Next.layerType() }

// SerializeTo implements SerializableLayer.
func (ip *IPv6) SerializeTo(b *SerializeBuffer) error {
	if !ip.Src.Is6() || ip.Src.Is4In6() || !ip.Dst.Is6() || ip.Dst.Is4In6() {
		return fmt.Errorf("capture: IPv6 layer with non-v6 address %v -> %v", ip.Src, ip.Dst)
	}
	payloadLen := len(b.Bytes())
	if payloadLen > 0xFFFF {
		return fmt.Errorf("capture: IPv6 payload too large (%d bytes)", payloadLen)
	}
	hdr := b.Prepend(ipv6HeaderLen)
	hdr[0] = 6 << 4
	binary.BigEndian.PutUint16(hdr[4:6], uint16(payloadLen))
	hdr[6] = byte(ip.Next)
	hdr[7] = ip.HopLimit
	src, dst := ip.Src.As16(), ip.Dst.As16()
	copy(hdr[8:24], src[:])
	copy(hdr[24:40], dst[:])
	ip.contents = hdr
	return nil
}

// ---------------------------------------------------------------------
// UDP
// ---------------------------------------------------------------------

// UDP is a UDP header.
type UDP struct {
	SrcPort, DstPort uint16

	contents, payload []byte
}

const udpHeaderLen = 8

// LayerType implements Layer.
func (u *UDP) LayerType() LayerType { return TypeUDP }

// LayerContents implements Layer.
func (u *UDP) LayerContents() []byte { return u.contents }

// LayerPayload implements Layer.
func (u *UDP) LayerPayload() []byte { return u.payload }

// TransportFlow implements TransportLayer.
func (u *UDP) TransportFlow() Flow {
	return Flow{EndpointUDPPort, port(u.SrcPort), port(u.DstPort)}
}

// DecodeFromBytes implements DecodingLayer.
func (u *UDP) DecodeFromBytes(data []byte) error {
	if len(data) < udpHeaderLen {
		return &DecodeError{TypeUDP, "truncated header"}
	}
	length := int(binary.BigEndian.Uint16(data[4:6]))
	if length < udpHeaderLen || length > len(data) {
		return &DecodeError{TypeUDP, "bad length"}
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.contents = data[:udpHeaderLen]
	u.payload = data[udpHeaderLen:length]
	return nil
}

// NextLayerType implements DecodingLayer.
func (u *UDP) NextLayerType() LayerType { return TypePayload }

// SerializeTo implements SerializableLayer.
func (u *UDP) SerializeTo(b *SerializeBuffer) error {
	total := udpHeaderLen + len(b.Bytes())
	if total > 0xFFFF {
		return fmt.Errorf("capture: UDP datagram too large (%d bytes)", total)
	}
	hdr := b.Prepend(udpHeaderLen)
	binary.BigEndian.PutUint16(hdr[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:4], u.DstPort)
	binary.BigEndian.PutUint16(hdr[4:6], uint16(total))
	u.contents = hdr
	return nil
}

// ---------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------

// TCP flag bits, in wire order.
const (
	FlagFIN byte = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
)

// TCP is a TCP header (20 bytes, no options).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            byte

	contents, payload []byte
}

const tcpHeaderLen = 20

// LayerType implements Layer.
func (t *TCP) LayerType() LayerType { return TypeTCP }

// LayerContents implements Layer.
func (t *TCP) LayerContents() []byte { return t.contents }

// LayerPayload implements Layer.
func (t *TCP) LayerPayload() []byte { return t.payload }

// TransportFlow implements TransportLayer.
func (t *TCP) TransportFlow() Flow {
	return Flow{EndpointTCPPort, port(t.SrcPort), port(t.DstPort)}
}

// SYN, ACK, RST report individual flag bits.
func (t *TCP) SYN() bool { return t.Flags&FlagSYN != 0 }
func (t *TCP) ACK() bool { return t.Flags&FlagACK != 0 }
func (t *TCP) RST() bool { return t.Flags&FlagRST != 0 }

// DecodeFromBytes implements DecodingLayer.
func (t *TCP) DecodeFromBytes(data []byte) error {
	if len(data) < tcpHeaderLen {
		return &DecodeError{TypeTCP, "truncated header"}
	}
	dataOff := int(data[12]>>4) * 4
	if dataOff < tcpHeaderLen || dataOff > len(data) {
		return &DecodeError{TypeTCP, "bad data offset"}
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	t.Flags = data[13] & 0x1F
	t.contents = data[:dataOff]
	t.payload = data[dataOff:]
	return nil
}

// NextLayerType implements DecodingLayer.
func (t *TCP) NextLayerType() LayerType { return TypePayload }

// SerializeTo implements SerializableLayer.
func (t *TCP) SerializeTo(b *SerializeBuffer) error {
	hdr := b.Prepend(tcpHeaderLen)
	binary.BigEndian.PutUint16(hdr[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:4], t.DstPort)
	binary.BigEndian.PutUint32(hdr[4:8], t.Seq)
	binary.BigEndian.PutUint32(hdr[8:12], t.Ack)
	hdr[12] = 5 << 4 // data offset: 5 words
	hdr[13] = t.Flags & 0x1F
	t.contents = hdr
	return nil
}

// ---------------------------------------------------------------------
// ICMP (echo only — all the simulator needs for ping/traceroute)
// ---------------------------------------------------------------------

// ICMP echo types (real values for v4; v6 uses the same struct).
const (
	ICMPEchoRequest  byte = 8
	ICMPEchoReply    byte = 0
	ICMPTimeExceeded byte = 11
)

// ICMP is a minimal ICMP message: type, code, identifier, sequence.
type ICMP struct {
	TypeCode byte // ICMPEchoRequest, ICMPEchoReply, ICMPTimeExceeded
	Code     byte
	ID, Seq  uint16

	contents, payload []byte
}

const icmpHeaderLen = 8

// LayerType implements Layer.
func (ic *ICMP) LayerType() LayerType { return TypeICMP }

// LayerContents implements Layer.
func (ic *ICMP) LayerContents() []byte { return ic.contents }

// LayerPayload implements Layer.
func (ic *ICMP) LayerPayload() []byte { return ic.payload }

// DecodeFromBytes implements DecodingLayer.
func (ic *ICMP) DecodeFromBytes(data []byte) error {
	if len(data) < icmpHeaderLen {
		return &DecodeError{TypeICMP, "truncated header"}
	}
	ic.TypeCode = data[0]
	ic.Code = data[1]
	ic.ID = binary.BigEndian.Uint16(data[4:6])
	ic.Seq = binary.BigEndian.Uint16(data[6:8])
	ic.contents = data[:icmpHeaderLen]
	ic.payload = data[icmpHeaderLen:]
	return nil
}

// NextLayerType implements DecodingLayer.
func (ic *ICMP) NextLayerType() LayerType { return TypePayload }

// SerializeTo implements SerializableLayer.
func (ic *ICMP) SerializeTo(b *SerializeBuffer) error {
	hdr := b.Prepend(icmpHeaderLen)
	hdr[0] = ic.TypeCode
	hdr[1] = ic.Code
	binary.BigEndian.PutUint16(hdr[4:6], ic.ID)
	binary.BigEndian.PutUint16(hdr[6:8], ic.Seq)
	ic.contents = hdr
	return nil
}

// ---------------------------------------------------------------------
// Tunnel (VPN encapsulation)
// ---------------------------------------------------------------------

// Tunnel is the VPN encapsulation layer: a session identifier followed by
// the "encrypted" inner packet. The simulator XOR-scrambles the inner
// bytes with a session key so that a capture of tunneled traffic does not
// contain cleartext inner packets — leak analysis must not be able to
// cheat by reading through the tunnel.
type Tunnel struct {
	SessionID uint32

	contents, payload []byte
}

const tunnelHeaderLen = 8

// LayerType implements Layer.
func (tn *Tunnel) LayerType() LayerType { return TypeTunnel }

// LayerContents implements Layer.
func (tn *Tunnel) LayerContents() []byte { return tn.contents }

// LayerPayload returns the encrypted inner bytes.
func (tn *Tunnel) LayerPayload() []byte { return tn.payload }

// DecodeFromBytes implements DecodingLayer.
func (tn *Tunnel) DecodeFromBytes(data []byte) error {
	if len(data) < tunnelHeaderLen {
		return &DecodeError{TypeTunnel, "truncated header"}
	}
	if string(data[0:4]) != "VPN0" {
		return &DecodeError{TypeTunnel, "bad magic"}
	}
	tn.SessionID = binary.BigEndian.Uint32(data[4:8])
	tn.contents = data[:tunnelHeaderLen]
	tn.payload = data[tunnelHeaderLen:]
	return nil
}

// NextLayerType implements DecodingLayer. Tunnel payloads are opaque.
func (tn *Tunnel) NextLayerType() LayerType { return TypePayload }

// SerializeTo implements SerializableLayer.
func (tn *Tunnel) SerializeTo(b *SerializeBuffer) error {
	hdr := b.Prepend(tunnelHeaderLen)
	copy(hdr[0:4], "VPN0")
	binary.BigEndian.PutUint32(hdr[4:8], tn.SessionID)
	tn.contents = hdr
	return nil
}

// Scramble XOR-scrambles (or unscrambles — the operation is an
// involution) data in place with a keystream derived from the session
// key, modeling tunnel encryption without real cryptography.
func Scramble(key uint32, data []byte) {
	state := uint64(key)*0x9E3779B97F4A7C15 + 1
	for i := range data {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		data[i] ^= byte(state)
	}
}

// ---------------------------------------------------------------------
// Payload
// ---------------------------------------------------------------------

// Payload is opaque application bytes.
type Payload []byte

// LayerType implements Layer.
func (p Payload) LayerType() LayerType { return TypePayload }

// LayerContents implements Layer.
func (p Payload) LayerContents() []byte { return p }

// LayerPayload implements Layer.
func (p Payload) LayerPayload() []byte { return nil }

// SerializeTo implements SerializableLayer.
func (p Payload) SerializeTo(b *SerializeBuffer) error {
	copy(b.Prepend(len(p)), p)
	return nil
}

func port(p uint16) []byte {
	return []byte{byte(p >> 8), byte(p)}
}
