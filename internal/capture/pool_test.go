package capture

import (
	"bytes"
	"testing"
)

// TestPrependGrowthPath exercises the grow branch directly: prepends
// larger than the remaining front space, and repeated grow cycles, must
// preserve previously written bytes and return zeroed front regions.
func TestPrependGrowthPath(t *testing.T) {
	b := NewSerializeBuffer()
	b.Prepend(0) // degenerate prepend is a no-op
	if len(b.Bytes()) != 0 {
		t.Fatalf("empty buffer has %d bytes", len(b.Bytes()))
	}

	// First fill: bigger than the whole initial capacity, forcing growth
	// on the very first prepend.
	first := bytes.Repeat([]byte{0xAA}, 1000)
	copy(b.Prepend(len(first)), first)

	// Repeated grow cycles: each prepend exceeds whatever front space
	// the previous growth left.
	accum := append([]byte(nil), first...)
	for i := 0; i < 6; i++ {
		chunk := bytes.Repeat([]byte{byte(i + 1)}, 5000)
		front := b.Prepend(len(chunk))
		for j, v := range front {
			if v != 0 {
				t.Fatalf("cycle %d: front[%d] = %#x, want zeroed", i, j, v)
			}
		}
		copy(front, chunk)
		accum = append(chunk, accum...)
		if !bytes.Equal(b.Bytes(), accum) {
			t.Fatalf("cycle %d: contents diverged (len %d vs %d)", i, len(b.Bytes()), len(accum))
		}
	}

	// Clear then reuse: the grown capacity is retained, contents reset.
	b.Clear()
	if len(b.Bytes()) != 0 {
		t.Fatal("Clear left bytes behind")
	}
	copy(b.Prepend(3), "xyz")
	if string(b.Bytes()) != "xyz" {
		t.Fatalf("after clear+prepend: %q", b.Bytes())
	}
}

// TestParserReuseAcrossShapes drives one DecodingLayerParser through
// packets of different shapes and checks each decode reports exactly
// its own layers — no stale layer types from the previous packet.
func TestParserReuseAcrossShapes(t *testing.T) {
	var (
		ip4 IPv4
		ip6 IPv6
		udp UDP
		tcp TCP
		ic  ICMP
		tun Tunnel
	)
	parser := NewDecodingLayerParser(TypeIPv4, &ip4, &ip6, &udp, &tcp, &ic, &tun)
	decoded := []LayerType{}

	serialize := func(layers ...SerializableLayer) []byte {
		buf := NewSerializeBuffer()
		if err := SerializeLayers(buf, layers...); err != nil {
			t.Fatal(err)
		}
		return bytes.Clone(buf.Bytes())
	}
	v4 := &IPv4{TTL: 64, Protocol: ProtoUDP, Src: mustAddr("10.0.0.1"), Dst: mustAddr("10.0.0.2")}

	// Payload is opaque (not a registered DecodingLayer), so decoding
	// stops cleanly after the innermost registered layer.
	shapes := []struct {
		name  string
		data  []byte
		first LayerType
		want  []LayerType
	}{
		{"ipv4-udp", serialize(v4, &UDP{SrcPort: 1, DstPort: 53}, Payload("q")), TypeIPv4,
			[]LayerType{TypeIPv4, TypeUDP}},
		{"ipv4-tcp", serialize(&IPv4{TTL: 64, Protocol: ProtoTCP, Src: v4.Src, Dst: v4.Dst},
			&TCP{SrcPort: 2, DstPort: 80, Flags: FlagSYN}, Payload("GET")), TypeIPv4,
			[]LayerType{TypeIPv4, TypeTCP}},
		{"ipv6-tcp", serialize(&IPv6{HopLimit: 64, Next: ProtoTCP, Src: mustAddr("2001:db8::1"), Dst: mustAddr("2001:db8::2")},
			&TCP{SrcPort: 3, DstPort: 443}, Payload("tls")), TypeIPv6,
			[]LayerType{TypeIPv6, TypeTCP}},
		{"ipv4-icmp", serialize(&IPv4{TTL: 1, Protocol: ProtoICMP, Src: v4.Src, Dst: v4.Dst},
			&ICMP{TypeCode: ICMPEchoRequest, ID: 7, Seq: 9}), TypeIPv4,
			[]LayerType{TypeIPv4, TypeICMP}},
		{"ipv4-tunnel", serialize(&IPv4{TTL: 64, Protocol: ProtoTunnel, Src: v4.Src, Dst: v4.Dst},
			&Tunnel{SessionID: 42}, Payload("inner")), TypeIPv4,
			[]LayerType{TypeIPv4, TypeTunnel}},
	}

	// Two full rounds to prove reuse is shape-order independent.
	for round := 0; round < 2; round++ {
		for _, s := range shapes {
			if err := parser.DecodeLayersFrom(s.first, s.data, &decoded); err != nil {
				t.Fatalf("round %d %s: %v", round, s.name, err)
			}
			if len(decoded) != len(s.want) {
				t.Fatalf("round %d %s: decoded %v, want %v", round, s.name, decoded, s.want)
			}
			for i := range s.want {
				if decoded[i] != s.want[i] {
					t.Fatalf("round %d %s: decoded %v, want %v", round, s.name, decoded, s.want)
				}
			}
		}
	}

	// Truncated input after a successful decode: the error must surface
	// and the decoded list must not retain the previous packet's layers.
	good := shapes[0].data
	if err := parser.DecodeLayersFrom(TypeIPv4, good, &decoded); err != nil {
		t.Fatal(err)
	}
	if err := parser.DecodeLayersFrom(TypeIPv4, good[:ipv4HeaderLen-2], &decoded); err == nil {
		t.Fatal("truncated IPv4 header decoded without error")
	}
	if len(decoded) != 0 {
		t.Fatalf("decoded after truncated header = %v, want empty", decoded)
	}
	// Malformed at the transport layer (UDP length field claims more
	// bytes than exist): the network layer decodes, the transport error
	// surfaces, decoded holds only the network layer.
	badUDP := bytes.Clone(good)
	badUDP[ipv4HeaderLen+5] = 0xFF // UDP length low byte
	if err := parser.DecodeLayersFrom(TypeIPv4, badUDP, &decoded); err == nil {
		t.Fatal("UDP with oversized length field decoded without error")
	}
	if len(decoded) != 1 || decoded[0] != TypeIPv4 {
		t.Fatalf("decoded after truncated UDP = %v, want [IPv4]", decoded)
	}
	// And a clean decode afterwards fully recovers.
	if err := parser.DecodeLayersFrom(TypeIPv4, good, &decoded); err != nil {
		t.Fatalf("decode after malformed inputs: %v", err)
	}
	if len(decoded) != 2 || decoded[0] != TypeIPv4 || decoded[1] != TypeUDP {
		t.Fatalf("decoded = %v", decoded)
	}
}

// TestPacketDecoderReuse checks the pooled high-level decoder: typed
// accessors must reflect only the current packet, across acquire/release
// cycles and across malformed inputs.
func TestPacketDecoderReuse(t *testing.T) {
	udpPkt := buildIPv4UDP(t, []byte("payload-bytes"))

	d := AcquirePacketDecoder()
	if err := d.Decode(udpPkt, TypeIPv4); err != nil {
		t.Fatal(err)
	}
	if u, ok := d.UDP(); !ok || u.DstPort != 53 {
		t.Fatalf("UDP() = %v, %v", u, ok)
	}
	if _, ok := d.TCP(); ok {
		t.Fatal("TCP() reported true for a UDP packet")
	}
	src, dst, ok := d.Addrs()
	if !ok || src != mustAddr("10.0.0.1") || dst != mustAddr("8.8.8.8") {
		t.Fatalf("Addrs() = %v %v %v", src, dst, ok)
	}
	if string(d.Payload()) != "payload-bytes" {
		t.Fatalf("Payload() = %q", d.Payload())
	}

	// Malformed after success: accessors must not echo the stale packet.
	if err := d.Decode(udpPkt[:3], TypeIPv4); err == nil {
		t.Fatal("truncated packet decoded without error")
	}
	if _, ok := d.UDP(); ok {
		t.Fatal("UDP() reported stale layer after failed decode")
	}
	if _, _, ok := d.Addrs(); ok {
		t.Fatal("Addrs() reported stale addresses after failed decode")
	}
	d.Release()

	// A fresh acquire decodes a different shape cleanly.
	d2 := AcquirePacketDecoder()
	defer d2.Release()
	buf := NewSerializeBuffer()
	if err := SerializeLayers(buf,
		&IPv6{HopLimit: 64, Next: ProtoTCP, Src: mustAddr("2001:db8::a"), Dst: mustAddr("2001:db8::b")},
		&TCP{SrcPort: 9, DstPort: 443}, Payload("x"),
	); err != nil {
		t.Fatal(err)
	}
	if err := d2.Decode(buf.Bytes(), TypeIPv6); err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.UDP(); ok {
		t.Fatal("UDP() true for a TCP packet on a pooled decoder")
	}
	if tc, ok := d2.TCP(); !ok || tc.DstPort != 443 {
		t.Fatalf("TCP() = %v, %v", tc, ok)
	}
	if _, _, ok := d2.Addrs(); !ok {
		t.Fatal("Addrs() false for IPv6 packet")
	}
}
