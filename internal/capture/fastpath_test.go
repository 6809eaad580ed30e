package capture

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
)

// TestKeystreamMatchesScramble pins Keystream.XOR and the fused
// copy-and-scramble XORInto to Scramble across lengths, keys, and key
// switches mid-stream: the cached keystream must be indistinguishable
// from regenerating it per call. One keystream serves both forms, as
// one world's keystream serves both ends of every tunnel.
func TestKeystreamMatchesScramble(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var ks Keystream
	keys := []uint32{0, 1, 0xDEADBEEF, 1 << 31, 7, 7} // repeats exercise the cache hit
	// Short and odd lengths straddle the 8- and 32-byte strides of
	// vectorised XOR and the 2048-byte extension chunk.
	lengths := []int{0, 1, 7, 8, 9, 31, 32, 33, 63, 65, 100, 2047, 2048, 2049, 4097}
	for round := 0; round < 400; round++ {
		key := keys[rng.Intn(len(keys))]
		n := rng.Intn(4200)
		if round%2 == 0 {
			n = lengths[rng.Intn(len(lengths))]
		}
		src := make([]byte, n)
		rng.Read(src)
		want := append([]byte(nil), src...)
		Scramble(key, want)

		data := append([]byte(nil), src...)
		ks.XOR(key, data)
		if !bytes.Equal(data, want) {
			t.Fatalf("round %d (key %08x, len %d): XOR != Scramble", round, key, n)
		}

		// The fused form into a longer, dirty dst: only its first n
		// bytes change, and src is left intact.
		orig := append([]byte(nil), src...)
		dst := make([]byte, n+5)
		rng.Read(dst)
		tail := append([]byte(nil), dst[n:]...)
		ks.XORInto(key, dst, src)
		if !bytes.Equal(dst[:n], want) || !bytes.Equal(dst[n:], tail) {
			t.Fatalf("round %d (key %08x, len %d): XORInto != copy+Scramble", round, key, n)
		}
		if !bytes.Equal(src, orig) {
			t.Fatalf("round %d (key %08x, len %d): XORInto modified src", round, key, n)
		}
	}
}

func TestKeystreamAllocSteadyState(t *testing.T) {
	var ks Keystream
	data := make([]byte, 1500)
	ks.XOR(42, data) // warm the cache
	if n := testing.AllocsPerRun(100, func() { ks.XOR(42, data) }); n > 0 {
		t.Errorf("steady-state XOR allocates %v per call", n)
	}
	dst := make([]byte, len(data))
	if n := testing.AllocsPerRun(100, func() { ks.XORInto(42, dst, data) }); n > 0 {
		t.Errorf("steady-state XORInto allocates %v per call", n)
	}
}

// TestParseViewMatchesDecoder runs the shape fast path and the full
// decoder over valid, truncated, and bit-flipped packets: the view must
// report the same fields and the same error the decoder pass does.
func TestParseViewMatchesDecoder(t *testing.T) {
	src4, dst4 := netip.MustParseAddr("203.0.113.10"), netip.MustParseAddr("93.184.216.34")
	src6, dst6 := netip.MustParseAddr("2001:db8::10"), netip.MustParseAddr("2001:db8::22")
	pay := Payload([]byte("view fast path"))

	build := func(v6 bool, layers ...SerializableLayer) []byte {
		t.Helper()
		sb := NewSerializeBuffer()
		ip := SerializableLayer(&IPv4{Src: src4, Dst: dst4, TTL: 64, Protocol: protoFor(layers[0])})
		if v6 {
			ip = &IPv6{Src: src6, Dst: dst6, HopLimit: 64, Next: protoFor(layers[0])}
		}
		all := append([]SerializableLayer{ip}, layers...)
		if err := SerializeLayers(sb, all...); err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), sb.Bytes()...)
	}

	var pkts [][]byte
	for _, v6 := range []bool{false, true} {
		pkts = append(pkts,
			build(v6, &UDP{SrcPort: 4000, DstPort: 53}, pay),
			build(v6, &UDP{SrcPort: 4000, DstPort: 53}),
			build(v6, &TCP{SrcPort: 5000, DstPort: 443, Seq: 9, Ack: 10, Flags: FlagACK | FlagPSH}, pay),
			build(v6, &ICMP{TypeCode: ICMPEchoRequest, ID: 7, Seq: 3}, pay),
			build(v6, &Tunnel{SessionID: 0xCAFEBABE}, pay),
			build(v6, &Tunnel{SessionID: 1}),
		)
	}
	// Degenerate shapes.
	pkts = append(pkts, nil, []byte{}, []byte{0x45}, []byte{0x60}, []byte{0x00, 0x11})

	// Truncations and single-byte corruptions of every packet.
	base := len(pkts)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < base; i++ {
		p := pkts[i]
		for cut := 0; cut < len(p); cut += 1 + rng.Intn(4) {
			pkts = append(pkts, p[:cut])
		}
		for flip := 0; flip < 32 && len(p) > 0; flip++ {
			q := append([]byte(nil), p...)
			q[rng.Intn(len(q))] ^= byte(1 << rng.Intn(8))
			pkts = append(pkts, q)
		}
	}

	for i, pkt := range pkts {
		var v PacketView
		gotErr := ParseView(pkt, &v)
		wantView, wantErr := decoderView(pkt)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("pkt %d (%x): ParseView err %q, decoder err %q", i, pkt, errText(gotErr), errText(wantErr))
		}
		if gotErr != nil {
			continue
		}
		if v.Src != wantView.Src || v.Dst != wantView.Dst || v.TTL != wantView.TTL ||
			v.Transport != wantView.Transport || v.SrcPort != wantView.SrcPort ||
			v.DstPort != wantView.DstPort || v.Seq != wantView.Seq || v.Ack != wantView.Ack ||
			v.TCPFlags != wantView.TCPFlags || v.ICMPType != wantView.ICMPType ||
			v.ICMPCode != wantView.ICMPCode || v.ICMPID != wantView.ICMPID ||
			v.ICMPSeq != wantView.ICMPSeq || v.Session != wantView.Session ||
			v.HasNet != wantView.HasNet {
			t.Fatalf("pkt %d (%x): view %+v, decoder view %+v", i, pkt, v, wantView)
		}
		if !bytes.Equal(v.Payload, wantView.Payload) || (v.Payload == nil) != (wantView.Payload == nil) {
			t.Fatalf("pkt %d (%x): payload %v, decoder payload %v", i, pkt, v.Payload, wantView.Payload)
		}
	}
}

// decoderView is the reference: always the full decoder pass.
func decoderView(pkt []byte) (PacketView, error) {
	var v PacketView
	err := slowView(pkt, &v)
	return v, err
}

func protoFor(l SerializableLayer) IPProtocol {
	switch l.(type) {
	case *UDP:
		return ProtoUDP
	case *TCP:
		return ProtoTCP
	case *ICMP:
		return ProtoICMP
	case *Tunnel:
		return ProtoTunnel
	}
	return 0
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
