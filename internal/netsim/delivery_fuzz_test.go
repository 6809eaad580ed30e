package netsim

import (
	"bytes"
	"net/netip"
	"testing"

	"vpnscope/internal/capture"
)

// FuzzBatchedDelivery pins the invariant that let batched delivery
// replace the historical one-response-per-return path: delivering a
// packet sequence through one shared ring emits exactly the packets, in
// exactly the order, that a fresh ring per packet produces — same
// bytes, same errors. A shared ring reuses its layer scratch and its
// emit closure across deliveries, so any aliasing of pooled scratch
// into an emitted packet shows up here as a byte mismatch.
func FuzzBatchedDelivery(f *testing.F) {
	f.Add([]byte{0}, []byte("query"))
	f.Add([]byte{0, 1, 2, 3, 4}, []byte("batched delivery"))
	f.Add([]byte{3, 3, 3, 0}, []byte{0x80, 0x01, 0x02})
	f.Add([]byte{2, 4, 1, 2}, []byte{})
	f.Add([]byte{4, 4, 0, 3, 1}, []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x05})
	f.Fuzz(func(t *testing.T, modes, payload []byte) {
		if len(modes) == 0 || len(modes) > 16 {
			t.Skip("sequence length outside useful range")
		}
		if len(payload) > 512 {
			payload = payload[:512]
		}

		n := New(42)
		client := NewHost("client", city(t, "Chicago"), addr("203.0.113.10"))
		plain := NewHost("plain", city(t, "London"), addr("93.184.216.34"))
		tun := NewHost("tun", city(t, "Frankfurt"), addr("198.51.100.99"))
		for _, h := range []*Host{client, plain, tun} {
			if err := n.AddHost(h); err != nil {
				t.Fatal(err)
			}
		}
		plain.HandleUDP(53, func(src netip.Addr, srcPort uint16, p []byte) []byte {
			return append([]byte("udp:"), p...)
		})
		plain.HandleTCP(80, func(src netip.Addr, srcPort uint16, p []byte) []byte {
			return append([]byte("tcp:"), p...)
		})
		// The tunnel host answers raw frames with a pure function of the
		// frame: a deterministic number of owned reply packets. Odd-length
		// frames fall through to port dispatch (which, with no transport
		// layer matching, emits nothing) — the VPN-host dual-service shape.
		tun.HandleRaw(func(n *Network, pkt []byte, emit func([]byte)) bool {
			if len(pkt)%2 == 1 {
				return false
			}
			src, _, err := peekSrc(pkt)
			if err != nil {
				return true
			}
			for i := 0; i < len(pkt)%3+1; i++ {
				reply, err := n.BuildPacket(tun.Addr, src,
					&capture.UDP{SrcPort: 9, DstPort: 9},
					capture.Payload([]byte{byte(i), byte(len(pkt))}))
				if err == nil {
					emit(reply)
				}
			}
			return true
		})

		// Build the probe sequence. Each mode byte picks a packet shape;
		// every probe is heap-owned, so both delivery passes can reuse it.
		var pkts [][]byte
		var targets []*Host
		for i, m := range modes {
			var (
				pkt    []byte
				target *Host
				err    error
			)
			switch m % 5 {
			case 0: // open UDP port
				pkt, err = heapPacket(64, client.Addr, plain.Addr,
					&capture.UDP{SrcPort: 40000 + uint16(i), DstPort: 53}, capture.Payload(payload))
				target = plain
			case 1: // open TCP port
				pkt, err = heapPacket(64, client.Addr, plain.Addr,
					&capture.TCP{SrcPort: 40000 + uint16(i), DstPort: 80, Flags: capture.FlagSYN}, capture.Payload(payload))
				target = plain
			case 2: // ICMP echo
				pkt, err = heapPacket(64, client.Addr, plain.Addr,
					&capture.ICMP{TypeCode: capture.ICMPEchoRequest, ID: uint16(i), Seq: 1}, capture.Payload(payload))
				target = plain
			case 3: // raw tunnel frame
				pkt, err = heapPacket(64, client.Addr, tun.Addr,
					&capture.Tunnel{SessionID: uint32(i)}, capture.Payload(payload))
				target = tun
			case 4: // closed UDP port (refused, no emission)
				pkt, err = heapPacket(64, client.Addr, plain.Addr,
					&capture.UDP{SrcPort: 40000 + uint16(i), DstPort: 9999}, capture.Payload(payload))
				target = plain
			}
			if err != nil {
				t.Fatal(err)
			}
			pkts = append(pkts, pkt)
			targets = append(targets, target)
		}

		errStr := func(err error) string {
			if err == nil {
				return ""
			}
			return err.Error()
		}

		// Baseline: a fresh, never-recycled ring per packet.
		var single [][]byte
		var singleErrs []string
		for i, pkt := range pkts {
			r := new(deliveryRing)
			r.emitFn = r.emit
			singleErrs = append(singleErrs, errStr(n.deliver(targets[i], pkt, r)))
			single = append(single, r.pkts...)
		}

		// Batched: the whole sequence through one recycled ring from the
		// world, emissions accumulating across deliveries.
		ring := n.takeRing()
		var batchedErrs []string
		for i, pkt := range pkts {
			batchedErrs = append(batchedErrs, errStr(n.deliver(targets[i], pkt, ring)))
		}
		batched := append([][]byte(nil), ring.pkts...)
		n.putRing(ring)

		for i := range pkts {
			if singleErrs[i] != batchedErrs[i] {
				t.Fatalf("delivery %d: single err %q vs batched err %q", i, singleErrs[i], batchedErrs[i])
			}
		}
		if len(single) != len(batched) {
			t.Fatalf("emitted %d packets one-at-a-time vs %d batched", len(single), len(batched))
		}
		for i := range single {
			if !bytes.Equal(single[i], batched[i]) {
				t.Fatalf("emission %d differs:\nsingle:  %x\nbatched: %x", i, single[i], batched[i])
			}
		}
	})
}
