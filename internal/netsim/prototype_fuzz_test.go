package netsim

import (
	"bytes"
	"encoding/binary"
	"testing"

	"vpnscope/internal/arena"
	"vpnscope/internal/capture"
)

// FuzzPacketPrototype pins the tentpole contract of the prototype fast
// path: for any flow and any sequence of mutations to the varying
// fields (ports, seq/ack, flags, ICMP ids, session ids, TTL, payload
// bytes and payload length), the cached-and-patched build — through a
// held Flow handle, into owned arena bytes, and through the keyed path
// alike — emits bytes
// identical to the full layer-by-layer serialize, and returns identical
// errors on the sizes the full path rejects. The incremental RFC 1624
// checksum is cross-checked against a full header recompute on every
// emitted IPv4 packet.
func FuzzPacketPrototype(f *testing.F) {
	f.Add([]byte{0}, []byte("probe"), false)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte("prototype patching"), false)
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, []byte{}, true)
	f.Add([]byte{7, 7, 7, 255, 0, 128}, []byte{0xDE, 0xAD, 0xBE, 0xEF}, true)
	f.Add([]byte{2, 2, 250, 251, 252, 253, 254}, bytes.Repeat([]byte{0x55}, 300), false)
	f.Fuzz(func(t *testing.T, muts, payload []byte, v6 bool) {
		if len(muts) == 0 || len(muts) > 32 {
			t.Skip("mutation sequence outside useful range")
		}
		if len(payload) > 2048 {
			payload = payload[:2048]
		}

		src, dst := addr("203.0.113.10"), addr("93.184.216.34")
		if v6 {
			src, dst = addr("2001:db8::10"), addr("2001:db8::22")
		}

		n := New(1)
		n.SetSlotArena(arena.New())
		// The handle path runs on its own world, so its prototypes evolve
		// independently of the keyed path's.
		hn := New(1)
		hn.SetSlotArena(arena.New())
		var fl Flow

		buf := capture.NewSerializeBuffer()
		refBuf := capture.NewSerializeBuffer()
		hBuf := capture.NewSerializeBuffer()

		errStr := func(err error) string {
			if err == nil {
				return ""
			}
			return err.Error()
		}

		// Each mutation byte perturbs every varying field as a function
		// of its value, then both paths build the same packet.
		pay := append([]byte(nil), payload...)
		for step, m := range muts {
			if len(pay) > 0 {
				pay[int(m)%len(pay)] ^= m // splice different payload bytes
			}
			pay := pay[:len(pay)-len(pay)*int(m%3)/4] // and different lengths
			ttl := byte(1 + uint16(m)%254)
			var transport capture.SerializableLayer
			switch m % 4 {
			case 0:
				transport = &capture.UDP{SrcPort: 40000 + uint16(m), DstPort: uint16(m) * 257}
			case 1:
				transport = &capture.TCP{
					SrcPort: 50000 + uint16(m), DstPort: uint16(step),
					Seq: uint32(m) * 0x01010101, Ack: uint32(step) << 16,
					Flags: m, // serializer masks to 0x1F
				}
			case 2:
				transport = &capture.ICMP{
					TypeCode: capture.ICMPEchoRequest, Code: m,
					ID: uint16(m) << 8, Seq: uint16(step),
				}
			case 3:
				transport = &capture.Tunnel{SessionID: uint32(m)<<24 | uint32(step)}
			}
			inner := []capture.SerializableLayer{transport, capture.Payload(pay)}
			if m%5 == 0 {
				inner = inner[:1] // no-payload shape gets its own prototype
			}

			got, gotErr := n.BuildPacketTTLInto(buf, ttl, src, dst, inner...)
			want, wantErr := buildPacketTTLInto(refBuf, ttl, src, dst, inner...)
			hn.Resolve(&fl, nil, src, dst)
			viaFlow, flowErr := fl.BuildInto(hBuf, ttl, inner...)
			owned, ownedErr := hn.buildOwnedOn(fl.st, ttl, inner...)
			if errStr(gotErr) != errStr(wantErr) {
				t.Fatalf("step %d (m=%d): cached err %q vs full err %q", step, m, errStr(gotErr), errStr(wantErr))
			}
			if errStr(flowErr) != errStr(wantErr) {
				t.Fatalf("step %d (m=%d): handle err %q vs full err %q", step, m, errStr(flowErr), errStr(wantErr))
			}
			if errStr(ownedErr) != errStr(wantErr) {
				t.Fatalf("step %d (m=%d): owned err %q vs full err %q", step, m, errStr(ownedErr), errStr(wantErr))
			}
			if wantErr != nil {
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d (m=%d): cached build differs\ncached: %x\nfull:   %x", step, m, got, want)
			}
			if !bytes.Equal(viaFlow, want) {
				t.Fatalf("step %d (m=%d): handle build differs\nhandle: %x\nfull:   %x", step, m, viaFlow, want)
			}
			if !bytes.Equal(owned, want) {
				t.Fatalf("step %d (m=%d): owned build differs\nowned: %x\nfull:  %x", step, m, owned, want)
			}
			if !v6 {
				// Incremental checksum ≡ full recompute over the header.
				hdr := append([]byte(nil), got[:20]...)
				wantSum := capture.HeaderChecksum(hdr)
				if gotSum := binary.BigEndian.Uint16(got[10:12]); gotSum != wantSum {
					t.Fatalf("step %d: incremental checksum %04x, recomputed %04x", step, gotSum, wantSum)
				}
			}

			// A slot boundary must invalidate the cache without changing
			// subsequent bytes.
			if m%11 == 0 {
				n.BeginSlot()
				hn.BeginSlot()
			}
		}
	})
}
