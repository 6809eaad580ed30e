package netsim

import (
	"net/netip"
	"testing"

	"vpnscope/internal/arena"
	"vpnscope/internal/capture"
)

// TestSlotScopedCaptures: a stack whose captures are scoped to the slot
// records only outbound packets on its physical interface, the records
// the slot's tests read; a bare stack records every packet on every
// interface. Traffic goes out the physical interface directly (a held
// flow and a stack flow) and through a tunnel interface whose send
// carries the packet out the physical one.
func TestSlotScopedCaptures(t *testing.T) {
	type counts struct{ physOut, physIn, tunOut, tunIn int }
	run := func(t *testing.T, scoped bool) counts {
		n, stack, server, dns := world(t)
		if scoped {
			n.SetSlotArena(arena.New())
			stack.ScopeCapturesToSlot(n.SlotArena().Bytes)
		}
		stack.AddInterface(TunnelName, addr("10.8.0.2"), func(pkt []byte) ([]byte, error) {
			return stack.SendVia(PhysicalName, pkt)
		})
		stack.AddRoute(Route{Prefix: netip.MustParsePrefix("0.0.0.0/0"), Iface: TunnelName})
		stack.AddRoute(Route{Prefix: netip.PrefixFrom(server.Addr, 32), Iface: PhysicalName})

		if _, err := stack.QueryUDP(dns.Addr, 53, []byte("q")); err != nil {
			t.Fatal(err)
		}
		if _, err := stack.ExchangeTCP(server.Addr, 80, []byte("hi")); err != nil {
			t.Fatal(err)
		}
		var f Flow
		stack.PhysicalFlow(&f, dns.Addr)
		pkt, err := f.Build(&capture.UDP{SrcPort: 5353, DstPort: 53}, capture.Payload("p"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stack.SendFlow(&f, pkt); err != nil {
			t.Fatal(err)
		}

		var c counts
		tally := func(name string, out, in *int) {
			for _, rec := range stack.Interface(name).Sink.View(0) {
				if rec.Interface != name {
					t.Errorf("%s sink holds a record from %s", name, rec.Interface)
				}
				if rec.Dir == capture.DirOut {
					*out++
				} else {
					*in++
				}
			}
		}
		tally(PhysicalName, &c.physOut, &c.physIn)
		tally(TunnelName, &c.tunOut, &c.tunIn)
		return c
	}
	t.Run("bare stack records everything", func(t *testing.T) {
		if got, want := run(t, false), (counts{physOut: 3, physIn: 3, tunOut: 1, tunIn: 1}); got != want {
			t.Errorf("captures = %+v, want %+v", got, want)
		}
	})
	t.Run("slot-scoped stack records physical outbound only", func(t *testing.T) {
		if got, want := run(t, true), (counts{physOut: 3}); got != want {
			t.Errorf("captures = %+v, want %+v", got, want)
		}
	})
}
