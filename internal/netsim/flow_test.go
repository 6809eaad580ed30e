package netsim

import (
	"errors"
	"fmt"
	"net/netip"
	"testing"

	"vpnscope/internal/arena"
	"vpnscope/internal/capture"
)

// protoCount counts the packet prototypes the world's flows hold.
func (n *Network) protoCount() int {
	if n.scratch == nil {
		return 0
	}
	return n.scratch.protos.used
}

// dropFlows forgets every resolved flow, so the next packet on each
// resolves from scratch.
func (n *Network) dropFlows() {
	n.epoch++
	if n.scratch != nil {
		n.scratch.resetFlows()
	}
}

// flowWorld is world() plus the handles a long-lived holder keeps
// across every mutation TestFlowHandleFidelity applies.
type flowWorld struct {
	n            *Network
	st           *Stack
	client       *Host
	web, dns     *Host
	mark         int
	held, phys   Flow
	buf          *capture.SerializeBuffer
	ls           capture.LayerScratch
	transient    *Host
	transientDst netip.Addr
	tunneled     int // packets the tunnel interface carried
}

func newFlowWorld(t *testing.T) *flowWorld {
	n, st, web, dns := world(t)
	w := &flowWorld{n: n, st: st, client: st.Host, web: web, dns: dns, buf: capture.NewSerializeBuffer()}
	n.SetSlotArena(n.ScratchArena())
	w.mark = n.HostMark()
	w.transientDst = addr("192.0.2.77")
	return w
}

// step is one observable operation: the response bytes (or error), and
// the clock and tunnel count after it.
type step struct {
	resp     string
	err      string
	clock    int64
	tunneled int
}

func (w *flowWorld) observe(resp []byte, err error) step {
	s := step{resp: fmt.Sprintf("%x", resp), clock: int64(w.n.Clock.Now()), tunneled: w.tunneled}
	if err != nil {
		s.err = err.Error()
	}
	return s
}

// exchangeUDP sends one UDP datagram from the client's host to dst over
// the network, either on a held handle (revalidated with Resolve) or
// through the keyed build and exchange.
func (w *flowWorld) exchangeUDP(dst netip.Addr, held bool, payload string) step {
	w.ls.UDP = capture.UDP{SrcPort: 41000, DstPort: 53}
	layers := w.ls.Pair(&w.ls.UDP, []byte(payload))
	if held {
		w.n.Resolve(&w.held, w.client, w.client.Addr, dst)
		pkt, err := w.held.BuildInto(w.buf, 64, layers...)
		if err != nil {
			return w.observe(nil, err)
		}
		return w.observe(w.held.Exchange(pkt))
	}
	pkt, err := w.n.BuildPacketTTLInto(w.buf, 64, w.client.Addr, dst, layers...)
	if err != nil {
		return w.observe(nil, err)
	}
	return w.observe(w.n.Exchange(w.client, pkt))
}

// sendPhysical sends one UDP datagram out the stack's physical
// interface: on a held PhysicalFlow handle, or keyed through SendVia.
func (w *flowWorld) sendPhysical(dst netip.Addr, held bool) step {
	w.ls.UDP = capture.UDP{SrcPort: 42000, DstPort: 53}
	layers := w.ls.Pair(&w.ls.UDP, []byte("phys"))
	if held {
		w.st.PhysicalFlow(&w.phys, dst)
		pkt, err := w.phys.BuildInto(w.buf, 64, layers...)
		if err != nil {
			return w.observe(nil, err)
		}
		return w.observe(w.st.SendFlow(&w.phys, pkt))
	}
	pkt, err := w.n.BuildPacketTTLInto(w.buf, 64, w.client.Addr, dst, layers...)
	if err != nil {
		return w.observe(nil, err)
	}
	return w.observe(w.st.SendVia(PhysicalName, pkt))
}

// TestFlowHandleFidelity drives two identical worlds through the same
// script: one reuses its handles across every epoch change (slot
// boundaries, host registration and rewind, scratch release, route,
// interface and allowlist changes), the other takes the keyed path and
// forgets every resolved flow before each step, so each of its packets
// is looked up fresh. Bytes, errors and the clock must agree step for
// step.
func TestFlowHandleFidelity(t *testing.T) {
	tunnel := func(w *flowWorld) {
		// A tunnel interface whose frames go out the physical interface
		// unchanged, counted so a stale route through it shows.
		w.st.AddInterface(TunnelName, addr("10.8.0.2"), func(pkt []byte) ([]byte, error) {
			w.tunneled++
			return w.st.SendVia(PhysicalName, pkt)
		})
		w.st.AddRoute(Route{Prefix: netip.MustParsePrefix("198.51.100.0/24"), Iface: TunnelName})
		w.st.AddRoute(Route{Prefix: netip.MustParsePrefix("93.184.216.0/24"), Iface: TunnelName})
	}
	ops := []struct {
		name string
		run  func(w *flowWorld, held bool) step
	}{
		{"udp", func(w *flowWorld, held bool) step { return w.exchangeUDP(w.dns.Addr, held, "q1") }},
		{"udp-again", func(w *flowWorld, held bool) step { return w.exchangeUDP(w.dns.Addr, held, "q2 longer") }},
		{"phys", func(w *flowWorld, held bool) step { return w.sendPhysical(w.dns.Addr, held) }},
		{"stack-tcp", func(w *flowWorld, _ bool) step { return w.observe(w.st.ExchangeTCP(w.web.Addr, 80, []byte("GET"))) }},
		{"begin-slot", func(w *flowWorld, _ bool) step { w.n.BeginSlot(); return w.observe(nil, nil) }},
		{"udp-after-slot", func(w *flowWorld, held bool) step { return w.exchangeUDP(w.dns.Addr, held, "q3") }},
		{"unrouted", func(w *flowWorld, held bool) step { return w.exchangeUDP(w.transientDst, held, "nobody") }},
		{"add-host", func(w *flowWorld, _ bool) step {
			w.transient = NewHost("transient", city(t, "Paris"), w.transientDst)
			w.transient.HandleUDP(53, func(netip.Addr, uint16, []byte) []byte { return []byte("here now") })
			return w.observe(nil, w.n.AddHost(w.transient))
		}},
		{"routed-now", func(w *flowWorld, held bool) step { return w.exchangeUDP(w.transientDst, held, "anybody") }},
		{"rewind", func(w *flowWorld, _ bool) step { w.n.RewindHosts(w.mark); return w.observe(nil, nil) }},
		{"unrouted-again", func(w *flowWorld, held bool) step { return w.exchangeUDP(w.transientDst, held, "gone") }},
		{"release-scratch", func(w *flowWorld, _ bool) step {
			w.n.ReleaseScratch()
			w.n.SetSlotArena(w.n.ScratchArena())
			return w.observe(nil, nil)
		}},
		{"udp-after-release", func(w *flowWorld, held bool) step { return w.exchangeUDP(w.dns.Addr, held, "q4") }},
		{"phys-after-release", func(w *flowWorld, held bool) step { return w.sendPhysical(w.dns.Addr, held) }},
		{"tunnel", func(w *flowWorld, _ bool) step { tunnel(w); return w.observe(nil, nil) }},
		{"via-tunnel", func(w *flowWorld, _ bool) step { return w.observe(w.st.QueryUDP(w.dns.Addr, 53, []byte("t"))) }},
		{"blackhole", func(w *flowWorld, _ bool) step {
			w.st.AddRoute(Route{Prefix: netip.MustParsePrefix("198.51.100.53/32"), Iface: PhysicalName, Blackhole: true})
			return w.observe(nil, nil)
		}},
		{"blackholed", func(w *flowWorld, _ bool) step { return w.observe(w.st.QueryUDP(w.dns.Addr, 53, []byte("b"))) }},
		{"web-via-tunnel", func(w *flowWorld, _ bool) step {
			return w.observe(w.st.ExchangeTCP(w.web.Addr, 80, []byte("GET /t")))
		}},
		{"remove-tunnel", func(w *flowWorld, _ bool) step { w.st.RemoveInterface(TunnelName); return w.observe(nil, nil) }},
		{"still-blackholed", func(w *flowWorld, _ bool) step {
			rtt, err := w.st.Ping(w.dns.Addr)
			return w.observe([]byte(fmt.Sprint(rtt)), err)
		}},
		{"web-direct", func(w *flowWorld, _ bool) step {
			return w.observe(w.st.ExchangeTCP(w.web.Addr, 80, []byte("GET /d")))
		}},
		{"unblackhole", func(w *flowWorld, _ bool) step {
			w.st.RemoveRoutes(func(r Route) bool { return r.Blackhole })
			return w.observe(nil, nil)
		}},
		{"phys-open", func(w *flowWorld, held bool) step { return w.sendPhysical(w.dns.Addr, held) }},
		{"query-open", func(w *flowWorld, _ bool) step { return w.observe(w.st.QueryUDP(w.dns.Addr, 53, []byte("o"))) }},
		{"allow-only", func(w *flowWorld, _ bool) step {
			w.st.SetAllowOnly([]netip.Addr{w.web.Addr})
			return w.observe(nil, nil)
		}},
		{"phys-blocked", func(w *flowWorld, held bool) step { return w.sendPhysical(w.dns.Addr, held) }},
		{"query-blocked", func(w *flowWorld, _ bool) step { return w.observe(w.st.QueryUDP(w.dns.Addr, 53, []byte("x"))) }},
		{"allow-also", func(w *flowWorld, _ bool) step { w.st.AllowAlso(w.dns.Addr); return w.observe(nil, nil) }},
		{"phys-allowed", func(w *flowWorld, held bool) step { return w.sendPhysical(w.dns.Addr, held) }},
		{"traceroute", func(w *flowWorld, _ bool) step {
			hops, err := w.st.Traceroute(w.web.Addr, 12)
			return w.observe([]byte(fmt.Sprint(hops)), err)
		}},
		{"v6-off", func(w *flowWorld, _ bool) step { w.st.SetIPv6(false); return w.observe(nil, nil) }},
		{"v6-probe", func(w *flowWorld, _ bool) step {
			return w.observe(w.st.ExchangeTCP(addr("2001:db8::80"), 80, []byte("v6")))
		}},
	}

	held, fresh := newFlowWorld(t), newFlowWorld(t)
	for _, op := range ops {
		fresh.n.dropFlows()
		got, want := op.run(held, true), op.run(fresh, false)
		if got != want {
			t.Fatalf("%s: handle path %+v, keyed path %+v", op.name, got, want)
		}
	}
	if held.n.Exchanges() != fresh.n.Exchanges() {
		t.Fatalf("exchanges: handle path %d, keyed path %d", held.n.Exchanges(), fresh.n.Exchanges())
	}
}

// TestBlackholeErrorMemoised: every packet that hits a blackhole route
// fails with the same error value, with fmt's text and ErrBlocked
// identity.
func TestBlackholeErrorMemoised(t *testing.T) {
	_, st, _, _ := world(t)
	prefix := netip.MustParsePrefix("::/0")
	st.RemoveRoutes(func(r Route) bool { return r.Prefix == prefix })
	st.AddRoute(Route{Prefix: prefix, Iface: PhysicalName, Blackhole: true})
	want := fmt.Errorf("%w: blackhole route %v", ErrBlocked, prefix).Error()
	var first error
	for i, dst := range []string{"2001:db8::1", "2001:db8::2", "2001:db8::1"} {
		_, err := st.ExchangeTCP(addr(dst), 80, []byte("x"))
		if !errors.Is(err, ErrBlocked) || err.Error() != want {
			t.Fatalf("probe %d: %v, want %q wrapping ErrBlocked", i, err, want)
		}
		if first == nil {
			first = err
		} else if err != first {
			t.Fatalf("probe %d built a new error", i)
		}
	}
}

// flowSendAllocCeiling gates BenchmarkFlowSend: a packet built and
// exchanged on a held handle, answered into the slot arena, allocates
// nothing.
const flowSendAllocCeiling = 0

// BenchmarkFlowSend sends one UDP query per op on a held flow handle:
// revalidate, build (prototype patch), exchange, deliver, reply build.
// A slot boundary every slotOps ops makes the handle re-resolve.
func BenchmarkFlowSend(b *testing.B) {
	n, st, _, _ := world(b)
	n.SetSlotArena(arena.New())
	answer := []byte("answer")
	echo := NewHost("echo", city(b, "Amsterdam"), addr("198.51.100.99"))
	echo.HandleUDP(53, func(netip.Addr, uint16, []byte) []byte { return answer })
	if err := n.AddHost(echo); err != nil {
		b.Fatal(err)
	}
	client := st.Host
	var (
		fl  Flow
		ls  capture.LayerScratch
		ops int
	)
	query := []byte("query")
	fn := func() {
		if ops++; ops%slotOps == 0 {
			n.BeginSlot()
		}
		n.Resolve(&fl, client, client.Addr, echo.Addr)
		buf := n.AcquireBuffer()
		ls.UDP = capture.UDP{SrcPort: 40000 + uint16(ops%64), DstPort: 53}
		pkt, err := fl.BuildInto(buf, 64, ls.Pair(&ls.UDP, query)...)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := fl.Exchange(pkt)
		n.ReleaseBuffer(buf)
		if err != nil || resp == nil {
			b.Fatal("no answer", err)
		}
	}
	gateAllocs(b, "FlowSend", flowSendAllocCeiling, fn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
}
