package netsim

import (
	"errors"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"vpnscope/internal/capture"
	"vpnscope/internal/geo"
)

func city(t testing.TB, name string) geo.City {
	t.Helper()
	c, ok := geo.CityByName(name)
	if !ok {
		t.Fatalf("unknown city %q", name)
	}
	return c
}

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

// heapPacket serializes a heap-owned packet outside any world, for
// tests that need wire bytes without a Network's freelist or arena.
func heapPacket(ttl byte, src, dst netip.Addr, inner ...capture.SerializableLayer) ([]byte, error) {
	pkt, err := buildPacketTTLInto(capture.NewSerializeBuffer(), ttl, src, dst, inner...)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), pkt...), nil
}

// world builds a tiny Internet: a client in Chicago, an echo server in
// London, a DNS-ish UDP server in Frankfurt.
func world(t testing.TB) (*Network, *Stack, *Host, *Host) {
	t.Helper()
	n := New(1)
	client := NewHost("client", city(t, "Chicago"), addr("203.0.113.10"))
	client.Addr6 = addr("2001:db8:c::10")
	server := NewHost("web-london", city(t, "London"), addr("93.184.216.34"))
	dns := NewHost("dns-frankfurt", city(t, "Frankfurt"), addr("198.51.100.53"))
	for _, h := range []*Host{client, server, dns} {
		if err := n.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	server.HandleTCP(80, func(src netip.Addr, srcPort uint16, payload []byte) []byte {
		return append([]byte("echo:"), payload...)
	})
	dns.HandleUDP(53, func(src netip.Addr, srcPort uint16, payload []byte) []byte {
		return []byte("answer")
	})
	return n, NewStack(n, client), server, dns
}

func TestClock(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatal("clock must start at zero")
	}
	c.Advance(3 * time.Second)
	c.Advance(-5 * time.Second) // ignored
	if c.Now() != 3*time.Second {
		t.Fatalf("now = %v", c.Now())
	}
}

func TestAllocator(t *testing.T) {
	b := Block{Prefix: netip.MustParsePrefix("10.9.0.0/30"), ASN: 64512, Org: "Test"}
	a := NewAllocator(b)
	first := a.MustNext()
	if first != addr("10.9.0.1") {
		t.Fatalf("first = %v", first)
	}
	a.MustNext() // .2
	a.MustNext() // .3
	if _, err := a.Next(); err == nil {
		t.Fatal("expected exhaustion")
	}
}

func TestAddHostConflicts(t *testing.T) {
	n := New(1)
	h1 := NewHost("a", city(t, "London"), addr("10.0.0.1"))
	h2 := NewHost("b", city(t, "Paris"), addr("10.0.0.1"))
	if err := n.AddHost(h1); err != nil {
		t.Fatal(err)
	}
	if err := n.AddHost(h2); err == nil {
		t.Fatal("expected duplicate-address error")
	}
	if err := n.AddHost(h1); err != nil {
		t.Fatal("re-adding same host must be idempotent:", err)
	}
	bad := &Host{Name: "noaddr"}
	if err := n.AddHost(bad); err == nil {
		t.Fatal("expected error for host without address")
	}
}

// TestAddHostConflictLeavesRegistryUntouched: a host whose IPv6 address
// is taken must not stay registered under its (free) IPv4 address — a
// half-registration RewindHosts could never undo, since the failed host
// never joins the registration journal.
func TestAddHostConflictLeavesRegistryUntouched(t *testing.T) {
	n := New(1)
	la := city(t, "Los Angeles")
	a := NewHost("a", la, addr("198.51.100.1"))
	a.Addr6 = addr("2001:db8::1")
	if err := n.AddHost(a); err != nil {
		t.Fatal(err)
	}
	mark := n.HostMark()
	b := NewHost("b", la, addr("198.51.100.2"))
	b.Addr6 = a.Addr6
	if err := n.AddHost(b); err == nil {
		t.Fatal("expected duplicate-IPv6 error")
	}
	if got := n.HostByAddr(b.Addr); got != nil {
		t.Fatalf("HostByAddr(b.Addr) after failed AddHost = %q, want nil", got.Name)
	}
	n.RewindHosts(mark)
	if got := n.HostByAddr(b.Addr); got != nil {
		t.Fatalf("HostByAddr(b.Addr) after rewind = %q, want nil", got.Name)
	}
	if got := n.HostByAddr(a.Addr6); got != a {
		t.Fatal("the conflicting AddHost disturbed the owner of the IPv6 address")
	}
}

func TestUDPExchangeAndClock(t *testing.T) {
	n, stack, _, dns := world(t)
	before := n.Clock.Now()
	resp, err := stack.QueryUDP(dns.Addr, 53, []byte("query"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "answer" {
		t.Fatalf("resp = %q", resp)
	}
	elapsed := n.Clock.Now() - before
	// Chicago-Frankfurt ~7000 km; with 2x stretch RTT ~140ms.
	if elapsed < 80*time.Millisecond || elapsed > 250*time.Millisecond {
		t.Errorf("UDP exchange took %v of virtual time", elapsed)
	}
}

func TestTCPCostsTwoRTTs(t *testing.T) {
	n, stack, server, dns := world(t)
	t0 := n.Clock.Now()
	if _, err := stack.QueryUDP(dns.Addr, 53, []byte("q")); err != nil {
		t.Fatal(err)
	}
	udpTime := n.Clock.Now() - t0

	t1 := n.Clock.Now()
	if _, err := stack.ExchangeTCP(server.Addr, 80, []byte("GET /")); err != nil {
		t.Fatal(err)
	}
	tcpTime := n.Clock.Now() - t1
	// London is closer than Frankfurt from Chicago, yet TCP should cost
	// roughly twice its own one-way exchange; compare against a UDP
	// exchange to the same host instead.
	t2 := n.Clock.Now()
	server.HandleUDP(7, func(netip.Addr, uint16, []byte) []byte { return []byte("ok") })
	if _, err := stack.QueryUDP(server.Addr, 7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	udpSame := n.Clock.Now() - t2
	if tcpTime < udpSame*3/2 {
		t.Errorf("TCP (%v) should cost ~2x UDP (%v) to same host", tcpTime, udpSame)
	}
	_ = udpTime
}

func TestExchangeErrors(t *testing.T) {
	n, stack, server, _ := world(t)
	// Unknown destination.
	if _, err := stack.QueryUDP(addr("192.0.2.99"), 53, []byte("q")); !errors.Is(err, ErrNoRoute) {
		t.Errorf("unknown dst err = %v", err)
	}
	// Closed port.
	if _, err := stack.QueryUDP(server.Addr, 9999, []byte("q")); !errors.Is(err, ErrRefused) {
		t.Errorf("closed port err = %v", err)
	}
	// Host down burns the timeout.
	server.SetDown(true)
	before := n.Clock.Now()
	if _, err := stack.ExchangeTCP(server.Addr, 80, []byte("q")); !errors.Is(err, ErrTimeout) {
		t.Errorf("down host err = %v", err)
	}
	if n.Clock.Now()-before < Timeout {
		t.Error("timeout must burn the timeout budget")
	}
}

func TestPing(t *testing.T) {
	_, stack, server, _ := world(t)
	rtt, err := stack.Ping(server.Addr)
	if err != nil {
		t.Fatal(err)
	}
	// Chicago-London ~6350km -> ~127ms with 2x stretch.
	if rtt < 70 || rtt > 220 {
		t.Errorf("ping rtt = %.1f ms", rtt)
	}
}

func TestNetworkPingAndTraceroute(t *testing.T) {
	n, _, server, _ := world(t)
	client := n.HostByAddr(addr("203.0.113.10"))
	rtt, err := n.Ping(client, server.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 {
		t.Error("ping must advance the clock")
	}
	hops, err := n.Traceroute(client, server.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) < 3 {
		t.Fatalf("got %d hops", len(hops))
	}
	if hops[len(hops)-1].Addr != server.Addr {
		t.Error("last hop must be the destination")
	}
	// RTTs grow (roughly) along the path; first hop < last hop.
	if hops[0].RTT >= hops[len(hops)-1].RTT {
		t.Errorf("hop RTTs not increasing: %v .. %v", hops[0].RTT, hops[len(hops)-1].RTT)
	}
	if _, err := n.Traceroute(client, addr("192.0.2.99")); !errors.Is(err, ErrNoRoute) {
		t.Errorf("unrouted traceroute err = %v", err)
	}
}

func TestCapturesRecorded(t *testing.T) {
	_, stack, _, dns := world(t)
	if _, err := stack.QueryUDP(dns.Addr, 53, []byte("query")); err != nil {
		t.Fatal(err)
	}
	recs := stack.Interface(PhysicalName).Sink.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want out+in", len(recs))
	}
	if recs[0].Dir != capture.DirOut || recs[1].Dir != capture.DirIn {
		t.Error("capture directions wrong")
	}
	p := capture.NewPacket(recs[0].Data, capture.TypeIPv4, capture.Default)
	if u, ok := p.Layer(capture.TypeUDP).(*capture.UDP); !ok || u.DstPort != 53 {
		t.Error("outbound capture should be the DNS query")
	}
}

func TestFirewallAllowOnly(t *testing.T) {
	_, stack, server, dns := world(t)
	stack.SetAllowOnly([]netip.Addr{dns.Addr})
	if _, err := stack.QueryUDP(dns.Addr, 53, []byte("q")); err != nil {
		t.Fatalf("allowed host blocked: %v", err)
	}
	if _, err := stack.ExchangeTCP(server.Addr, 80, []byte("q")); !errors.Is(err, ErrBlocked) {
		t.Errorf("blocked host err = %v", err)
	}
	stack.AllowAlso(server.Addr)
	if _, err := stack.ExchangeTCP(server.Addr, 80, []byte("q")); err != nil {
		t.Errorf("AllowAlso host still blocked: %v", err)
	}
	stack.SetAllowOnly(nil)
	if _, err := stack.ExchangeTCP(server.Addr, 80, []byte("q")); err != nil {
		t.Errorf("firewall removal failed: %v", err)
	}
}

func TestRoutingLongestPrefix(t *testing.T) {
	n, stack, server, _ := world(t)
	// A tunnel interface that answers directly (loopback-style).
	var viaTunnel bool
	stack.AddInterface(TunnelName, addr("10.8.0.2"), func(pkt []byte) ([]byte, error) {
		viaTunnel = true
		return n.Exchange(stack.Host, pkt)
	})
	stack.AddRoute(Route{Prefix: netip.MustParsePrefix("0.0.0.0/0"), Iface: TunnelName})
	stack.AddRoute(Route{Prefix: netip.MustParsePrefix("93.184.216.34/32"), Iface: PhysicalName})

	// /32 beats default: direct.
	if _, err := stack.ExchangeTCP(server.Addr, 80, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if viaTunnel {
		t.Error("host route should bypass tunnel")
	}
	// Anything else goes via the most recent default (tunnel).
	dns := addr("198.51.100.53")
	if _, err := stack.QueryUDP(dns, 53, []byte("q")); err != nil {
		t.Fatal(err)
	}
	if !viaTunnel {
		t.Error("default route should use tunnel")
	}
}

func TestBlackholeRoute(t *testing.T) {
	_, stack, server, _ := world(t)
	stack.AddRoute(Route{Prefix: netip.MustParsePrefix("93.184.216.34/32"), Iface: PhysicalName, Blackhole: true})
	if _, err := stack.ExchangeTCP(server.Addr, 80, []byte("q")); !errors.Is(err, ErrBlocked) {
		t.Errorf("blackhole err = %v", err)
	}
}

func TestIPv6Paths(t *testing.T) {
	n, stack, _, _ := world(t)
	v6srv := NewHost("v6srv", city(t, "Paris"), addr("198.51.100.80"))
	v6srv.Addr6 = addr("2001:db8:80::1")
	v6srv.HandleTCP(80, func(netip.Addr, uint16, []byte) []byte { return []byte("v6 ok") })
	if err := n.AddHost(v6srv); err != nil {
		t.Fatal(err)
	}
	resp, err := stack.ExchangeTCP(v6srv.Addr6, 80, []byte("GET"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "v6 ok" {
		t.Fatalf("resp = %q", resp)
	}
	// Disabling IPv6 blocks it.
	stack.SetIPv6(false)
	if _, err := stack.ExchangeTCP(v6srv.Addr6, 80, []byte("GET")); !errors.Is(err, ErrBlocked) {
		t.Errorf("v6-disabled err = %v", err)
	}
}

func TestRemoveInterfaceDropsRoutes(t *testing.T) {
	n, stack, _, dns := world(t)
	stack.AddInterface(TunnelName, addr("10.8.0.2"), func(pkt []byte) ([]byte, error) {
		return n.Exchange(stack.Host, pkt)
	})
	stack.AddRoute(Route{Prefix: netip.MustParsePrefix("0.0.0.0/0"), Iface: TunnelName})
	stack.RemoveInterface(TunnelName)
	// Traffic falls back to the physical default.
	if _, err := stack.QueryUDP(dns.Addr, 53, []byte("q")); err != nil {
		t.Fatal(err)
	}
	for _, r := range stack.Routes() {
		if r.Iface == TunnelName && !r.Blackhole {
			t.Error("tunnel routes must be removed with the interface")
		}
	}
}

func TestReliabilityTimeouts(t *testing.T) {
	n := New(7)
	c := NewHost("c", city(t, "London"), addr("10.0.0.1"))
	flaky := NewHost("flaky", city(t, "Cairo"), addr("10.0.0.2"))
	flaky.Reliability = 0.5
	flaky.HandleUDP(7, func(netip.Addr, uint16, []byte) []byte { return []byte("y") })
	if err := n.AddHost(c); err != nil {
		t.Fatal(err)
	}
	if err := n.AddHost(flaky); err != nil {
		t.Fatal(err)
	}
	stack := NewStack(n, c)
	fails := 0
	for i := 0; i < 100; i++ {
		if _, err := stack.QueryUDP(flaky.Addr, 7, []byte("x")); err != nil {
			fails++
		}
	}
	if fails < 30 || fails > 70 {
		t.Errorf("flaky host failed %d/100, want ~50", fails)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() time.Duration {
		n, stack, server, dns := world(t)
		_, _ = stack.QueryUDP(dns.Addr, 53, []byte("q"))
		_, _ = stack.ExchangeTCP(server.Addr, 80, []byte("r"))
		_, _ = stack.Ping(server.Addr)
		return n.Clock.Now()
	}
	if run() != run() {
		t.Fatal("identical seeds must replay identically")
	}
}

func BenchmarkUDPExchange(b *testing.B) {
	_, stack, _, dns := world(b)
	payload := []byte("benchmark query")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stack.QueryUDP(dns.Addr, 53, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPing(b *testing.B) {
	_, stack, server, _ := world(b)
	for i := 0; i < b.N; i++ {
		if _, err := stack.Ping(server.Addr); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStackTracerouteDirect(t *testing.T) {
	_, stack, server, _ := world(t)
	hops, err := stack.Traceroute(server.Addr, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) < 3 {
		t.Fatalf("hops = %d", len(hops))
	}
	last := hops[len(hops)-1]
	if !last.Reached || last.Addr != server.Addr {
		t.Fatalf("last hop = %+v, want the destination", last)
	}
	// Intermediate hops are synthetic routers in 198.18.0.0/15.
	for _, h := range hops[:len(hops)-1] {
		if !h.Addr.IsValid() {
			continue
		}
		if b := h.Addr.As4(); b[0] != 198 || b[1]&0xFE != 18 {
			t.Errorf("router %v outside benchmark space", h.Addr)
		}
	}
	// RTTs increase along the path (with modest jitter).
	if hops[0].RTTms >= last.RTTms {
		t.Errorf("first hop %.1f ms >= destination %.1f ms", hops[0].RTTms, last.RTTms)
	}
}

func TestTTLExpiry(t *testing.T) {
	n, stack, server, _ := world(t)
	// A TTL-1 ICMP probe dies at the first router, not the server.
	pkt, err := heapPacket(1, stack.Host.Addr, server.Addr,
		&capture.ICMP{TypeCode: capture.ICMPEchoRequest, ID: 1, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := n.Exchange(stack.Host, pkt)
	if err != nil {
		t.Fatal(err)
	}
	p := capture.NewPacket(resp, capture.TypeIPv4, capture.Default)
	ic, ok := p.Layer(capture.TypeICMP).(*capture.ICMP)
	if !ok || ic.TypeCode != capture.ICMPTimeExceeded {
		t.Fatalf("resp = %s, want Time Exceeded", p)
	}
	src, _ := netip.AddrFromSlice(p.NetworkLayer().NetworkFlow().Src())
	if src == server.Addr {
		t.Error("Time Exceeded must come from a router, not the destination")
	}
}

func TestTracerouteConsistentWithNetworkPath(t *testing.T) {
	// The stack's TTL-ladder and the network's synthetic path agree on
	// the router addresses.
	n, stack, server, _ := world(t)
	ladder, err := stack.Traceroute(server.Addr, 16)
	if err != nil {
		t.Fatal(err)
	}
	path, err := n.Traceroute(stack.Host, server.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(ladder) != len(path) {
		t.Fatalf("ladder %d hops vs path %d hops", len(ladder), len(path))
	}
	for i := range path {
		if ladder[i].Addr != path[i].Addr {
			t.Errorf("hop %d: ladder %v vs path %v", i, ladder[i].Addr, path[i].Addr)
		}
	}
}

// TestHostsDeterministicOrder verifies Hosts() returns an
// address-sorted slice rather than map-iteration order, so callers can
// iterate it in deterministic studies.
func TestHostsDeterministicOrder(t *testing.T) {
	n := New(7)
	addrs := []string{"10.0.0.9", "10.0.0.1", "192.0.2.7", "10.0.0.4", "172.16.0.3"}
	for i, a := range addrs {
		h := NewHost(fmt.Sprintf("h%d", i), city(t, "London"), addr(a))
		if err := n.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	first := n.Hosts()
	for i := 1; i < len(first); i++ {
		if first[i-1].Addr.Compare(first[i].Addr) >= 0 {
			t.Fatalf("Hosts() not address-sorted: %v before %v", first[i-1].Addr, first[i].Addr)
		}
	}
	for round := 0; round < 5; round++ {
		again := n.Hosts()
		if len(again) != len(first) {
			t.Fatalf("Hosts() length changed: %d vs %d", len(again), len(first))
		}
		for i := range again {
			if again[i] != first[i] {
				t.Fatalf("round %d: Hosts()[%d] differs", round, i)
			}
		}
	}
}

// TestHostCacheInvalidation pins the HostByAddr MRU cache to registry
// semantics: lookups must stop resolving the moment a host is rewound
// away and must see a re-registration, even when the address was
// cached.
func TestHostCacheInvalidation(t *testing.T) {
	n := New(3)
	la := city(t, "Los Angeles")

	a := NewHost("a", la, addr("198.51.100.1"))
	if err := n.AddHost(a); err != nil {
		t.Fatal(err)
	}
	mark := n.HostMark()
	b := NewHost("b", la, addr("198.51.100.2"))
	if err := n.AddHost(b); err != nil {
		t.Fatal(err)
	}

	// Warm the cache on both addresses.
	if got := n.HostByAddr(b.Addr); got != b {
		t.Fatalf("HostByAddr(b) = %v, want b", got)
	}
	if got := n.HostByAddr(a.Addr); got != a {
		t.Fatalf("HostByAddr(a) = %v, want a", got)
	}

	n.RewindHosts(mark)
	if got := n.HostByAddr(b.Addr); got != nil {
		t.Fatalf("HostByAddr(b) after rewind = %v, want nil", got)
	}
	if got := n.HostByAddr(a.Addr); got != a {
		t.Fatalf("HostByAddr(a) after rewind = %v, want a", got)
	}

	// Re-register under the same address: cached nil must not stick.
	b2 := NewHost("b2", la, addr("198.51.100.2"))
	if err := n.AddHost(b2); err != nil {
		t.Fatal(err)
	}
	if got := n.HostByAddr(b2.Addr); got != b2 {
		t.Fatalf("HostByAddr(b2) = %v, want b2", got)
	}
}
