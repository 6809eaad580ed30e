package netsim

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"

	"vpnscope/internal/capture"
)

// SendFunc delivers a raw IP packet out an interface and returns the
// response packet (nil when the exchange has no response).
type SendFunc func(pkt []byte) ([]byte, error)

// Interface is one network interface of a Stack. The physical interface
// ("en0") delivers straight onto the Network; tunnel interfaces
// ("utun0") are installed by VPN clients with an encapsulating SendFunc.
type Interface struct {
	Name string
	Addr netip.Addr
	Sink *capture.Sink
	send SendFunc
	// direct marks the physical interface NewStack installs, whose send
	// is a plain exchange from the stack's host: flow sends exchange on
	// their handle instead of calling send.
	direct bool
}

// Route maps a destination prefix to an egress interface. Longest
// prefix wins; ties break toward the most recently added route.
type Route struct {
	Prefix netip.Prefix
	Iface  string
	// Blackhole drops matching packets instead of forwarding them —
	// how a well-behaved VPN client disables IPv6 it cannot carry.
	Blackhole bool
}

// PhysicalName and TunnelName are the conventional interface names,
// mirroring macOS (the paper's test platform).
const (
	PhysicalName = "en0"
	TunnelName   = "utun0"
)

// Stack is a client machine's network stack: interfaces, a routing
// table, resolver configuration, IPv6 state, and an outbound firewall.
// It is the layer VPN client software manipulates, and the layer whose
// misconfigurations the paper's leak tests (§5.3.3) expose. A stack
// belongs to its Network's owner goroutine, like the rest of the world.
type Stack struct {
	Host *Host
	Net  *Network

	ifaces    map[string]*Interface
	routes    []Route
	resolvers []netip.Addr
	ipv6      bool
	// allowOnly, when non-nil, drops any packet leaving the physical
	// interface whose destination is not in the set (the tunnel-failure
	// test harness and provider kill switches both use this).
	allowOnly map[netip.Addr]bool
	// webrtcMasked models the browser/extension setting that stops
	// WebRTC ICE gathering from revealing local interface addresses;
	// some VPN products toggle it, most cannot.
	webrtcMasked bool
	// slotScoped marks a stack whose captures die with its slot
	// (ScopeCapturesToSlot): it records only outbound packets on the
	// physical interface.
	slotScoped bool

	// ls backs the transport headers and payload boxing exchange()
	// serializes from. Safe as a single scratch (not a stack) despite
	// tunnel-nested exchanges: the layers are fully serialized into the
	// packet before Send can re-enter exchange.
	ls capture.LayerScratch

	// allSinks tracks every sink this stack ever created (interfaces
	// can be removed before teardown, taking their map entry with
	// them); Retire harvests their record arrays for the next slot.
	allSinks []*capture.Sink

	// epoch is the stack epoch its flows are checked against (flow.go):
	// every route, interface, allowlist and IPv6 change advances it.
	epoch uint64
	// id numbers the stack within its world, for the stack-flow table.
	id uint32
}

// stackKey identifies one stack flow in the world's table.
type stackKey struct {
	s   *Stack
	dst netip.Addr
}

// stackFlow is a stack's resolved route to one destination: everything
// Send decides per packet, decided once per stack epoch.
type stackFlow struct {
	dst   netip.Addr
	epoch uint64 // the stack epoch it was resolved at
	// routed reports whether a route matches dst; src is the source
	// address packets to dst get (invalid when there is none).
	routed bool
	src    netip.Addr
	// iface is the egress interface. sendErr, when set, is what Send
	// fails with before anything is captured: IPv6 disabled, no route,
	// a blackhole route, the interface gone, or the physical firewall.
	iface   *Interface
	sendErr error
	// net is the flow packets to dst are built on, and exchanged on
	// when iface is the physical interface.
	net Flow
}

// NewStack builds a stack for host with its physical interface and
// default routes installed.
func NewStack(n *Network, host *Host) *Stack {
	s := &Stack{
		Host:   host,
		Net:    n,
		ifaces: make(map[string]*Interface),
		ipv6:   host.HasIPv6(),
		epoch:  1,
	}
	n.stacks++
	s.id = n.stacks
	phys := &Interface{
		Name:   PhysicalName,
		Addr:   host.Addr,
		Sink:   capture.NewSink(),
		send:   func(pkt []byte) ([]byte, error) { return n.exchange(host, pkt) },
		direct: true,
	}
	s.adoptSink(phys.Sink)
	s.ifaces[PhysicalName] = phys
	s.routes = []Route{{Prefix: netip.MustParsePrefix("0.0.0.0/0"), Iface: PhysicalName}}
	if host.HasIPv6() {
		s.routes = append(s.routes, Route{Prefix: netip.MustParsePrefix("::/0"), Iface: PhysicalName})
	}
	return s
}

// Interface returns the named interface, or nil.
func (s *Stack) Interface(name string) *Interface {
	return s.ifaces[name]
}

// AddInterface installs a new interface (a VPN tunnel device).
func (s *Stack) AddInterface(name string, addr netip.Addr, send SendFunc) *Interface {
	iface := &Interface{Name: name, Addr: addr, Sink: capture.NewSink(), send: send}
	s.adoptSink(iface.Sink)
	s.ifaces[name] = iface
	s.epoch++
	return iface
}

// adoptSink registers a fresh sink for Retire and seeds it with a
// recycled record array.
func (s *Stack) adoptSink(sink *capture.Sink) {
	if backing := s.Net.takeSinkBacking(); backing != nil {
		sink.Rebase(backing)
	}
	s.allSinks = append(s.allSinks, sink)
}

// Retire hands every sink's record array back to the network's scratch
// bundle. The campaign runner calls it when a slot's client machine is
// torn down; the stack must not capture traffic afterwards, and its
// sinks read back empty.
func (s *Stack) Retire() {
	for _, sink := range s.allSinks {
		s.Net.putSinkBacking(sink.Rebase(nil))
	}
	s.allSinks = nil
}

// ScopeCapturesToSlot makes the stack's captures slot-scoped: from now
// on it records only packets leaving its physical interface — the only
// records a slot reads (the leak and peer-exit tests scan them) — and
// copies their payloads with alloc, the slot arena, so they recycle at
// the slot boundary. Inbound packets and tunnel-interface traffic go
// unrecorded. The campaign runner calls it when captures are not
// collected into reports; a stack whose captures are collected (pcap
// export, report snapshots) never calls it and records everything.
func (s *Stack) ScopeCapturesToSlot(alloc func(n int) []byte) {
	s.slotScoped = true
	s.ifaces[PhysicalName].Sink.SetAlloc(alloc)
}

// record captures pkt crossing iface in direction dir, unless the
// stack is slot-scoped and no slot reads such a record.
func (s *Stack) record(iface *Interface, dir capture.Direction, pkt []byte) {
	if s.slotScoped && (dir != capture.DirOut || iface.Name != PhysicalName) {
		return
	}
	iface.Sink.Capture(s.Net.Clock.Now(), iface.Name, dir, pkt)
}

// RemoveInterface tears down the named interface and any routes through
// it.
func (s *Stack) RemoveInterface(name string) {
	delete(s.ifaces, name)
	s.epoch++
	kept := s.routes[:0]
	for _, r := range s.routes {
		if r.Iface != name || r.Blackhole {
			kept = append(kept, r)
		}
	}
	s.routes = kept
}

// AddRoute installs a route. Routes added later win ties.
func (s *Stack) AddRoute(r Route) {
	s.routes = append(s.routes, r)
	s.epoch++
}

// RemoveRoutes deletes all routes matching pred.
func (s *Stack) RemoveRoutes(pred func(Route) bool) {
	kept := s.routes[:0]
	for _, r := range s.routes {
		if !pred(r) {
			kept = append(kept, r)
		}
	}
	s.routes = kept
	s.epoch++
}

// Routes returns a copy of the routing table.
func (s *Stack) Routes() []Route {
	out := make([]Route, len(s.routes))
	copy(out, s.routes)
	return out
}

// lookupRoute returns the best route for dst, or nil.
func (s *Stack) lookupRoute(dst netip.Addr) *Route {
	var best *Route
	for i := range s.routes {
		r := &s.routes[i]
		if !r.Prefix.Contains(dst) {
			continue
		}
		if best == nil ||
			r.Prefix.Bits() > best.Prefix.Bits() ||
			(r.Prefix.Bits() == best.Prefix.Bits() && i > 0) {
			best = r
		}
	}
	return best
}

// SetResolvers replaces the system DNS resolver list.
func (s *Stack) SetResolvers(addrs ...netip.Addr) {
	s.resolvers = append([]netip.Addr(nil), addrs...)
}

// Resolvers returns the configured DNS resolvers.
func (s *Stack) Resolvers() []netip.Addr {
	return append([]netip.Addr(nil), s.resolvers...)
}

// Resolver0 returns the first configured resolver without copying the
// whole list — the overwhelmingly common lookup on the DNS hot path.
func (s *Stack) Resolver0() (netip.Addr, bool) {
	if len(s.resolvers) == 0 {
		return netip.Addr{}, false
	}
	return s.resolvers[0], true
}

// SetIPv6 toggles IPv6 on the stack.
func (s *Stack) SetIPv6(on bool) {
	s.ipv6 = on
	s.epoch++
}

// SetAllowOnly installs (or, with nil, removes) the physical-interface
// outbound allowlist used to induce tunnel failures and to model kill
// switches. The resulting firewall drops packets to any destination not
// listed.
func (s *Stack) SetAllowOnly(addrs []netip.Addr) {
	s.epoch++
	if addrs == nil {
		s.allowOnly = nil
		return
	}
	m := make(map[netip.Addr]bool, len(addrs))
	for _, a := range addrs {
		m[a] = true
	}
	s.allowOnly = m
}

// AllowAlso adds addresses to an existing allowlist (no-op when the
// firewall is disabled).
func (s *Stack) AllowAlso(addrs ...netip.Addr) {
	if s.allowOnly == nil {
		return
	}
	s.epoch++
	for _, a := range addrs {
		s.allowOnly[a] = true
	}
}

func (s *Stack) blockedByFirewall(dst netip.Addr) bool {
	return s.allowOnly != nil && !s.allowOnly[dst]
}

// Send routes a raw IP packet out the stack: route lookup, firewall,
// capture, delivery, response capture. It returns the raw response
// packet (nil for one-way traffic).
func (s *Stack) Send(pkt []byte) ([]byte, error) {
	s.Net.owner.check("Stack.Send")
	dst, _, err := peekIP(pkt)
	if err != nil {
		return nil, err
	}
	return s.send(s.flow(dst), pkt)
}

// flow returns the stack's resolved route to dst, from the world's
// stack-flow table: the one lookup a stack exchange makes.
func (s *Stack) flow(dst netip.Addr) *stackFlow {
	var packed uint64
	if dst.Is4() {
		d4 := dst.As4()
		packed = uint64(s.id)<<32 | uint64(binary.BigEndian.Uint32(d4[:]))
	}
	sf, fresh := s.Net.bundle().stackFlows.get(packed, dst.Is4(), stackKey{s, dst})
	if fresh {
		sf.dst = dst
	}
	s.refresh(sf)
	return sf
}

// refresh re-resolves sf if the stack changed since it was resolved.
func (s *Stack) refresh(sf *stackFlow) {
	if sf.epoch == s.epoch {
		return
	}
	dst := sf.dst
	*sf = stackFlow{dst: dst, epoch: s.epoch}
	route := s.lookupRoute(dst)
	if route != nil {
		sf.routed = true
		sf.src = s.srcAddrFor(dst, route)
	}
	switch {
	case dst.Is6() && !s.ipv6:
		sf.sendErr = errV6Disabled
	case route == nil:
		sf.sendErr = s.Net.errAddr(ErrNoRoute, dst, " (no route)")
	case route.Blackhole:
		sf.sendErr = s.Net.errBlackhole(route.Prefix)
	default:
		sf.iface = s.ifaces[route.Iface]
		switch {
		case sf.iface == nil:
			sf.sendErr = fmt.Errorf("%w: interface %q gone", ErrNoRoute, route.Iface)
		case route.Iface == PhysicalName && s.blockedByFirewall(dst):
			sf.sendErr = s.Net.errAddr(ErrBlocked, dst, "")
		}
	}
}

// netFlow returns sf's packet flow, revalidated.
func (s *Stack) netFlow(sf *stackFlow) *Flow {
	var from *Host
	if sf.iface != nil && sf.iface.direct {
		from = s.Host
	}
	s.Net.Resolve(&sf.net, from, sf.src, sf.dst)
	return &sf.net
}

// send is Send on a resolved stack flow, re-resolved if the stack
// changed since (a send can fail a tunnel open mid-traceroute).
func (s *Stack) send(sf *stackFlow, pkt []byte) ([]byte, error) {
	s.refresh(sf)
	if sf.sendErr != nil {
		return nil, sf.sendErr
	}
	var st *flowState
	if sf.iface.direct {
		st = s.netFlow(sf).st
	}
	return s.transmit(sf.iface, st, pkt)
}

// transmit captures pkt leaving iface, sends it — on flow st when iface
// is the direct physical interface — and captures the response.
func (s *Stack) transmit(iface *Interface, st *flowState, pkt []byte) ([]byte, error) {
	s.record(iface, capture.DirOut, pkt)
	var resp []byte
	var err error
	if st != nil {
		resp, err = s.Net.exchangeOn(s.Host, st, pkt, peekProto(pkt))
	} else {
		resp, err = iface.send(pkt)
	}
	if err != nil {
		return nil, err
	}
	if resp != nil {
		s.record(iface, capture.DirIn, resp)
	}
	return resp, nil
}

// PhysicalFlow resolves f, unless it is live and keyed so already, as
// the flow from the stack's host out its physical interface to dst,
// with that interface and the firewall's verdict on dst: the handle a
// tunnel client holds for its encapsulated traffic and sends with
// SendFlow.
func (s *Stack) PhysicalFlow(f *Flow, dst netip.Addr) {
	if f.stack == s && f.sepoch == s.epoch && f.epoch == s.Net.epoch && f.dst == dst {
		return
	}
	src := s.Host.Addr
	if dst.Is6() {
		src = s.Host.Addr6
	}
	s.Net.Resolve(f, s.Host, src, dst)
	f.stack, f.sepoch = s, s.epoch
	f.iface, f.blocked = s.ifaces[PhysicalName], s.blockedByFirewall(dst)
}

// SendFlow is SendVia(PhysicalName, pkt) for a packet built on f, a
// handle from PhysicalFlow: the firewall verdict, target, path and
// reply prototype come from the handle.
func (s *Stack) SendFlow(f *Flow, pkt []byte) ([]byte, error) {
	s.Net.owner.check("Stack.SendFlow")
	if f.stack != s || f.sepoch != s.epoch || f.epoch != s.Net.epoch {
		staleFlow("Stack.SendFlow")
		s.PhysicalFlow(f, f.dst)
	}
	st, iface := f.st, f.iface
	if iface == nil {
		return nil, fmt.Errorf("%w: interface %q gone", ErrNoRoute, PhysicalName)
	}
	if f.blocked {
		return nil, s.Net.flowBlocked(st)
	}
	if !iface.direct {
		st = nil
	}
	return s.transmit(iface, st, pkt)
}

// SendVia sends a raw IP packet out a specific interface, applying the
// physical firewall and recording captures. VPN clients call this with
// the physical interface to carry their encapsulated traffic.
func (s *Stack) SendVia(ifaceName string, pkt []byte) ([]byte, error) {
	s.Net.owner.check("Stack.SendVia")
	return s.sendVia(ifaceName, pkt)
}

// sendVia is SendVia without the ownership check, for Send (which
// already checked).
func (s *Stack) sendVia(ifaceName string, pkt []byte) ([]byte, error) {
	iface := s.ifaces[ifaceName]
	if iface == nil {
		return nil, fmt.Errorf("%w: interface %q gone", ErrNoRoute, ifaceName)
	}
	if ifaceName == PhysicalName {
		dst, _, err := peekIP(pkt)
		if err != nil {
			return nil, err
		}
		if s.blockedByFirewall(dst) {
			return nil, s.Net.errAddr(ErrBlocked, dst, "")
		}
	}
	s.record(iface, capture.DirOut, pkt)
	resp, err := iface.send(pkt)
	if err != nil {
		return nil, err
	}
	if resp != nil {
		s.record(iface, capture.DirIn, resp)
	}
	return resp, nil
}

// srcAddrFor picks the source address for a destination: the egress
// interface's address, matching the destination's family.
func (s *Stack) srcAddrFor(dst netip.Addr, route *Route) netip.Addr {
	if dst.Is6() {
		if s.Host.HasIPv6() {
			return s.Host.Addr6
		}
		return netip.Addr{}
	}
	if iface := s.ifaces[route.Iface]; iface != nil && iface.Addr.IsValid() {
		return iface.Addr
	}
	return s.Host.Addr
}

// QueryUDP performs one UDP request/response with dst:port.
func (s *Stack) QueryUDP(dst netip.Addr, port uint16, payload []byte) ([]byte, error) {
	return s.exchange(dst, port, payload, false)
}

// ExchangeTCP performs one TCP request/response with dst:port.
func (s *Stack) ExchangeTCP(dst netip.Addr, port uint16, payload []byte) ([]byte, error) {
	return s.exchange(dst, port, payload, true)
}

func (s *Stack) exchange(dst netip.Addr, port uint16, payload []byte, tcp bool) ([]byte, error) {
	s.Net.owner.check("Stack.Send")
	sf := s.flow(dst)
	if !sf.routed {
		return nil, s.Net.errAddr(ErrNoRoute, dst, " (no route)")
	}
	if !sf.src.IsValid() {
		return nil, s.Net.errWith(ErrNoRoute, "no ", dst, " source address")
	}
	var transport capture.SerializableLayer
	srcPort := s.ephemeralPort()
	if tcp {
		s.ls.TCP = capture.TCP{SrcPort: srcPort, DstPort: port, Flags: capture.FlagACK | capture.FlagPSH}
		transport = &s.ls.TCP
	} else {
		s.ls.UDP = capture.UDP{SrcPort: srcPort, DstPort: port}
		transport = &s.ls.UDP
	}
	buf := s.Net.AcquireBuffer()
	defer s.Net.ReleaseBuffer(buf)
	pkt, err := s.netFlow(sf).BuildInto(buf, 64, s.ls.Pair(transport, payload)...)
	if err != nil {
		return nil, err
	}
	resp, err := s.send(sf, pkt)
	if err != nil {
		return nil, err
	}
	if resp == nil {
		return nil, nil
	}
	// resp is owned by this call, so the decoded payload may alias it.
	var v capture.PacketView
	if err := capture.ParseView(resp, &v); err != nil {
		return nil, nil // matches Packet semantics: no application layer
	}
	return v.Payload, nil
}

// Ping sends an ICMP echo to dst via the routing table and returns its
// RTT as observed by the stack (virtual clock delta).
func (s *Stack) Ping(dst netip.Addr) (rtt float64, err error) {
	s.Net.owner.check("Stack.Send")
	sf := s.flow(dst)
	if !sf.routed {
		return 0, s.Net.errAddr(ErrNoRoute, dst, " (no route)")
	}
	if !sf.src.IsValid() {
		return 0, s.Net.errWith(ErrNoRoute, "no source address for ", dst, "")
	}
	buf := s.Net.AcquireBuffer()
	defer s.Net.ReleaseBuffer(buf)
	s.ls.ICMP = capture.ICMP{TypeCode: capture.ICMPEchoRequest, ID: 9, Seq: 1}
	pkt, err := s.netFlow(sf).BuildInto(buf, 64, s.ls.One(&s.ls.ICMP)...)
	if err != nil {
		return 0, err
	}
	before := s.Net.Clock.Now()
	resp, err := s.send(sf, pkt)
	if err != nil {
		return 0, err
	}
	if resp == nil {
		return 0, s.Net.errWith(ErrTimeout, "no echo reply from ", dst, "")
	}
	return float64(s.Net.Clock.Now()-before) / 1e6, nil // milliseconds
}

// SetWebRTCMasked toggles the browser's WebRTC local-address masking.
func (s *Stack) SetWebRTCMasked(masked bool) {
	s.webrtcMasked = masked
}

// WebRTCMasked reports whether ICE gathering hides local addresses.
func (s *Stack) WebRTCMasked() bool {
	return s.webrtcMasked
}

// InterfaceAddrs returns every address configured on the stack's
// interfaces (plus the host's IPv6 address) — the host-candidate set
// WebRTC ICE gathering exposes to web pages.
func (s *Stack) InterfaceAddrs() []netip.Addr {
	var out []netip.Addr
	for _, iface := range s.ifaces {
		if iface.Addr.IsValid() {
			out = append(out, iface.Addr)
		}
	}
	if s.Host.HasIPv6() {
		out = append(out, s.Host.Addr6)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// TracerouteHop is one hop discovered by Stack.Traceroute.
type TracerouteHop struct {
	Addr netip.Addr
	// RTTms is the round trip to the hop in milliseconds.
	RTTms float64
	// Reached marks the final hop (echo reply from the destination).
	Reached bool
}

// Traceroute runs a classic TTL ladder toward dst through the routing
// table (so a tunnel default route produces the view from inside the
// tunnel): ICMP echoes with increasing TTL, collecting the Time
// Exceeded responders until the destination answers or maxHops is
// exhausted.
func (s *Stack) Traceroute(dst netip.Addr, maxHops int) ([]TracerouteHop, error) {
	if maxHops <= 0 {
		maxHops = 16
	}
	s.Net.owner.check("Stack.Send")
	sf := s.flow(dst)
	if !sf.routed {
		return nil, s.Net.errAddr(ErrNoRoute, dst, " (no route)")
	}
	if !sf.src.IsValid() {
		return nil, s.Net.errWith(ErrNoRoute, "no source address for ", dst, "")
	}
	// Every probe keeps the first route's source address, even if a
	// probe's failure reroutes the stack; a copy of the handle holds it.
	probes := *s.netFlow(sf)
	var out []TracerouteHop
	buf := s.Net.AcquireBuffer()
	defer s.Net.ReleaseBuffer(buf)
	probe := capture.ICMP{TypeCode: capture.ICMPEchoRequest, ID: 33}
	for ttl := 1; ttl <= maxHops; ttl++ {
		probe.Seq = uint16(ttl)
		s.Net.Resolve(&probes, probes.from, probes.src, dst)
		pkt, err := probes.BuildInto(buf, byte(ttl), &probe)
		if err != nil {
			return out, err
		}
		before := s.Net.Clock.Now()
		resp, err := s.send(sf, pkt)
		rtt := float64(s.Net.Clock.Now()-before) / 1e6
		if err != nil || resp == nil {
			// Silent hop: record an invalid address, keep probing.
			out = append(out, TracerouteHop{RTTms: rtt})
			continue
		}
		var v capture.PacketView
		if err := capture.ParseView(resp, &v); err != nil {
			out = append(out, TracerouteHop{RTTms: rtt})
			continue
		}
		if !v.HasNet || v.Transport != capture.TypeICMP {
			out = append(out, TracerouteHop{RTTms: rtt})
			continue
		}
		hop := TracerouteHop{Addr: v.Src, RTTms: rtt}
		if v.ICMPType == capture.ICMPEchoReply {
			hop.Reached = true
			out = append(out, hop)
			return out, nil
		}
		out = append(out, hop)
	}
	return out, nil
}

// ephemeralPort returns a source port; deterministic but spread, derived
// from the virtual clock.
func (s *Stack) ephemeralPort() uint16 {
	return uint16(49152 + (uint64(s.Net.Clock.Now())/1000)%16000)
}

// CaptureAll returns every record across all interfaces, ordered by
// capture time (stable for equal times).
func (s *Stack) CaptureAll() []capture.Record {
	var out []capture.Record
	for _, i := range s.ifaces {
		out = append(out, i.Sink.Records()...)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Time < out[b].Time })
	return out
}
