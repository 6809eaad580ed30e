package netsim

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"vpnscope/internal/arena"
	"vpnscope/internal/capture"
	"vpnscope/internal/geo"
	"vpnscope/internal/simrand"
)

// Errors returned by exchanges.
var (
	// ErrTimeout means the peer never answered (host down, lossy path,
	// or firewalled). The clock still advances by the timeout budget.
	ErrTimeout = errors.New("netsim: timeout")
	// ErrNoRoute means no host owns the destination address.
	ErrNoRoute = errors.New("netsim: no route to host")
	// ErrRefused means the host exists but nothing listens on the port.
	ErrRefused = errors.New("netsim: connection refused")
	// ErrBlocked means a local firewall rule dropped the packet before
	// it left the stack.
	ErrBlocked = errors.New("netsim: blocked by local firewall")
)

// Timeout is the virtual-time budget spent on an exchange that never
// completes, matching a typical client socket timeout.
const Timeout = 5 * time.Second

// FaultAction is a fault injector's verdict on one exchange. The zero
// value lets the exchange proceed untouched.
type FaultAction struct {
	// Drop times the exchange out, burning the full timeout budget —
	// a lossy path or a flapping link.
	Drop bool
	// Refuse fails the exchange immediately with ErrRefused — a dead
	// or overloaded endpoint actively rejecting the connection.
	Refuse bool
	// Delay adds extra latency to an exchange that still completes —
	// a transient congestion spike.
	Delay time.Duration
}

// FaultClass is what a fault hook knows about one destination (for
// internal/faultsim: whether it is a resolver, whether it is a vantage
// point). Flows resolve it once, so the per-exchange decision probes no
// address set.
type FaultClass uint8

// FaultHook is a fault injector. Classify is consulted once per flow
// (again after a world epoch change); Decide once per originated
// exchange, before the network's own reliability model, with the
// virtual time, the destination's class and the packet's transport
// protocol. Install with SetFaultHook; internal/faultsim builds
// deterministic, seed-reproducible hooks.
type FaultHook interface {
	Classify(dst netip.Addr) FaultClass
	Decide(now time.Duration, class FaultClass, proto capture.IPProtocol) FaultAction
}

// Network is the simulated Internet: a registry of hosts plus the
// latency, jitter, and loss models that govern exchanges between them.
//
// A Network is single-owner: exactly one goroutine drives it (and the
// hosts and stacks attached to it) at a time, from New onward. Nothing
// in the world is locked; ownership moves between goroutines only at a
// slot boundary (BeginSlot). Builds tagged ownerdebug enforce this —
// see owner_on.go.
type Network struct {
	Clock *Clock

	rttModel  geo.RTTModel
	hosts     map[netip.Addr]*Host
	hostLog   []*Host // registration journal, backing HostMark/RewindHosts
	rng       *simrand.Source
	seed      uint64
	faultHook FaultHook

	// owner is the ownerdebug goroutine stamp (zero-size otherwise).
	owner ownerStamp

	// slotArena, when set, supplies the owned reply-packet copies and
	// prototype header images made on the delivery path. The campaign
	// runner installs the scratch bundle's arena once per measuring world
	// (ScratchArena) and BeginSlot resets it at vantage-point slot
	// boundaries; packets never outlive a slot, so the
	// per-packet copies become bump allocations the GC never sees. Nil
	// (build time, before the campaign starts) falls back to the heap,
	// which build-time traffic needs: its results outlive every slot.
	slotArena *arena.Arena

	// epoch is the world epoch flow handles are checked against
	// (flow.go). It starts at 1, so a zero Flow is stale.
	epoch uint64

	// errCache interns the repeated refused/timed-out/blocked failures
	// of a lossy campaign (errors.go).
	errCache map[errKey]error

	// scratch is the world's recyclable working memory (scratch.go):
	// slot-arena chunks, capture record arrays, serialize buffers. Taken
	// from the process pool on first need, returned by ReleaseScratch.
	scratch *scratch

	// exchanges counts packet exchanges over the world's lifetime; the
	// campaign runner reads its per-slot delta.
	exchanges int64

	// stacks numbers the world's stacks, which key the stack-flow table.
	stacks uint32
}

// New creates an empty network seeded for deterministic jitter and loss.
// The goroutine that first drives it becomes its owner.
func New(seed uint64) *Network {
	return &Network{
		Clock:    NewClock(),
		rttModel: geo.DefaultRTTModel,
		hosts:    make(map[netip.Addr]*Host),
		rng:      simrand.New(seed).Fork("netsim"),
		seed:     seed,
		epoch:    1,
	}
}

// SetSlotArena installs the slot-scoped allocator backing reply-packet
// copies and prototype images (see the field comment). Call it before
// the first BeginSlot; everything built earlier stays on the heap.
func (n *Network) SetSlotArena(a *arena.Arena) { n.slotArena = a }

// SlotArena returns the installed slot arena (nil when unset).
func (n *Network) SlotArena() *arena.Arena { return n.slotArena }

// Exchanges returns how many packet exchanges the network has run.
func (n *Network) Exchanges() int64 { return n.exchanges }

// SetFaultHook installs (or, with nil, removes) the fault injector
// consulted on every exchange. The hook must classify every address the
// same way for as long as it is installed.
func (n *Network) SetFaultHook(h FaultHook) {
	n.owner.check("SetFaultHook")
	n.faultHook = h
	n.epoch++
}

// ResetStream re-derives the network's stochastic stream (jitter and
// reliability draws) from the base seed and a phase label. The campaign
// runner resets the stream at every vantage-point boundary, which makes
// each vantage point's measurements independent of how much of the
// campaign ran before it — the property kill/resume relies on.
func (n *Network) ResetStream(label string) {
	n.owner.check("ResetStream")
	n.rng = simrand.New(n.seed).Fork("netsim").Fork(label)
}

// AddHost registers h under its IPv4 (and, if present, IPv6) address.
// A conflict on either address leaves the registry untouched.
func (n *Network) AddHost(h *Host) error {
	n.owner.check("AddHost")
	if !h.Addr.IsValid() {
		return fmt.Errorf("netsim: host %q has no address", h.Name)
	}
	other, existed := n.hosts[h.Addr]
	if existed && other != h {
		return fmt.Errorf("netsim: address %v already owned by %q", h.Addr, other.Name)
	}
	if h.Addr6.IsValid() {
		if other, ok := n.hosts[h.Addr6]; ok && other != h {
			return fmt.Errorf("netsim: address %v already owned by %q", h.Addr6, other.Name)
		}
	}
	n.epoch++
	n.hosts[h.Addr] = h
	if h.Addr6.IsValid() {
		n.hosts[h.Addr6] = h
	}
	if !existed {
		n.hostLog = append(n.hostLog, h)
	}
	return nil
}

// HostMark returns a rewind point capturing the hosts registered so
// far. Pass it to RewindHosts to deregister everything added after it.
func (n *Network) HostMark() int { return len(n.hostLog) }

// RewindHosts deregisters every host added after mark (a value from
// HostMark), in reverse registration order. The campaign runner uses it
// at vantage-point slot boundaries to undo the per-slot client machines
// instead of rebuilding the whole world: a host's registry entry is the
// only world-global state AddHost creates, so removal restores the
// registry to its state at the mark. Live references to a removed Host
// (e.g. a Stack built on it) stay usable for originating exchanges —
// only lookups of its address stop resolving.
func (n *Network) RewindHosts(mark int) {
	n.owner.check("RewindHosts")
	n.epoch++
	if mark < 0 || mark >= len(n.hostLog) {
		return
	}
	for i := len(n.hostLog) - 1; i >= mark; i-- {
		h := n.hostLog[i]
		if n.hosts[h.Addr] == h {
			delete(n.hosts, h.Addr)
		}
		if h.Addr6.IsValid() && n.hosts[h.Addr6] == h {
			delete(n.hosts, h.Addr6)
		}
	}
	n.hostLog = n.hostLog[:mark]
}

// HostByAddr returns the host owning addr, or nil.
func (n *Network) HostByAddr(addr netip.Addr) *Host {
	n.owner.check("HostByAddr")
	return n.hosts[addr]
}

// Hosts returns all registered hosts (deduplicated), sorted by primary
// address so callers iterate in a deterministic order.
func (n *Network) Hosts() []*Host {
	seen := make(map[*Host]bool, len(n.hosts))
	out := make([]*Host, 0, len(n.hosts))
	for _, h := range n.hosts {
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Addr.Compare(out[j].Addr) < 0
	})
	return out
}

// baseRTT returns the modeled RTT between two coordinates with
// deterministic jitter applied (a few percent, never negative).
func (n *Network) baseRTT(a, b geo.Coord) time.Duration {
	return n.jitterRTT(n.rttModel.RTTMs(a, b))
}

// jitterRTT applies one jitter draw to an unjittered model RTT —
// split from baseRTT so an exchange can jitter its flow's resolved RTT
// with the same single draw baseRTT would consume.
func (n *Network) jitterRTT(ms float64) time.Duration {
	jitter := 1 + 0.015*n.rng.NormFloat64()
	if jitter < 0.95 {
		jitter = 0.95
	}
	return time.Duration(ms * jitter * float64(time.Millisecond))
}

// Exchange originates the raw IP packet pkt from host `from`, delivers
// it to the destination named in the header, and returns the first
// response packet. The virtual clock advances by the modeled exchange
// time (one RTT for UDP/ICMP, two for TCP's handshake-plus-request, plus
// Timeout on failures that time out).
func (n *Network) Exchange(from *Host, pkt []byte) ([]byte, error) {
	n.owner.check("Exchange")
	return n.exchange(from, pkt)
}

// exchange is Exchange without the ownership check, for a stack's
// physical interface (Stack.SendVia already checked): the keyed path,
// which finds the packet's flow in the world's flow table.
func (n *Network) exchange(from *Host, pkt []byte) ([]byte, error) {
	dst, proto, err := peekIP(pkt)
	if err != nil {
		n.exchanges++
		return nil, err
	}
	src, _, _ := peekSrc(pkt)
	return n.exchangeOn(from, n.flowFor(src, dst), pkt, proto)
}

// exchangeOn runs one exchange of pkt, sent by from on flow st.
func (n *Network) exchangeOn(from *Host, st *flowState, pkt []byte, proto capture.IPProtocol) ([]byte, error) {
	n.exchanges++
	n.route(st, from)
	target := st.target
	if target == nil {
		// Unrouted destinations burn the full timeout.
		n.Clock.Advance(Timeout)
		return nil, n.flowNoRoute(st)
	}
	if hook := n.faultHook; hook != nil {
		switch act := hook.Decide(n.Clock.Now(), st.fault, proto); {
		case act.Refuse:
			return nil, n.flowRefused(st)
		case act.Drop:
			n.Clock.Advance(Timeout)
			return nil, n.flowDropped(st)
		case act.Delay > 0:
			n.Clock.Advance(act.Delay)
		}
	}
	// TTL semantics: the path to the target has pathHops hops (the
	// target being the last); a packet whose TTL runs out earlier gets
	// an ICMP Time Exceeded from the router where it died, which is
	// what traceroute harvests.
	if ttl := peekTTL(pkt); int(ttl) < st.path.hops {
		return n.expireAtHop(from, target, pkt, int(ttl), st.path.hops)
	}
	rtt := n.jitterRTT(st.path.rttMs)
	if target.drop || !n.rng.Bool(target.reliability()) {
		n.Clock.Advance(Timeout)
		return nil, n.flowLost(st)
	}
	if proto == capture.ProtoTCP {
		// Handshake costs an extra round trip.
		rtt *= 2
	}
	n.Clock.Advance(rtt)

	// Deliver through a ring from the world's freelist: the handler may
	// emit any number of queued response packets in one delivery pass;
	// the exchange drains the ring and hands the first back to the
	// caller (the simulator's request/response model — extras are
	// drained and dropped, exactly as the historical [][]byte return
	// was).
	ring := n.takeRing()
	err := n.deliverOn(target, pkt, ring, st)
	first := ring.first()
	n.putRing(ring)
	if err != nil {
		return nil, err
	}
	return first, nil
}

// deliveryRing accumulates the response packets one delivery pass
// emits. Rings are recycled through the world's scratch bundle; a world
// can hold several at once because tunnel termination nests deliveries
// (a raw handler's onward Exchange needs its own ring while the outer
// one is live). The packets they carry are owned copies, so draining
// the ring before recycling it is safe.
type deliveryRing struct {
	pkts [][]byte
	// emitFn is the bound emit method, created once per ring so handing
	// it to a RawHandler does not allocate a closure per packet.
	emitFn func([]byte)
	// ls backs the reply layer headers deliver builds — recycled with
	// the ring, so reply construction allocates no layer objects.
	ls capture.LayerScratch
}

// emit queues one response packet; nil packets are ignored.
func (r *deliveryRing) emit(p []byte) {
	if p != nil {
		r.pkts = append(r.pkts, p)
	}
}

// first returns the first queued packet, or nil.
func (r *deliveryRing) first() []byte {
	if len(r.pkts) == 0 {
		return nil
	}
	return r.pkts[0]
}

// pathHops returns the router-path length between two coordinates: 3
// hops locally, up to 9 intercontinentally.
func pathHops(a, b geo.Coord) int {
	hops := 3 + int(geo.DistanceKm(a, b)/2000)
	if hops > 9 {
		hops = 9
	}
	return hops
}

// peekTTL reads the TTL (v4) or hop limit (v6) of a raw IP packet.
func peekTTL(pkt []byte) byte {
	switch {
	case len(pkt) >= 20 && pkt[0]>>4 == 4:
		return pkt[8]
	case len(pkt) >= 40 && pkt[0]>>4 == 6:
		return pkt[7]
	default:
		return 255
	}
}

// expireAtHop answers a TTL-exhausted packet with ICMP Time Exceeded
// from the hop where it died. Only the time to that hop elapses.
func (n *Network) expireAtHop(from, target *Host, pkt []byte, ttl, hops int) ([]byte, error) {
	if ttl < 1 {
		ttl = 1
	}
	src, _, err := peekSrc(pkt)
	if err != nil {
		return nil, err
	}
	frac := float64(ttl) / float64(hops)
	mid := geo.Coord{
		Lat: from.Coord.Lat + (target.Coord.Lat-from.Coord.Lat)*frac,
		Lon: from.Coord.Lon + (target.Coord.Lon-from.Coord.Lon)*frac,
	}
	n.Clock.Advance(n.baseRTT(from.Coord, mid))
	dst, _, _ := peekIP(pkt)
	router := routerAddr(from.Addr, dst, ttl)
	// Time Exceeded only makes sense for IPv4 in this simulator (the
	// router addresses are v4); v6 packets just die quietly.
	if !src.Is4() {
		return nil, n.errAddr(ErrTimeout, dst, " (hop limit exceeded)")
	}
	return n.buildOwned(64, router, src,
		&capture.ICMP{TypeCode: capture.ICMPTimeExceeded})
}

// peekSrc extracts the source address of a raw IP packet.
func peekSrc(pkt []byte) (src netip.Addr, proto capture.IPProtocol, err error) {
	switch {
	case len(pkt) >= 20 && pkt[0]>>4 == 4:
		a, _ := netip.AddrFromSlice(pkt[12:16])
		return a, capture.IPProtocol(pkt[9]), nil
	case len(pkt) >= 40 && pkt[0]>>4 == 6:
		a, _ := netip.AddrFromSlice(pkt[8:24])
		return a, capture.IPProtocol(pkt[6]), nil
	default:
		return netip.Addr{}, 0, &capture.DecodeError{Type: capture.TypeInvalid, Reason: "unknown IP version"}
	}
}

// deliver dispatches pkt on the target host, emitting response packets
// into ring. Every emitted packet is an owned copy (slot arena when one
// is installed), so the ring can be drained and recycled freely.
func (n *Network) deliver(target *Host, pkt []byte, ring *deliveryRing) error {
	return n.deliverOn(target, pkt, ring, nil)
}

// deliverOn is deliver for a packet that arrived on flow st (nil when
// unknown): replies to it are built on st's reverse flow.
func (n *Network) deliverOn(target *Host, pkt []byte, ring *deliveryRing, st *flowState) error {
	if raw := target.raw; raw != nil {
		// A raw handler that reports handled consumes the packet; one
		// that reports false falls through to port dispatch below (the
		// VPN host serves both raw tunnel frames and plain provider DNS).
		if raw(n, pkt, ring.emitFn) {
			return nil
		}
	}
	// Parse through the shape fast path: direct offset reads for the
	// well-formed shapes the builders emit, decoder fallback for
	// anything else — identical results and errors either way.
	var v capture.PacketView
	if err := capture.ParseView(pkt, &v); err != nil {
		return err
	}
	if !v.HasNet {
		return &capture.DecodeError{Type: capture.TypeInvalid, Reason: "no network layer"}
	}

	switch v.Transport {
	case capture.TypeICMP:
		if v.ICMPType != capture.ICMPEchoRequest {
			return nil
		}
		ring.ls.ICMP = capture.ICMP{TypeCode: capture.ICMPEchoReply, ID: v.ICMPID, Seq: v.ICMPSeq}
		reply, err := n.buildOwnedOn(n.replyFlow(st, &v), 64,
			ring.ls.Pair(&ring.ls.ICMP, v.Payload)...)
		if err != nil {
			return err
		}
		ring.emit(reply)

	case capture.TypeUDP:
		h := target.udp[v.DstPort]
		if h == nil {
			return n.errAddrPort(ErrRefused, "udp", v.Dst, v.DstPort)
		}
		payload := h(v.Src, v.SrcPort, v.Payload)
		if payload == nil {
			return nil
		}
		ring.ls.UDP = capture.UDP{SrcPort: v.DstPort, DstPort: v.SrcPort}
		reply, err := n.buildOwnedOn(n.replyFlow(st, &v), 64,
			ring.ls.Pair(&ring.ls.UDP, payload)...)
		if err != nil {
			return err
		}
		ring.emit(reply)

	case capture.TypeTCP:
		h := target.tcp[v.DstPort]
		if h == nil {
			return n.errAddrPort(ErrRefused, "tcp", v.Dst, v.DstPort)
		}
		payload := h(v.Src, v.SrcPort, v.Payload)
		if payload == nil {
			return nil
		}
		ring.ls.TCP = capture.TCP{SrcPort: v.DstPort, DstPort: v.SrcPort,
			Flags: capture.FlagACK | capture.FlagPSH}
		reply, err := n.buildOwnedOn(n.replyFlow(st, &v), 64,
			ring.ls.Pair(&ring.ls.TCP, payload)...)
		if err != nil {
			return err
		}
		ring.emit(reply)
	}
	return nil
}

// replyFlow returns the flow a reply to the parsed packet v travels on:
// the reverse of the flow it arrived on when v is that flow's packet,
// else the table's entry for the swapped addresses.
func (n *Network) replyFlow(st *flowState, v *capture.PacketView) *flowState {
	if st != nil && v.Src == st.key.src && v.Dst == st.key.dst {
		return n.reverse(st)
	}
	return n.flowFor(v.Dst, v.Src)
}

// peekIP extracts the destination address and transport protocol from a
// raw IP packet without a full decode.
func peekIP(pkt []byte) (dst netip.Addr, proto capture.IPProtocol, err error) {
	if len(pkt) < 1 {
		return netip.Addr{}, 0, &capture.DecodeError{Type: capture.TypeInvalid, Reason: "empty packet"}
	}
	switch pkt[0] >> 4 {
	case 4:
		if len(pkt) < 20 {
			return netip.Addr{}, 0, &capture.DecodeError{Type: capture.TypeIPv4, Reason: "truncated"}
		}
		a, _ := netip.AddrFromSlice(pkt[16:20])
		return a, capture.IPProtocol(pkt[9]), nil
	case 6:
		if len(pkt) < 40 {
			return netip.Addr{}, 0, &capture.DecodeError{Type: capture.TypeIPv6, Reason: "truncated"}
		}
		a, _ := netip.AddrFromSlice(pkt[24:40])
		return a, capture.IPProtocol(pkt[6]), nil
	default:
		return netip.Addr{}, 0, &capture.DecodeError{Type: capture.TypeInvalid, Reason: "unknown IP version"}
	}
}

// peekProto reads the transport protocol of a raw IP packet that
// peekIP accepts.
func peekProto(pkt []byte) capture.IPProtocol {
	if len(pkt) >= 40 && pkt[0]>>4 == 6 {
		return capture.IPProtocol(pkt[6])
	}
	if len(pkt) >= 20 {
		return capture.IPProtocol(pkt[9])
	}
	return 0
}

// buildPacketTTLInto serializes the packet into buf and returns
// buf.Bytes() directly — no output copy. The returned slice aliases buf
// and dies with it: callers may only release buf to the world's
// freelist once the bytes have been copied downstream (Sink.Capture and
// deliver's reply construction both copy).
func buildPacketTTLInto(buf *capture.SerializeBuffer, ttl byte, src, dst netip.Addr, inner ...capture.SerializableLayer) ([]byte, error) {
	buf.Clear()
	// Serialize inner layers in reverse (SerializeLayers semantics)
	// without materializing a combined layers slice.
	for i := len(inner) - 1; i >= 0; i-- {
		if err := inner[i].SerializeTo(buf); err != nil {
			return nil, err
		}
	}
	proto := protoOf(inner)
	var netLayer capture.SerializableLayer
	if src.Is4() && dst.Is4() {
		buf.HdrV4 = capture.IPv4{TTL: ttl, Protocol: proto, Src: src, Dst: dst}
		netLayer = &buf.HdrV4
	} else {
		buf.HdrV6 = capture.IPv6{HopLimit: ttl, Next: proto, Src: src, Dst: dst}
		netLayer = &buf.HdrV6
	}
	if err := netLayer.SerializeTo(buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func protoOf(layers []capture.SerializableLayer) capture.IPProtocol {
	for _, l := range layers {
		switch l.LayerType() {
		case capture.TypeUDP:
			return capture.ProtoUDP
		case capture.TypeTCP:
			return capture.ProtoTCP
		case capture.TypeICMP:
			return capture.ProtoICMP
		case capture.TypeTunnel:
			return capture.ProtoTunnel
		}
	}
	return capture.ProtoUDP
}

// buildOwned serializes a packet into a freelist buffer and hands back
// an owned copy from the slot arena (heap when none is installed). Every
// reply the delivery path emits goes through here, so per-packet copies
// cost a pointer bump instead of a garbage-collected allocation.
func (n *Network) buildOwned(ttl byte, src, dst netip.Addr, inner ...capture.SerializableLayer) ([]byte, error) {
	return n.buildOwnedOn(n.flowFor(src, dst), ttl, inner...)
}

// BuildPacket builds a packet whose bytes are owned by the network's
// slot arena (heap when none is installed) — for packets that die
// within the current vantage-point slot, e.g. the VPN server's
// synthesized tunnel replies.
func (n *Network) BuildPacket(src, dst netip.Addr, inner ...capture.SerializableLayer) ([]byte, error) {
	return n.buildOwned(64, src, dst, inner...)
}

// ---------------------------------------------------------------------
// Ping and traceroute
// ---------------------------------------------------------------------

// Ping measures one ICMP echo RTT from host `from` to dst. It advances
// the clock like any exchange.
func (n *Network) Ping(from *Host, dst netip.Addr) (time.Duration, error) {
	before := n.Clock.Now()
	buf := n.AcquireBuffer()
	defer n.ReleaseBuffer(buf)
	pkt, err := n.BuildPacketInto(buf, from.Addr, dst,
		&capture.ICMP{TypeCode: capture.ICMPEchoRequest, ID: 1, Seq: 1})
	if err != nil {
		return 0, err
	}
	if _, err := n.Exchange(from, pkt); err != nil {
		return 0, err
	}
	return n.Clock.Now() - before, nil
}

// Hop is one traceroute hop.
type Hop struct {
	Addr netip.Addr
	RTT  time.Duration
}

// Traceroute synthesizes the router path from `from` to dst: hop
// coordinates interpolate the great circle between the endpoints, hop
// addresses derive deterministically from the endpoint pair, and the
// final hop is the destination itself. The clock advances by the total
// probing time (one RTT per hop).
func (n *Network) Traceroute(from *Host, dst netip.Addr) ([]Hop, error) {
	target := n.HostByAddr(dst)
	if target == nil {
		n.Clock.Advance(Timeout)
		return nil, n.errAddr(ErrNoRoute, dst, "")
	}
	hops := pathHops(from.Coord, target.Coord)
	out := make([]Hop, 0, hops)
	for i := 1; i <= hops; i++ {
		frac := float64(i) / float64(hops)
		mid := geo.Coord{
			Lat: from.Coord.Lat + (target.Coord.Lat-from.Coord.Lat)*frac,
			Lon: from.Coord.Lon + (target.Coord.Lon-from.Coord.Lon)*frac,
		}
		rtt := n.baseRTT(from.Coord, mid)
		n.Clock.Advance(rtt)
		addr := dst
		if i < hops {
			addr = routerAddr(from.Addr, dst, i)
		}
		out = append(out, Hop{Addr: addr, RTT: rtt})
	}
	return out, nil
}

// routerAddr derives a stable synthetic router address for hop i of the
// path between two endpoints, inside 198.18.0.0/15 (RFC 2544 benchmark
// space, guaranteed not to collide with simulated hosts).
func routerAddr(a, b netip.Addr, i int) netip.Addr {
	h := uint64(0xCBF29CE484222325)
	for _, bb := range a.AsSlice() {
		h = (h ^ uint64(bb)) * 0x100000001B3
	}
	for _, bb := range b.AsSlice() {
		h = (h ^ uint64(bb)) * 0x100000001B3
	}
	h = (h ^ uint64(i)) * 0x100000001B3
	return netip.AddrFrom4([4]byte{198, 18 + byte(h>>8&1), byte(h >> 16), byte(h >> 24)})
}
