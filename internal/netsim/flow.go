package netsim

import (
	"encoding/binary"
	"net/netip"

	"vpnscope/internal/capture"
)

// Flow handles.
//
// Everything the packet path needs about a flow — the destination host,
// the path model, the fault hook's class for the destination, the
// packet prototypes of each layer shape, the interned failure errors —
// is a function of the flow's (src, dst) pair and of world state that
// changes only at a few known points. A Flow resolves that once through
// the world's flow table (the keyed slow path) and then carries a
// pointer to the resolved state, so a holder that sends many packets on
// one flow pays no lookup per packet.
//
// Two epochs invalidate handles. The world epoch advances on BeginSlot,
// ReleaseScratch, AddHost, RewindHosts and SetFaultHook; a stack's
// epoch advances on every route, interface, allowlist and IPv6 change.
// A holder revalidates with Network.Resolve or Stack.PhysicalFlow before
// each use (an epoch compare when nothing changed); sending on a stale
// handle re-resolves it in normal builds and panics under -tags
// ownerdebug, which is how a holder that forgot to revalidate is
// caught. Flow state lives in the world's scratch bundle and is
// recycled at every slot boundary with the arena its prototype images
// live in.

// flowKey identifies one flow in the world's flow table.
type flowKey struct{ src, dst netip.Addr }

// numShapes counts the prototype-able layer shapes: four transports,
// each with or without a payload layer (see splitInner).
const numShapes = 8

// flowState is the resolved state of one (src, dst) flow.
type flowState struct {
	key flowKey
	// protos points at the flow's packet prototype per layer shape (nil
	// until the first build of that shape); most flows use one or two.
	protos [numShapes]*packetPrototype
	// rev is the reverse flow, the one replies are built on, made on the
	// first reply; it stays out of the table (a keyed build of the same
	// pair takes its own state, with byte-identical prototypes). relay
	// is the flow a relay that forwarded on this flow answers its own
	// client on (ResolveRelay).
	rev, relay *flowState

	// The routing part, valid while epoch is the world's epoch and the
	// flow is sent from the same host.
	epoch  uint64
	from   *Host
	target *Host // nil: nothing owns dst
	path   pathStat
	fault  FaultClass
	// Interned exchange failures, built on first use; only errLost,
	// which names the target, is part of the routing.
	errNoRoute, errRefused, errDropped, errBlocked, errLost error
}

// pathStat is the deterministic part of the path model between two
// hosts — everything an exchange derives before jitter is applied.
type pathStat struct {
	hops  int
	rttMs float64
}

// Flow is a holder's handle on one resolved flow: packets from src
// (sent by the host from, when the flow is exchanged) to dst. The zero
// value is stale; Network.Resolve makes it live. A Flow belongs to the
// world's owner goroutine like the rest of the world.
type Flow struct {
	n        *Network
	from     *Host
	src, dst netip.Addr
	st       *flowState
	epoch    uint64

	// Set by Stack.PhysicalFlow: the stack, its epoch, its physical
	// interface (nil when removed) and its firewall's verdict on dst.
	stack   *Stack
	sepoch  uint64
	iface   *Interface
	blocked bool
}

// Resolve points f at the flow from src to dst, sent by host from (nil
// for a flow that is only built, never exchanged). A handle that is
// live and already keyed so is left alone, which makes Resolve the
// cheap per-use revalidation a holder calls before sending.
func (n *Network) Resolve(f *Flow, from *Host, src, dst netip.Addr) {
	if f.epoch == n.epoch && f.n == n && f.src == src && f.dst == dst && f.from == from {
		return
	}
	*f = Flow{n: n, from: from, src: src, dst: dst, st: n.flowFor(src, dst), epoch: n.epoch}
}

// ResolveRelay is Resolve(r, nil, src, dst) for a relay answering its
// client dst with the response to a packet it forwarded to src on fwd:
// while fwd is live and flows to src, r is found through fwd's state
// rather than the flow table.
func (n *Network) ResolveRelay(r, fwd *Flow, src, dst netip.Addr) {
	if r.epoch == n.epoch && r.n == n && r.src == src && r.dst == dst && r.from == nil {
		return
	}
	if fwd.epoch != n.epoch || fwd.n != n || fwd.dst != src {
		n.Resolve(r, nil, src, dst)
		return
	}
	st := fwd.st
	if st.relay == nil || st.relay.key.dst != dst {
		st.relay = n.flowFor(src, dst)
	}
	*r = Flow{n: n, src: src, dst: dst, st: st.relay, epoch: n.epoch}
}

// live returns the handle's state, re-resolving a stale handle.
func (f *Flow) live(op string) *flowState {
	if f.epoch != f.n.epoch {
		staleFlow(op)
		f.n.Resolve(f, f.from, f.src, f.dst)
	}
	return f.st
}

// BuildInto serializes a packet on the flow into buf, patching the
// flow's prototype for the layer shape after the first packet. The
// result aliases buf, like BuildPacketTTLInto's.
func (f *Flow) BuildInto(buf *capture.SerializeBuffer, ttl byte, inner ...capture.SerializableLayer) ([]byte, error) {
	return f.n.buildOn(f.live("Flow.BuildInto"), buf, ttl, inner...)
}

// Build is BuildInto with TTL 64 and an owned result: the bytes live in
// the slot arena (the heap when none is installed), like BuildPacket's.
func (f *Flow) Build(inner ...capture.SerializableLayer) ([]byte, error) {
	return f.n.buildOwnedOn(f.live("Flow.Build"), 64, inner...)
}

// Exchange is Network.Exchange for a packet built on the flow: the
// target, path, fault class and reply prototype come from the handle
// instead of per-packet lookups.
func (f *Flow) Exchange(pkt []byte) ([]byte, error) {
	f.n.owner.check("Flow.Exchange")
	st := f.live("Flow.Exchange")
	return f.n.exchangeOn(f.from, st, pkt, peekProto(pkt))
}

// flowFor returns the world's state for the (src, dst) flow, creating
// it on first sight. This is the keyed slow path every handle resolves
// through and every keyed build or exchange takes per packet.
func (n *Network) flowFor(src, dst netip.Addr) *flowState {
	packed, ok := pack4(src, dst)
	st, fresh := n.bundle().flows.get(packed, ok, flowKey{src, dst})
	if fresh {
		st.key = flowKey{src, dst}
	}
	return st
}

// pack4 packs two IPv4 addresses into one table word.
func pack4(a, b netip.Addr) (uint64, bool) {
	if !a.Is4() || !b.Is4() {
		return 0, false
	}
	a4, b4 := a.As4(), b.As4()
	return uint64(binary.BigEndian.Uint32(a4[:]))<<32 | uint64(binary.BigEndian.Uint32(b4[:])), true
}

// reverse returns the flow replies to st travel on.
func (n *Network) reverse(st *flowState) *flowState {
	if st.rev == nil {
		st.rev = n.bundle().flows.slab.take()
		st.rev.key = flowKey{st.key.dst, st.key.src}
		st.rev.rev = st
	}
	return st.rev
}

// route (re)resolves st's routing part for packets sent by from, after
// a world epoch change or on first use.
func (n *Network) route(st *flowState, from *Host) {
	if st.epoch == n.epoch && st.from == from {
		return
	}
	st.epoch, st.from = n.epoch, from
	st.errLost = nil
	st.target = n.hosts[st.key.dst]
	st.path, st.fault = pathStat{}, 0
	if st.target == nil {
		return
	}
	st.path = pathStat{
		hops:  pathHops(from.Coord, st.target.Coord),
		rttMs: n.rttModel.RTTMs(from.Coord, st.target.Coord),
	}
	if n.faultHook != nil {
		st.fault = n.faultHook.Classify(st.key.dst)
	}
}

// Interned failures of an exchange on st.

func (n *Network) flowNoRoute(st *flowState) error {
	if st.errNoRoute == nil {
		st.errNoRoute = n.errAddr(ErrNoRoute, st.key.dst, "")
	}
	return st.errNoRoute
}

func (n *Network) flowRefused(st *flowState) error {
	if st.errRefused == nil {
		st.errRefused = n.errAddr(ErrRefused, st.key.dst, " (fault injected)")
	}
	return st.errRefused
}

func (n *Network) flowDropped(st *flowState) error {
	if st.errDropped == nil {
		st.errDropped = n.errAddr(ErrTimeout, st.key.dst, " (fault injected)")
	}
	return st.errDropped
}

func (n *Network) flowBlocked(st *flowState) error {
	if st.errBlocked == nil {
		st.errBlocked = n.errAddr(ErrBlocked, st.key.dst, "")
	}
	return st.errBlocked
}

func (n *Network) flowLost(st *flowState) error {
	if st.errLost == nil {
		st.errLost = n.errAddrHost(ErrTimeout, st.key.dst, st.target.Name)
	}
	return st.errLost
}

// buildOn serializes a packet on st, through the prototype of its layer
// shape when it has one.
func (n *Network) buildOn(st *flowState, buf *capture.SerializeBuffer, ttl byte, inner ...capture.SerializableLayer) ([]byte, error) {
	transport, payload, shape, ok := splitInner(inner)
	if !ok {
		return buildPacketTTLInto(buf, ttl, st.key.src, st.key.dst, inner...)
	}
	p := st.protos[shape]
	if p != nil {
		if out, ok := p.patch(buf, ttl, transport, payload); ok {
			return out, nil
		}
	}
	pkt, err := buildPacketTTLInto(buf, ttl, st.key.src, st.key.dst, inner...)
	if err != nil {
		return nil, err
	}
	if np, ok := newPrototype(n.slotArena, pkt, ttl, transport); ok {
		if p == nil {
			p = n.bundle().protos.take()
			st.protos[shape] = p
		}
		*p = np
	}
	return pkt, nil
}

// buildOwnedOn builds a packet on st whose bytes the slot arena owns
// (the heap when none is installed). A packet patched off the flow's
// prototype is written there directly; the first of its shape is
// serialized into a freelist buffer and copied out.
func (n *Network) buildOwnedOn(st *flowState, ttl byte, inner ...capture.SerializableLayer) ([]byte, error) {
	if transport, payload, shape, ok := splitInner(inner); ok && st.protos[shape] != nil {
		p := st.protos[shape]
		if total, ok := p.size(payload); ok {
			if out, ok := p.fill(n.slotArena.Bytes(total), ttl, transport, payload); ok {
				return out, nil
			}
		}
	}
	buf := n.AcquireBuffer()
	defer n.ReleaseBuffer(buf)
	pkt, err := n.buildOn(st, buf, ttl, inner...)
	if err != nil {
		return nil, err
	}
	return n.slotArena.Copy(pkt), nil
}

// table maps flow keys to flow state kept in a slab. Keys whose
// addresses are all IPv4 — nearly every flow — pack into one word,
// which the runtime hashes and compares far faster than netip.Addr
// pairs; the rest take the general map.
type table[K comparable, V any] struct {
	packed map[uint64]*V
	wide   map[K]*V
	slab   slab[V]
}

func newTable[K comparable, V any]() table[K, V] {
	return table[K, V]{packed: make(map[uint64]*V, 64), wide: make(map[K]*V)}
}

// get returns the value stored under packed (when isPacked) or key,
// taking a zeroed one from the slab on first sight (fresh).
func (t *table[K, V]) get(packed uint64, isPacked bool, key K) (v *V, fresh bool) {
	if isPacked {
		if v = t.packed[packed]; v == nil {
			v, fresh = t.slab.take(), true
			t.packed[packed] = v
		}
		return v, fresh
	}
	if v = t.wide[key]; v == nil {
		v, fresh = t.slab.take(), true
		t.wide[key] = v
	}
	return v, fresh
}

// reset empties the table (its maps keep their buckets) and recycles
// the slab.
func (t *table[K, V]) reset() {
	clear(t.packed)
	clear(t.wide)
	t.slab.reset()
}

// slab hands out zeroed values from chunks it keeps across resets, so
// a warm scratch bundle resolves a slot's flows without allocating.
// Pointers it hands out stay valid until reset.
type slab[T any] struct {
	chunks [][]T
	used   int
}

const slabChunk = 64

func (s *slab[T]) take() *T {
	c, i := s.used/slabChunk, s.used%slabChunk
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, slabChunk))
	}
	s.used++
	return &s.chunks[c][i]
}

// reset recycles every value handed out, dropping what they reference.
func (s *slab[T]) reset() {
	for c := 0; c*slabChunk < s.used; c++ {
		clear(s.chunks[c][:min(slabChunk, s.used-c*slabChunk)])
	}
	s.used = 0
}
