package netsim

import (
	"testing"

	"vpnscope/internal/arena"
	"vpnscope/internal/capture"
)

// Alloc ceilings for the packet fast path. These are gates, not
// observations: the benchmarks below fail when a change pushes the
// steady-state allocs/op of a hot operation above its ceiling, even at
// -benchtime 1x (the tier-1 smoke run). Each ceiling is at most twice
// the measured steady state. Serialize buffers and delivery rings come
// from the world's freelists (the zero-copy gate holds its own buffer),
// which, unlike a sync.Pool, shed nothing across GC cycles.
const (
	// One UDP query end to end on a campaign world: build, route,
	// Exchange, capture, decode. Measures 1.0 — the handler's response
	// slice; captures and the owned response copy live in the arena.
	exchangeAllocCeiling = 2
	// Network.BuildPacket on a world without a slot arena: serialize
	// into a freelist buffer + one exact-size heap copy out. Measures
	// 2.0 — the copy and the boxed payload layer.
	buildPacketAllocCeiling = 4
	// buildPacketTTLInto: serialize into a caller-held buffer; zero-copy,
	// one steady-state allocation (the boxed payload layer). Measures 1.0.
	buildPacketIntoAllocCeiling = 2
	// Network.deliver of a UDP packet on a campaign world: parse,
	// dispatch, build the reply into arena memory. Measures 1.0 — the
	// handler's response slice.
	deliverAllocCeiling = 2
)

// gateAllocs measures steady-state allocations per run of fn (after a
// pool-warming spin) and fails the benchmark if they exceed ceiling.
func gateAllocs(b *testing.B, name string, ceiling float64, fn func()) {
	b.Helper()
	for i := 0; i < 50; i++ { // warm the buffer/decoder pools
		fn()
	}
	allocs := testing.AllocsPerRun(100, fn)
	b.Logf("%s: %.1f allocs/op (ceiling %.0f)", name, allocs, ceiling)
	if allocs > ceiling {
		b.Fatalf("%s allocates %.1f/op, ceiling is %.0f — the zero-allocation fast path regressed", name, allocs, ceiling)
	}
}

// slotOps is how many operations the gated benchmarks run per
// simulated vantage-point slot.
const slotOps = 256

// campaignWorld is world() driven the way the campaign runner drives a
// measuring world: a slot arena installed, and every slot a fresh
// client stack whose captures land in the arena and whose record
// arrays are retired at the slot's end.
type campaignWorld struct {
	n      *Network
	st     *Stack
	dns    *Host
	client *Host
	ops    int
}

func newCampaignWorld(b *testing.B) *campaignWorld {
	n, st, _, dns := world(b)
	n.SetSlotArena(arena.New())
	c := &campaignWorld{n: n, dns: dns, client: st.Host}
	c.beginSlot()
	return c
}

func (c *campaignWorld) beginSlot() {
	if c.st != nil {
		c.st.Retire()
	}
	c.n.BeginSlot()
	c.st = NewStack(c.n, c.client)
	c.st.ScopeCapturesToSlot(c.n.SlotArena().Bytes)
}

// tick counts one operation, crossing into a new slot every slotOps.
func (c *campaignWorld) tick() {
	if c.ops++; c.ops%slotOps == 0 {
		c.beginSlot()
	}
}

// BenchmarkExchange is one full UDP query through the stack: route
// lookup, packet build, Network.Exchange (latency, reliability,
// delivery), and response decode.
func BenchmarkExchange(b *testing.B) {
	c := newCampaignWorld(b)
	payload := []byte("query")
	fn := func() {
		c.tick()
		if _, err := c.st.QueryUDP(c.dns.Addr, 53, payload); err != nil {
			b.Fatal(err)
		}
	}
	gateAllocs(b, "Exchange", exchangeAllocCeiling, fn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
}

// BenchmarkBuildPacket covers both build paths: the owning form (one
// exact-size copy out of a freelist buffer) and the unexported zero-copy
// serializer every build ends in.
func BenchmarkBuildPacket(b *testing.B) {
	src := addr("203.0.113.10")
	dst := addr("93.184.216.34")
	udp := &capture.UDP{SrcPort: 40000, DstPort: 53}
	pay := capture.Payload("query")

	b.Run("owned", func(b *testing.B) {
		n := New(1)
		fn := func() {
			if _, err := n.BuildPacket(src, dst, udp, pay); err != nil {
				b.Fatal(err)
			}
		}
		gateAllocs(b, "BuildPacket", buildPacketAllocCeiling, fn)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})

	b.Run("into", func(b *testing.B) {
		buf := capture.NewSerializeBuffer()
		fn := func() {
			if _, err := buildPacketTTLInto(buf, 64, src, dst, udp, pay); err != nil {
				b.Fatal(err)
			}
		}
		gateAllocs(b, "BuildPacketInto", buildPacketIntoAllocCeiling, fn)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
}

// BenchmarkDeliver hits Network.deliver directly with a pre-built UDP
// packet through a ring from the world's freelist: decode, handler
// dispatch, reply build.
func BenchmarkDeliver(b *testing.B) {
	c := newCampaignWorld(b)
	n, dns := c.n, c.dns
	pkt, err := heapPacket(64, addr("203.0.113.10"), dns.Addr,
		&capture.UDP{SrcPort: 40000, DstPort: 53}, capture.Payload("query"))
	if err != nil {
		b.Fatal(err)
	}
	fn := func() {
		c.tick()
		ring := n.takeRing()
		err := n.deliver(dns, pkt, ring)
		if err != nil {
			b.Fatal(err)
		}
		if ring.first() == nil {
			b.Fatal("no response")
		}
		n.putRing(ring)
	}
	gateAllocs(b, "deliver", deliverAllocCeiling, fn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
}
