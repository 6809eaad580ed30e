package netsim

import (
	"bytes"
	"testing"

	"vpnscope/internal/arena"
	"vpnscope/internal/capture"
)

// TestPrototypeNoArenaRetention proves the property the arenadebug
// suites rely on: packets emitted through the prototype fast path are
// fully copied out of the prototype's arena-backed header image, so a
// slot-boundary reset (which poisons the arena under -tags arenadebug,
// and unconditionally here via NewDebug) cannot reach back into any
// packet already handed out.
func TestPrototypeNoArenaRetention(t *testing.T) {
	n := New(7)
	n.SetSlotArena(arena.NewDebug())
	src, dst := addr("203.0.113.10"), addr("93.184.216.34")

	buf := capture.NewSerializeBuffer()

	build := func(port uint16, pay string) []byte {
		t.Helper()
		pkt, err := n.BuildPacketInto(buf, src, dst,
			&capture.UDP{SrcPort: port, DstPort: 53}, capture.Payload(pay))
		if err != nil {
			t.Fatal(err)
		}
		return pkt
	}

	build(40000, "warm the prototype")
	if n.protoCount() == 0 {
		t.Fatal("first build did not install a prototype")
	}
	patched := build(40001, "patched off the cached image")
	snapshot := append([]byte(nil), patched...)

	// Poison the arena (and drop the cache) at the slot boundary: the
	// emitted packet must not change, because nothing it references may
	// live in the arena.
	n.BeginSlot()
	if !bytes.Equal(patched, snapshot) {
		t.Fatalf("emitted packet mutated by arena reset:\nbefore: %x\nafter:  %x", snapshot, patched)
	}
	if n.protoCount() != 0 {
		t.Fatal("BeginSlot left prototypes pointing into recycled arena memory")
	}

	// Rebuilding after the reset must not serve poisoned header bytes.
	fresh := build(40001, "patched off the cached image")
	refBuf := capture.NewSerializeBuffer()
	want, err := buildPacketTTLInto(refBuf, 64, src, dst,
		&capture.UDP{SrcPort: 40001, DstPort: 53}, capture.Payload("patched off the cached image"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, want) {
		t.Fatalf("post-reset build differs from reference:\ngot:  %x\nwant: %x", fresh, want)
	}
}

// BenchmarkPrototypePatch measures the steady-state patched build and
// gates it at zero heap allocations per packet — the property that lets
// the fast path replace full serialization on the campaign hot loop.
func BenchmarkPrototypePatch(b *testing.B) {
	n := New(7)
	n.SetSlotArena(arena.New())
	src, dst := addr("203.0.113.10"), addr("93.184.216.34")
	payload := bytes.Repeat([]byte{0xA5}, 128)
	var ls capture.LayerScratch

	buf := capture.NewSerializeBuffer()
	port := uint16(40000)
	build := func() {
		port++
		ls.UDP = capture.UDP{SrcPort: port, DstPort: 53}
		if _, err := n.BuildPacketInto(buf, src, dst, ls.Pair(&ls.UDP, payload)...); err != nil {
			b.Fatal(err)
		}
	}
	build() // install the prototype

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build()
	}
	b.StopTimer()

	if allocs := testing.AllocsPerRun(100, build); allocs > 0 {
		b.Fatalf("patched build allocates %v per packet, want 0", allocs)
	}
}
