package netsim

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"vpnscope/internal/arena"
	"vpnscope/internal/capture"
)

// TestScratchPoolBound: worlds on many goroutines take and release
// bundles at once; afterwards the pool keeps at most GOMAXPROCS idle,
// no world holds one, and the next world takes the last bundle released.
func TestScratchPoolBound(t *testing.T) {
	DropIdleScratch()
	_, held0 := ScratchPoolStats()
	max := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < 2*max+2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := New(uint64(i))
				n.ReleaseBuffer(n.AcquireBuffer())
				n.ReleaseScratch()
			}
		}()
	}
	wg.Wait()
	if idle, held := ScratchPoolStats(); idle > max || held != held0 {
		t.Fatalf("pool holds %d idle bundles (bound %d) and worlds hold %d more than before, want 0", idle, max, held-held0)
	}

	n := New(1)
	a := n.ScratchArena()
	n.ReleaseScratch()
	n.ReleaseScratch() // a second release is a no-op
	if got := New(2).ScratchArena(); got != a {
		t.Fatal("a new world did not take the bundle the last world released")
	}
}

// TestSerializeBufferReuse checks the AcquireBuffer/ReleaseBuffer
// contract: a released buffer comes back cleared, whatever state it was
// left in.
func TestSerializeBufferReuse(t *testing.T) {
	n := New(1)
	b := n.AcquireBuffer()
	copy(b.Prepend(8), "leftover")
	n.ReleaseBuffer(b)
	for i := 0; i < 10; i++ {
		g := n.AcquireBuffer()
		if len(g.Bytes()) != 0 {
			t.Fatalf("recycled buffer not cleared: %q", g.Bytes())
		}
		copy(g.Prepend(4), "data")
		n.ReleaseBuffer(g)
	}
}

// TestReleaseScratchPoisons: a world that keeps slot-arena bytes or a
// serialize buffer's bytes past release reads poison, not its old data
// or the next world's, when the bundle's arena poisons (always under
// -tags arenadebug). Release also uninstalls the bundle's slot arena
// and empties the prototype cache whose images live in it.
func TestReleaseScratchPoisons(t *testing.T) {
	n := New(3)
	a := n.ScratchArena()
	defer func(p bool) { a.Poison = p }(a.Poison)
	a.Poison = true
	n.SetSlotArena(a)
	if _, err := n.BuildPacket(addr("203.0.113.10"), addr("93.184.216.34"),
		&capture.UDP{SrcPort: 1, DstPort: 53}, capture.Payload("q")); err != nil {
		t.Fatal(err)
	}
	if n.protoCount() == 0 {
		t.Fatal("precondition: the build cached no prototype")
	}
	kept := a.Copy([]byte("slot bytes"))
	buf := n.AcquireBuffer()
	copy(buf.Prepend(5), "frame")
	wire := buf.Bytes()
	n.ReleaseBuffer(buf)

	n.ReleaseScratch()
	if !bytes.Equal(kept, bytes.Repeat([]byte{arena.PoisonByte}, len(kept))) {
		t.Errorf("slot-arena bytes survived release: %q", kept)
	}
	if !bytes.Equal(wire, bytes.Repeat([]byte{arena.PoisonByte}, len(wire))) {
		t.Errorf("serialize-buffer bytes survived release: %q", wire)
	}
	if n.SlotArena() != nil || n.protoCount() != 0 {
		t.Error("release left the bundle's arena installed or its prototypes cached")
	}
}
