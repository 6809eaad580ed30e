package study_test

import (
	"runtime"
	"testing"

	"vpnscope/internal/ecosystem"
	"vpnscope/internal/netsim"
	"vpnscope/internal/study"
)

// retainedBytesPerSlotCeiling bounds the live heap a world keeps per
// measured vantage point after a sequential catalog campaign. With the
// name interner, DNS serving scratch, tunnel keystream and relay
// scratch held once per world (vpn.ServerEnv), and no vantage point's
// failures in the network's error cache, a world keeps about 1.6 KB per
// slot: the vantage point's build-time structs and its relay flow
// handles. A private name table per tunnel resolver alone reads about
// 12.7 KB per slot.
const retainedBytesPerSlotCeiling = 3 << 10

// TestWorldRetainedHeapPerSlot: a world's live heap after a campaign
// must grow by a small constant per measured slot, not by a cache that
// each vantage point fills and keeps. It streams and drops every
// outcome, as a durable campaign does, and reads the live heap after
// each of two catalog sizes; the slope between them is the per-slot
// cost, free of the world's fixed size.
func TestWorldRetainedHeapPerSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two sequential catalog campaigns")
	}
	const seed = 2018
	live := func(n int) (bytes uint64, slots int) {
		study.ClearWorldTemplates()
		netsim.DropIdleScratch()
		base := liveHeap()
		w, err := study.Build(study.Options{
			Seed:      seed,
			Providers: ecosystem.CatalogSpecs(seed, ecosystem.BuildCatalogN(seed, n), 0, 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.RunWith(study.RunConfig{
			Parallel: 1,
			Stream:   func(study.Outcome) error { return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		netsim.DropIdleScratch()
		after := liveHeap()
		runtime.KeepAlive(w)
		if after < base {
			return 0, res.VPsAttempted
		}
		return after - base, res.VPsAttempted
	}
	defer study.ClearWorldTemplates()
	smallBytes, smallSlots := live(60)
	bigBytes, bigSlots := live(200)
	if bigSlots <= smallSlots {
		t.Fatalf("catalog 200 attempted %d slots, catalog 60 %d", bigSlots, smallSlots)
	}
	perSlot := (float64(bigBytes) - float64(smallBytes)) / float64(bigSlots-smallSlots)
	t.Logf("live heap after campaign: %.2f MB over %d slots, %.2f MB over %d slots: %.0f bytes/slot",
		float64(smallBytes)/(1<<20), smallSlots, float64(bigBytes)/(1<<20), bigSlots, perSlot)
	if perSlot > retainedBytesPerSlotCeiling {
		t.Errorf("a world keeps %.0f bytes of live heap per measured slot, ceiling %d — some per-vantage-point cache outlives its slot",
			perSlot, retainedBytesPerSlotCeiling)
	}
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
