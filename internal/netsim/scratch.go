package netsim

import (
	"runtime"
	"sync"

	"vpnscope/internal/arena"
	"vpnscope/internal/capture"
)

// scratch is a measuring world's recyclable working memory: the slot
// arena's chunks, the capture record arrays retired stacks hand back,
// the serialize-buffer and delivery-ring freelists, and the flow tables
// with the flow state they point into. A world regrows all of them from
// nothing unless it starts with a warm bundle, and a small campaign — one provider, a
// couple of vantage points — ends before the growth amortises. So bundles outlive their worlds: a
// Network takes one from the process pool on first need and hands it
// back, reset, when its campaign ends (ReleaseScratch). While a world
// holds its bundle every access is world-local; the pool's lock is
// touched twice per world.
type scratch struct {
	arena *arena.Arena
	// records recycles capture-record arrays between stacks (Stack.Retire
	// feeds it, NewStack/AddInterface drain it).
	records [][]capture.Record
	// sbufs is a plain LIFO of serialize buffers: with one goroutine
	// owning the world, a freelist needs no synchronisation at all.
	sbufs []*capture.SerializeBuffer
	// rings is a LIFO of delivery rings. Exchange nests (a tunnel
	// handler's onward Exchange runs while the outer ring is live), so
	// a world can hold several rings at once.
	rings []*deliveryRing
	// flows is the world's flow table (flow.go), the keyed slow path
	// handles resolve through; stackFlows is its Stack counterpart.
	// Both are emptied at every slot boundary, with the arena their
	// prototype images live in.
	flows      table[flowKey, flowState]
	stackFlows table[stackKey, stackFlow]
	// protos is the slab the flows' packet prototypes live in.
	protos slab[packetPrototype]
}

// maxRecordArrays bounds a bundle's recycled record arrays; a slot
// retires a handful of sinks at most.
const maxRecordArrays = 16

// reset invalidates everything the bundle handed out: arena memory is
// recycled (and poisoned when the arena poisons, as under -tags
// arenadebug), and so are the serialize buffers' bytes. Record arrays
// come back already cleared by Sink.Rebase, and the flow tables are
// emptied, since their prototype images may live in the arena.
func (s *scratch) reset() {
	s.arena.Reset()
	s.resetFlows()
	if s.arena.Poison {
		for _, b := range s.sbufs {
			b.Poison(arena.PoisonByte)
		}
	}
}

// resetFlows empties the flow tables and recycles their slabs.
func (s *scratch) resetFlows() {
	s.flows.reset()
	s.stackFlows.reset()
	s.protos.reset()
}

// scratchPool is the process-wide pool of idle bundles. It holds at
// most GOMAXPROCS of them — one per world that can be running at once —
// and drops the rest to the garbage collector.
var scratchPool struct {
	mu   sync.Mutex
	idle []*scratch
	out  int // bundles held by worlds
}

func takeScratch() *scratch {
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	scratchPool.out++
	if k := len(scratchPool.idle); k > 0 {
		s := scratchPool.idle[k-1]
		scratchPool.idle[k-1] = nil
		scratchPool.idle = scratchPool.idle[:k-1]
		return s
	}
	return &scratch{
		arena:      arena.New(),
		flows:      newTable[flowKey, flowState](),
		stackFlows: newTable[stackKey, stackFlow](),
	}
}

func putScratch(s *scratch) {
	s.reset()
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	scratchPool.out--
	if len(scratchPool.idle) < runtime.GOMAXPROCS(0) {
		scratchPool.idle = append(scratchPool.idle, s)
	}
}

// ScratchPoolStats reports how many scratch bundles sit idle in the
// process pool and how many worlds currently hold one.
func ScratchPoolStats() (idle, out int) {
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	return len(scratchPool.idle), scratchPool.out
}

// DropIdleScratch empties the pool, handing its idle bundles to the
// garbage collector, so the next world starts cold.
func DropIdleScratch() {
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	clear(scratchPool.idle)
	scratchPool.idle = scratchPool.idle[:0]
}

// bundle returns the world's scratch bundle, taking one from the pool
// on first need (and again after ReleaseScratch).
func (n *Network) bundle() *scratch {
	if n.scratch == nil {
		n.scratch = takeScratch()
	}
	return n.scratch
}

// ScratchArena returns the arena of the world's scratch bundle. The
// campaign runner installs it as the slot arena (SetSlotArena); before
// that, build-time code may use it for bytes that die before the first
// slot begins.
func (n *Network) ScratchArena() *arena.Arena { return n.bundle().arena }

// ReleaseScratch hands the world's scratch bundle back to the pool,
// reset, and uninstalls its arena if it is the slot arena. The campaign
// runners call it when a world's campaign ends; nothing the world
// handed out of the bundle may be used afterwards. The world itself
// stays usable and takes a fresh bundle on next need. A nil Network and
// a world without a bundle are no-ops.
func (n *Network) ReleaseScratch() {
	if n == nil || n.scratch == nil {
		return
	}
	n.owner.check("ReleaseScratch")
	s := n.scratch
	n.scratch = nil
	n.epoch++
	if n.slotArena == s.arena {
		n.slotArena = nil
	}
	putScratch(s)
}

// AcquireBuffer returns a cleared serialize buffer from the world's
// freelist. Pair with ReleaseBuffer.
func (n *Network) AcquireBuffer() *capture.SerializeBuffer {
	s := n.bundle()
	if k := len(s.sbufs); k > 0 {
		b := s.sbufs[k-1]
		s.sbufs = s.sbufs[:k-1]
		b.Clear()
		return b
	}
	return capture.NewSerializeBuffer()
}

// ReleaseBuffer returns a buffer obtained from AcquireBuffer. The caller
// must not touch b — or any slice obtained from it — afterwards.
func (n *Network) ReleaseBuffer(b *capture.SerializeBuffer) {
	s := n.bundle()
	s.sbufs = append(s.sbufs, b)
}

// takeRing pops a delivery ring from the world's freelist, or makes one.
func (n *Network) takeRing() *deliveryRing {
	s := n.bundle()
	if k := len(s.rings); k > 0 {
		r := s.rings[k-1]
		s.rings[k-1] = nil
		s.rings = s.rings[:k-1]
		return r
	}
	r := new(deliveryRing)
	r.emitFn = r.emit
	return r
}

// putRing empties r and returns it to the world's freelist. The ring
// keeps no packet bytes, and no payload bytes via its layer scratch.
func (n *Network) putRing(r *deliveryRing) {
	clear(r.pkts)
	r.pkts = r.pkts[:0]
	r.ls = capture.LayerScratch{}
	s := n.bundle()
	s.rings = append(s.rings, r)
}

// takeSinkBacking pops a recycled record array, or nil when none.
func (n *Network) takeSinkBacking() []capture.Record {
	s := n.bundle()
	if k := len(s.records); k > 0 {
		b := s.records[k-1]
		s.records[k-1] = nil
		s.records = s.records[:k-1]
		return b
	}
	return nil
}

// putSinkBacking returns a record array to the world's bundle.
func (n *Network) putSinkBacking(b []capture.Record) {
	if s := n.bundle(); cap(b) > 0 && len(s.records) < maxRecordArrays {
		s.records = append(s.records, b)
	}
}
