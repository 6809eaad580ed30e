//go:build ownerdebug

package netsim

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
)

// ownerStamp under -tags ownerdebug records the goroutine that owns a
// Network. The first goroutine to reach a checked entry point takes
// ownership; BeginSlot re-takes it, so a world changes hands only at a
// slot boundary. Any other goroutine touching the world panics, naming
// both goroutines — the assertion that replaces the locks a
// single-owner world does not have.
type ownerStamp struct {
	gid uint64 // 0 until first touch
}

// check stamps the caller on first touch and panics if the caller is
// not the owner.
func (o *ownerStamp) check(op string) {
	id := goid()
	switch o.gid {
	case 0:
		o.gid = id
	case id:
	default:
		panic(fmt.Sprintf("netsim: %s from goroutine %d on a world owned by goroutine %d", op, id, o.gid))
	}
}

// take hands ownership to the calling goroutine.
func (o *ownerStamp) take() { o.gid = goid() }

// staleFlow panics: under ownerdebug a holder that sends on a flow
// handle without revalidating it after an epoch change is a bug.
func staleFlow(op string) {
	panic("netsim: " + op + " on a stale flow handle (revalidate with Network.Resolve or Stack.PhysicalFlow)")
}

// goid parses the calling goroutine's id out of its stack header
// ("goroutine 17 [running]:"). Slow, and only ever compiled into
// ownerdebug builds.
func goid() uint64 {
	var buf [32]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	id, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		panic("netsim: cannot parse goroutine id: " + err.Error())
	}
	return id
}
