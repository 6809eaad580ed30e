//go:build !ownerdebug

package netsim

import (
	"net/netip"
	"testing"

	"vpnscope/internal/capture"
)

// TestStaleFlowHandleReresolves: outside ownerdebug a handle used
// without revalidation after a world or stack epoch change re-resolves
// itself and sends exactly what a fresh handle would.
func TestStaleFlowHandleReresolves(t *testing.T) {
	send := func(stale bool) []step {
		w := newFlowWorld(t)
		var out []step
		w.st.PhysicalFlow(&w.phys, w.dns.Addr)
		w.n.Resolve(&w.held, w.client, w.client.Addr, w.dns.Addr)
		for i, change := range []func(){
			w.n.BeginSlot,
			func() { w.st.SetAllowOnly([]netip.Addr{w.dns.Addr}) },
			func() { w.n.RewindHosts(w.mark) },
		} {
			change()
			if !stale {
				w.st.PhysicalFlow(&w.phys, w.dns.Addr)
				w.n.Resolve(&w.held, w.client, w.client.Addr, w.dns.Addr)
			}
			w.ls.UDP = capture.UDP{SrcPort: 43000 + uint16(i), DstPort: 53}
			pkt, err := w.phys.BuildInto(w.buf, 64, w.ls.Pair(&w.ls.UDP, []byte("stale"))...)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, w.observe(w.st.SendFlow(&w.phys, pkt)))
			pkt, err = w.held.BuildInto(w.buf, 64, w.ls.Pair(&w.ls.UDP, []byte("held"))...)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, w.observe(w.held.Exchange(pkt)))
		}
		return out
	}
	got, want := send(true), send(false)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("send %d: stale handle %+v, revalidated %+v", i, got[i], want[i])
		}
	}
}
