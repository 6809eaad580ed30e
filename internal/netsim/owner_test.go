//go:build ownerdebug

package netsim

import (
	"net/netip"
	"strings"
	"testing"

	"vpnscope/internal/capture"
)

// onGoroutine runs fn on a fresh goroutine and returns what it panicked
// with (nil when it returned normally).
func onGoroutine(fn func()) (panicked any) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { panicked = recover() }()
		fn()
	}()
	<-done
	return panicked
}

// TestOwnerForeignAccessPanics: once a goroutine has driven the world,
// another goroutine touching it outside a slot hand-off must panic and
// name both goroutines.
func TestOwnerForeignAccessPanics(t *testing.T) {
	_, st, _, dns := world(t)
	if _, err := st.QueryUDP(dns.Addr, 53, []byte("q")); err != nil {
		t.Fatal(err)
	}
	for name, touch := range map[string]func(){
		"ResetStream": func() { st.Net.ResetStream("foreign") },
		"Exchange":    func() { st.Net.Exchange(st.Host, nil) },
	} {
		p := onGoroutine(touch)
		msg, _ := p.(string)
		if !strings.Contains(msg, name) || strings.Count(msg, "goroutine") != 2 {
			t.Errorf("foreign %s: panic %v, want one naming the op and both goroutines", name, p)
		}
	}
}

// TestOwnerHandOffAtBeginSlot: BeginSlot on a new goroutine takes the
// world over, after which that goroutine may drive it freely.
func TestOwnerHandOffAtBeginSlot(t *testing.T) {
	_, st, _, dns := world(t)
	if _, err := st.QueryUDP(dns.Addr, 53, []byte("q")); err != nil {
		t.Fatal(err)
	}
	if p := onGoroutine(func() {
		st.Net.BeginSlot()
		st.Net.ResetStream("slot-1")
		if _, err := st.QueryUDP(dns.Addr, 53, []byte("q")); err != nil {
			t.Error(err)
		}
	}); p != nil {
		t.Fatalf("hand-off through BeginSlot panicked: %v", p)
	}
}

// panicOf runs fn and returns what it panicked with (nil when it
// returned normally).
func panicOf(fn func()) (panicked any) {
	defer func() { panicked = recover() }()
	fn()
	return nil
}

// TestStaleFlowHandlePanics: a holder that sends on a handle without
// revalidating it after a world or stack epoch change panics under
// ownerdebug (normal builds re-resolve it instead).
func TestStaleFlowHandlePanics(t *testing.T) {
	n, st, _, dns := world(t)
	client := st.Host
	var fl Flow
	n.Resolve(&fl, client, client.Addr, dns.Addr)
	udp := &capture.UDP{SrcPort: 40000, DstPort: 53}
	buf := capture.NewSerializeBuffer()
	if _, err := fl.BuildInto(buf, 64, udp, capture.Payload("q")); err != nil {
		t.Fatal(err)
	}
	n.BeginSlot()
	p := panicOf(func() { _, _ = fl.BuildInto(buf, 64, udp, capture.Payload("q")) })
	if msg, _ := p.(string); !strings.Contains(msg, "stale flow handle") {
		t.Fatalf("build on a handle from the previous slot: panic %v", p)
	}
	n.Resolve(&fl, client, client.Addr, dns.Addr)
	pkt, err := fl.BuildInto(buf, 64, udp, capture.Payload("q"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Exchange(pkt); err != nil {
		t.Fatalf("revalidated handle: %v", err)
	}

	var phys Flow
	st.PhysicalFlow(&phys, dns.Addr)
	st.SetAllowOnly([]netip.Addr{dns.Addr})
	p = panicOf(func() { _, _ = st.SendFlow(&phys, pkt) })
	if msg, _ := p.(string); !strings.Contains(msg, "stale flow handle") {
		t.Fatalf("send on a handle from before an allowlist change: panic %v", p)
	}
}
