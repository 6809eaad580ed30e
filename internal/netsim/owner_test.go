//go:build ownerdebug

package netsim

import (
	"strings"
	"testing"
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
