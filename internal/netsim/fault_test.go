package netsim

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"vpnscope/internal/capture"
)

// decideFunc is a FaultHook that classifies every destination alike.
type decideFunc func(now time.Duration, class FaultClass, proto capture.IPProtocol) FaultAction

func (decideFunc) Classify(netip.Addr) FaultClass { return 0 }
func (f decideFunc) Decide(now time.Duration, class FaultClass, proto capture.IPProtocol) FaultAction {
	return f(now, class, proto)
}

func TestFaultHookRefuseDropDelay(t *testing.T) {
	n, stack, server, dns := world(t)

	var action FaultAction
	var sawProto capture.IPProtocol
	n.SetFaultHook(decideFunc(func(now time.Duration, class FaultClass, proto capture.IPProtocol) FaultAction {
		sawProto = proto
		return action
	}))

	// Refuse: immediate error, no timeout burned.
	action = FaultAction{Refuse: true}
	before := n.Clock.Now()
	if _, err := stack.QueryUDP(dns.Addr, 53, []byte("q")); !errors.Is(err, ErrRefused) {
		t.Fatalf("want ErrRefused, got %v", err)
	}
	if n.Clock.Now() != before {
		t.Error("a refusal must not burn the timeout")
	}
	if sawProto != capture.ProtoUDP {
		t.Errorf("hook saw proto %d", sawProto)
	}

	// Drop: times out, burning the full timeout.
	action = FaultAction{Drop: true}
	before = n.Clock.Now()
	if _, err := stack.QueryUDP(dns.Addr, 53, []byte("q")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if n.Clock.Now()-before != Timeout {
		t.Errorf("drop burned %v, want %v", n.Clock.Now()-before, Timeout)
	}

	// Delay: the exchange succeeds but costs the extra latency.
	action = FaultAction{}
	before = n.Clock.Now()
	if _, err := stack.ExchangeTCP(server.Addr, 80, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	clean := n.Clock.Now() - before

	action = FaultAction{Delay: 2 * time.Second}
	before = n.Clock.Now()
	if _, err := stack.ExchangeTCP(server.Addr, 80, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	spiked := n.Clock.Now() - before
	if spiked < clean+1900*time.Millisecond {
		t.Errorf("spiked exchange took %v, clean %v: delay not applied", spiked, clean)
	}

	// Clearing the hook restores clean delivery.
	n.SetFaultHook(nil)
	if _, err := stack.QueryUDP(dns.Addr, 53, []byte("q")); err != nil {
		t.Fatal(err)
	}
}

func TestResetStreamReplaysJitter(t *testing.T) {
	sample := func() []time.Duration {
		n, stack, server, _ := world(t)
		n.ResetStream("vp-7")
		var out []time.Duration
		for i := 0; i < 16; i++ {
			before := n.Clock.Now()
			if _, err := stack.ExchangeTCP(server.Addr, 80, []byte("x")); err != nil {
				t.Fatal(err)
			}
			out = append(out, n.Clock.Now()-before)
		}
		return out
	}
	a, b := sample(), sample()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("RTT %d diverged after identical ResetStream: %v vs %v", i, a[i], b[i])
		}
	}

	// A different label yields a different jitter stream.
	n, stack, server, _ := world(t)
	n.ResetStream("vp-8")
	var c []time.Duration
	for i := 0; i < 16; i++ {
		before := n.Clock.Now()
		if _, err := stack.ExchangeTCP(server.Addr, 80, []byte("x")); err != nil {
			t.Fatal(err)
		}
		c = append(c, n.Clock.Now()-before)
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("distinct stream labels produced identical jitter")
	}
}

func TestClockJump(t *testing.T) {
	c := NewClock()
	c.Advance(10 * time.Second)
	if c.Jump(3*time.Second) != 3*time.Second || c.Now() != 3*time.Second {
		t.Fatal("Jump must set the clock exactly, backwards included")
	}
	if c.Jump(7*time.Second) != 7*time.Second {
		t.Fatal("Jump forward failed")
	}
	if c.Jump(-time.Second) != 0 {
		t.Fatal("negative Jump must clamp to zero")
	}
}
