package faultsim

import (
	"net/netip"
	"testing"
	"time"

	"vpnscope/internal/capture"
	"vpnscope/internal/netsim"
)

var (
	vpAddr   = netip.MustParseAddr("164.90.1.1")
	resolver = netip.MustParseAddr("8.8.8.8")
	webAddr  = netip.MustParseAddr("23.32.0.19")
)

func newTestPlan(p Profile, seed uint64) *Plan {
	plan := New(p, seed)
	plan.SetVPAddrs([]netip.Addr{vpAddr})
	plan.SetResolverAddrs([]netip.Addr{resolver})
	return plan
}

// script replays a fixed exchange sequence against a plan and returns
// the decisions.
func script(plan *Plan, n int) []netsim.FaultAction {
	hook := plan.Hook()
	out := make([]netsim.FaultAction, 0, n)
	for i := 0; i < n; i++ {
		// A 7s step is coprime with every preset window period, so the
		// script drifts across window phases instead of aliasing.
		now := time.Duration(i) * 7 * time.Second
		dst := webAddr
		proto := capture.ProtoTCP
		switch i % 5 {
		case 1:
			dst, proto = resolver, capture.ProtoUDP
		case 2:
			dst, proto = vpAddr, capture.ProtoICMP
		case 3:
			proto = capture.ProtoTunnel
		}
		out = append(out, hook(now, nil, dst, proto))
	}
	return out
}

func TestScheduleDeterministicAcrossPlans(t *testing.T) {
	a := script(newTestPlan(Hostile, 42), 4000)
	b := script(newTestPlan(Hostile, 42), 4000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	if newTestPlan(Hostile, 42).Stats().Total() != 0 {
		t.Error("fresh plan must start with zero stats")
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	a := script(newTestPlan(Hostile, 1), 4000)
	b := script(newTestPlan(Hostile, 2), 4000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestResetReplaysStochasticDraws(t *testing.T) {
	plan := newTestPlan(Lossy, 7)
	plan.Reset("vp-1")
	first := script(plan, 2000)
	plan.Reset("vp-1")
	second := script(plan, 2000)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("decision %d diverged after Reset: %+v vs %+v", i, first[i], second[i])
		}
	}
	plan.Reset("vp-2")
	other := script(plan, 2000)
	same := 0
	for i := range first {
		if first[i] == other[i] {
			same++
		}
	}
	if same == len(first) {
		t.Error("distinct Reset labels produced identical draws")
	}
}

func TestNoneProfileInjectsNothing(t *testing.T) {
	if None.Active() {
		t.Error("None must be inactive")
	}
	for i, act := range script(newTestPlan(None, 9), 2000) {
		if act != (netsim.FaultAction{}) {
			t.Fatalf("decision %d injected %+v under the none profile", i, act)
		}
	}
}

func TestStatsAndFaultKinds(t *testing.T) {
	plan := newTestPlan(Hostile, 3)
	script(plan, 20000)
	s := plan.Stats()
	if s.Dropped == 0 || s.Flapped == 0 || s.Refused == 0 || s.Delayed == 0 ||
		s.Blackouts == 0 || s.TunnelResets == 0 {
		t.Errorf("a long hostile run should exercise every fault kind: %+v", s)
	}
	if s.Total() != s.Dropped+s.Flapped+s.Refused+s.Delayed+s.Blackouts+s.TunnelResets {
		t.Error("Total mismatch")
	}
}

func TestConnectRefusalTargetsVPsOnly(t *testing.T) {
	plan := newTestPlan(Profile{Name: "refuse-only", ConnectRefusalRate: 1}, 5)
	hook := plan.Hook()
	if act := hook(0, nil, vpAddr, capture.ProtoICMP); !act.Refuse {
		t.Error("ICMP to a vantage point must be refused at rate 1")
	}
	if act := hook(0, nil, webAddr, capture.ProtoICMP); act.Refuse {
		t.Error("ICMP to a non-VP address must pass")
	}
	if act := hook(0, nil, vpAddr, capture.ProtoTCP); act.Refuse {
		t.Error("non-ICMP traffic to a vantage point must pass")
	}
}

func TestBlackoutTargetsResolversOnly(t *testing.T) {
	p := Profile{Name: "dns-only", DNSBlackoutEvery: time.Minute, DNSBlackoutLen: time.Minute}
	plan := newTestPlan(p, 5)
	hook := plan.Hook()
	if act := hook(0, nil, resolver, capture.ProtoUDP); !act.Drop {
		t.Error("resolver traffic must drop during an always-on blackout")
	}
	if act := hook(0, nil, webAddr, capture.ProtoUDP); act.Drop {
		t.Error("non-resolver traffic must pass")
	}
}

func TestByName(t *testing.T) {
	for _, want := range []Profile{None, Mild, Lossy, Hostile} {
		got, err := ByName(want.Name)
		if err != nil || got.Name != want.Name {
			t.Errorf("ByName(%q) = %+v, %v", want.Name, got, err)
		}
	}
	if _, err := ByName("cataclysmic"); err == nil {
		t.Error("unknown profile must error")
	}
}

func TestLossyMeetsChaosAcceptanceBar(t *testing.T) {
	// The chaos-invariance criterion: >=5% loss, periodic flaps,
	// >=10% connect refusals.
	if Lossy.PacketLoss < 0.05 || Lossy.FlapEvery <= 0 || Lossy.ConnectRefusalRate < 0.10 {
		t.Errorf("Lossy no longer meets the acceptance bar: %+v", Lossy)
	}
}

func TestDropWindowsShorterThanFailureDetection(t *testing.T) {
	// vpn clients detect tunnel failure after at least 20s of
	// consecutive errors; any drop window sustaining errors that long
	// would genuinely fail clients open mid-suite and change leak
	// observables. Windows must also fit under the plan's outage clamp,
	// or the clamp would punch holes in every scheduled window.
	for _, p := range []Profile{Mild, Lossy, Hostile} {
		for kind, l := range map[string]time.Duration{
			"FlapLen":        p.FlapLen,
			"DNSBlackoutLen": p.DNSBlackoutLen,
			"TunnelResetLen": p.TunnelResetLen,
		} {
			if l > maxOutageSpan {
				t.Errorf("%s: %s %v exceeds the outage clamp %v", p.Name, kind, l, maxOutageSpan)
			}
		}
	}
	if maxOutageSpan >= 20*time.Second {
		t.Errorf("outage clamp %v risks genuine fail-open", time.Duration(maxOutageSpan))
	}
}

func TestOutageClampBoundsConsecutiveDrops(t *testing.T) {
	// A pathological profile that flaps forever: without the clamp every
	// exchange would drop. The clamp must force a pass through before
	// any consecutive-drop span reaches maxOutageSpan.
	p := Profile{Name: "dead-link", FlapEvery: time.Minute, FlapLen: time.Minute}
	plan := newTestPlan(p, 13)
	hook := plan.Hook()
	start := -time.Second // sentinel: no drop seen yet
	spanStart := start
	for i := 0; i < 1000; i++ {
		now := time.Duration(i) * time.Second
		act := hook(now, nil, webAddr, capture.ProtoTCP)
		if act.Drop {
			if spanStart < 0 {
				spanStart = now
			}
			if span := now - spanStart; span >= maxOutageSpan {
				t.Fatalf("consecutive drops spanned %v at t=%v, clamp is %v", span, now, maxOutageSpan)
			}
		} else {
			spanStart = start
		}
	}
	if plan.Stats().Flapped == 0 {
		t.Fatal("the dead link never dropped anything")
	}
}

// TestStreamDerivationShardIndependent is the per-shard stream audit
// behind the parallel campaign executor: a plan's post-Reset decision
// sequence for a vantage-point key depends only on (seed, key) — not on
// which keys ran before it, nor on which Plan instance replays it. This
// is what lets every shard hold its own Plan and still reproduce the
// sequential campaign's draws exactly.
func TestStreamDerivationShardIndependent(t *testing.T) {
	run := func(plan *Plan, key string) []netsim.FaultAction {
		plan.Reset(key)
		return script(plan, 120)
	}
	a := newTestPlan(Lossy, 2018)
	seqA, seqB := run(a, "vp-a"), run(a, "vp-b")

	// A second plan replays the keys in the opposite order.
	b := newTestPlan(Lossy, 2018)
	revB, revA := run(b, "vp-b"), run(b, "vp-a")

	for i := range seqA {
		if seqA[i] != revA[i] {
			t.Fatalf("vp-a decision %d depends on derivation order: %+v vs %+v", i, seqA[i], revA[i])
		}
		if seqB[i] != revB[i] {
			t.Fatalf("vp-b decision %d depends on derivation order: %+v vs %+v", i, seqB[i], revB[i])
		}
	}
	// Distinct keys must yield distinct streams, or the audit is vacuous.
	same := true
	for i := range seqA {
		if seqA[i] != seqB[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("vp-a and vp-b streams are identical; keys are not differentiating draws")
	}
}

// TestAbsorbSumsShardStats: Absorb folds shard counters into the
// campaign plan so parallel totals match a sequential run's.
func TestAbsorbSumsShardStats(t *testing.T) {
	whole := newTestPlan(Lossy, 2018)
	whole.Reset("vp-a")
	script(whole, 200)
	whole.Reset("vp-b")
	script(whole, 200)

	shardA, shardB := newTestPlan(Lossy, 2018), newTestPlan(Lossy, 2018)
	shardA.Reset("vp-a")
	script(shardA, 200)
	shardB.Reset("vp-b")
	script(shardB, 200)
	campaign := newTestPlan(Lossy, 2018)
	campaign.Absorb(shardA.Stats())
	campaign.Absorb(shardB.Stats())

	if got, want := campaign.Stats(), whole.Stats(); got != want {
		t.Fatalf("absorbed stats = %+v, sequential plan counted %+v", got, want)
	}
	if campaign.Stats().Total() == 0 {
		t.Fatal("no faults fired; the comparison is vacuous")
	}
}
