// Chaos-validation layer: the planted ground-truth verdicts must
// survive escalating infrastructure fault profiles, with every
// degradation visible in the resilience record rather than silent —
// measurement conclusions invariant to flakiness up to the documented
// tolerance (DESIGN.md, "Fault model & resilience").
package study_test

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"time"

	"vpnscope/internal/analysis"
	"vpnscope/internal/ecosystem"
	"vpnscope/internal/faultsim"
	"vpnscope/internal/geo"
	"vpnscope/internal/results"
	"vpnscope/internal/study"
	"vpnscope/internal/vpn"
)

func buildSubset(t testing.TB, seed uint64, names ...string) *study.World {
	t.Helper()
	all := ecosystem.TestedSpecs(seed, 5)
	var specs []vpn.ProviderSpec
	for _, s := range all {
		for _, want := range names {
			if s.Name == want {
				specs = append(specs, s)
			}
		}
	}
	if len(specs) != len(names) {
		t.Fatalf("resolved %d of %d providers", len(specs), len(names))
	}
	w, err := study.Build(study.Options{
		Seed: seed, ExtraTLSHosts: 10, Providers: specs, LandmarkCount: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// silentDrops returns how many attempted vantage points are missing
// from every record — the number the acceptance criteria require to be
// zero.
func silentDrops(res *study.Result) int {
	accounted := len(res.Reports) + len(res.ConnectFailures)
	for _, q := range res.Quarantines {
		accounted += len(q.SkippedVPs)
	}
	return res.VPsAttempted - accounted
}

// TestChaosInvarianceFullStudy is the headline acceptance test: the
// full 62-provider campaign under the Lossy profile (8% packet loss,
// periodic link flaps, resolver blackouts, tunnel resets, 12% connect
// refusals) still reproduces every §6 verdict.
func TestChaosInvarianceFullStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos study in -short mode")
	}
	w, err := study.Build(study.Options{Seed: 2018})
	if err != nil {
		t.Fatal(err)
	}
	plan := w.EnableFaults(faultsim.Lossy)
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}

	// The faults must actually have fired — a vacuous pass proves
	// nothing.
	if s := plan.Stats(); s.Total() == 0 || s.Dropped == 0 || s.Refused == 0 {
		t.Fatalf("fault plan barely fired: %+v", s)
	}

	// Zero silent drops: every enumerated vantage point of every active
	// provider is in exactly one record.
	want := 0
	for _, p := range w.Providers {
		if p.Spec.Client == vpn.BrowserExtension {
			continue
		}
		want += len(p.VPs)
	}
	if res.VPsAttempted != want {
		t.Errorf("attempted %d of %d enumerated vantage points", res.VPsAttempted, want)
	}
	if d := silentDrops(res); d != 0 {
		t.Errorf("%d vantage points silently dropped", d)
	}

	// Headline verdicts, unchanged from the clean-run benchmarks.
	inj := analysis.Injections(analysis.Slice(res.Reports))
	if len(inj) != 1 || inj[0].Provider != "Seed4.me" {
		t.Errorf("injections = %+v, want exactly Seed4.me", inj)
	}
	if proxies := analysis.TransparentProxies(analysis.Slice(res.Reports)); len(proxies) != 5 {
		t.Errorf("transparent proxies = %v, want 5", proxies)
	}
	if vv := analysis.DetectVirtualVPs(analysis.Slice(res.Reports), w.Config); len(vv.Providers) != 6 {
		t.Errorf("virtual-VP providers = %v, want the paper's six", vv.Providers)
	}
	leaks := analysis.Leaks(analysis.Slice(res.Reports))
	if len(leaks.DNSLeakers) != 2 {
		t.Errorf("DNS leakers = %v, want 2", leaks.DNSLeakers)
	}
	if len(leaks.IPv6Leakers) != 12 {
		t.Errorf("IPv6 leakers = %v, want 12", leaks.IPv6Leakers)
	}
	if rate := leaks.FailOpenRate(); leaks.Applicable != 43 || rate < 0.5 || rate > 0.65 {
		t.Errorf("fail-open %d/%d = %.0f%%, want 25/43 = 58%%",
			len(leaks.FailOpen), leaks.Applicable, 100*rate)
	}
}

// TestChaosEscalationHostile pushes the documented tolerance limit on a
// subset carrying each planted behavior: ad injection (Seed4.me),
// transparent proxying (CyberGhost), DNS leakage (WorldVPN), and
// virtual vantage points (Avira).
func TestChaosEscalationHostile(t *testing.T) {
	w := buildSubset(t, 2018, "Seed4.me", "CyberGhost", "WorldVPN", "Avira")
	w.EnableFaults(faultsim.Hostile)
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d := silentDrops(res); d != 0 {
		t.Errorf("%d vantage points silently dropped", d)
	}
	inj := analysis.Injections(analysis.Slice(res.Reports))
	if len(inj) != 1 || inj[0].Provider != "Seed4.me" {
		t.Errorf("injections = %+v, want exactly Seed4.me", inj)
	}
	if proxies := analysis.TransparentProxies(analysis.Slice(res.Reports)); len(proxies) != 1 || proxies[0] != "CyberGhost" {
		t.Errorf("proxies = %v, want exactly CyberGhost", proxies)
	}
	leaks := analysis.Leaks(analysis.Slice(res.Reports))
	found := false
	for _, p := range leaks.DNSLeakers {
		if p == "WorldVPN" {
			found = true
		}
	}
	if !found {
		t.Errorf("DNS leakers = %v, want WorldVPN recovered", leaks.DNSLeakers)
	}
	vv := analysis.DetectVirtualVPs(analysis.Slice(res.Reports), w.Config)
	found = false
	for _, p := range vv.Providers {
		if p == "Avira" {
			found = true
		}
	}
	if !found {
		t.Errorf("virtual-VP providers = %v, want Avira recovered", vv.Providers)
	}
}

// TestRetryRecoversFlakyConnects: under heavy connect refusal, the
// backoff loop turns most first-attempt failures into measured vantage
// points and records each recovery.
func TestRetryRecoversFlakyConnects(t *testing.T) {
	w := buildSubset(t, 2018, "Mullvad", "NordVPN")
	w.EnableFaults(faultsim.Profile{Name: "refuse-heavy", ConnectRefusalRate: 0.5})
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d := silentDrops(res); d != 0 {
		t.Errorf("%d vantage points silently dropped", d)
	}
	if len(res.Recoveries) == 0 {
		t.Error("expected retry recoveries under 50% connect refusal")
	}
	for _, rec := range res.Recoveries {
		if rec.Attempts < 2 {
			t.Errorf("recovery %+v needed fewer than 2 attempts", rec)
		}
	}
	if len(res.Reports) <= len(res.ConnectFailures) {
		t.Errorf("retries should rescue most vantage points: %d measured, %d failed",
			len(res.Reports), len(res.ConnectFailures))
	}
}

// TestQuarantineCircuitBreaker: a provider whose endpoints are all dead
// trips the breaker after N consecutive failures; the rest of its
// vantage points are skipped and recorded.
func TestQuarantineCircuitBreaker(t *testing.T) {
	w := buildSubset(t, 7, "Mullvad", "NordVPN")
	for _, p := range w.Providers {
		if p.Name() == "Mullvad" {
			for _, vp := range p.VPs {
				vp.Host.SetDown(true)
			}
		}
	}
	// Parallel must be 1: the test mutates the world after Build (hosts
	// marked down), which shard clones — rebuilt from Options — cannot
	// see. TestParallelQuarantineByteIdentical covers the breaker under
	// parallel execution via a fault profile instead.
	res, err := w.RunWith(study.RunConfig{QuarantineAfter: 2, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantines) != 1 {
		t.Fatalf("quarantines = %+v, want exactly one", res.Quarantines)
	}
	q := res.Quarantines[0]
	if q.Provider != "Mullvad" || q.TrippedAfter != 2 || len(q.SkippedVPs) != 3 {
		t.Errorf("quarantine = %+v, want Mullvad after 2 with 3 skipped", q)
	}
	if got := len(res.ConnectFailures); got != 2 {
		t.Errorf("connect failures = %d, want 2 (the tripping streak)", got)
	}
	if d := silentDrops(res); d != 0 {
		t.Errorf("%d vantage points silently dropped", d)
	}
	// The healthy provider is unaffected.
	if len(res.ReportsFor("NordVPN")) != 5 {
		t.Errorf("NordVPN reports = %d, want 5", len(res.ReportsFor("NordVPN")))
	}
	if len(res.ReportsFor("Mullvad")) != 0 {
		t.Error("quarantined provider must have no reports")
	}
}

// TestSuitePanicRecovered: a panicking test implementation is recorded
// in the report's Errors and the campaign (and the rest of the suite)
// continues.
func TestSuitePanicRecovered(t *testing.T) {
	w := buildSubset(t, 7, "Mullvad")
	w.Config.GeoAPI = func(addr netip.Addr) (geo.Country, bool) {
		panic("geo API exploded")
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 5 {
		t.Fatalf("reports = %d, want 5 despite the panicking test", len(res.Reports))
	}
	for _, r := range res.Reports {
		foundPanic := false
		for _, e := range r.Errors {
			if strings.Contains(e, "geo") && strings.Contains(e, "panic: geo API exploded") {
				foundPanic = true
			}
		}
		if !foundPanic {
			t.Errorf("%s: panic not recorded in Errors: %v", r.VPLabel, r.Errors)
		}
		// The suite kept going past the panic.
		if r.Pings == nil || r.Proxy == nil {
			t.Errorf("%s: suite aborted after panic", r.VPLabel)
		}
	}
}

// TestSuiteBudgetsRecorded: per-test and whole-suite virtual-time
// budgets surface overruns and cut off runaway suites visibly.
func TestSuiteBudgetsRecorded(t *testing.T) {
	w := buildSubset(t, 7, "Mullvad")
	res, err := w.RunWith(study.RunConfig{
		TestBudget:  time.Second,
		SuiteBudget: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) == 0 {
		t.Fatal("no reports")
	}
	overruns, cutoffs := 0, 0
	for _, r := range res.Reports {
		for _, e := range r.Errors {
			if strings.Contains(e, "exceeded per-test budget") {
				overruns++
			}
			if strings.Contains(e, "suite budget") {
				cutoffs++
			}
		}
	}
	if overruns == 0 {
		t.Error("a 1s per-test budget must record overruns")
	}
	if cutoffs == 0 {
		t.Error("a 30s suite budget must record skipped tests")
	}
}

// TestChaosResumeByteIdentical: the acceptance criterion's strongest
// form — kill a campaign mid-run *under faults* and resume it from its
// outcome log on a freshly built world; the envelope of the sealed log
// must equal the uninterrupted run's byte for byte.
func TestChaosResumeByteIdentical(t *testing.T) {
	build := func() *study.World {
		w := buildSubset(t, 2018, "Seed4.me", "WorldVPN", "Windscribe")
		w.EnableFaults(faultsim.Lossy)
		return w
	}

	ref, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}
	var refBuf bytes.Buffer
	if err := results.Save(&refBuf, ref, results.WithSeed(2018), results.WithFaultProfile("lossy")); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	mustInterrupt(t, interruptIntoLog(t, build, dir, 4, 0, false), false)
	if n := durable(t, dir); n != 4 {
		t.Errorf("killed log holds %d outcomes, want 4", n)
	}
	if !bytes.Equal(refBuf.Bytes(), resumeLog(t, build, dir, 0, nil)) {
		t.Error("killed-then-resumed chaos campaign is not byte-identical to the uninterrupted run")
	}
}

// TestClientStackErrorRecorded: a stack-provisioning failure becomes a
// ConnectFailure instead of aborting the whole campaign (the seed
// runner returned the error and lost everything measured so far).
func TestClientStackErrorRecorded(t *testing.T) {
	w := buildSubset(t, 7, "Mullvad")
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 5 {
		t.Fatalf("clean run should measure all 5 VPs, got %d", len(res.Reports))
	}
	for _, cf := range res.ConnectFailures {
		if cf.Attempts == 0 && cf.Err == "" {
			t.Errorf("malformed connect failure: %+v", cf)
		}
	}
}
