// Parallel-executor validation: any RunConfig.Parallel value must
// serialize byte-identically to a sequential run — under faults, under
// quarantine, across kill/resume at every vantage-point boundary, and
// for the full 62-provider campaign — with the headline verdicts
// intact. These tests are the acceptance criteria of the shard/merge
// execution model (DESIGN.md, "Parallel execution").
package study_test

import (
	"bytes"
	"testing"

	"vpnscope/internal/analysis"
	"vpnscope/internal/faultsim"
	"vpnscope/internal/results"
	"vpnscope/internal/study"
)

// envelope serializes a result the way the CLIs do, the byte-identity
// comparison currency of these tests.
func envelope(t *testing.T, res *study.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := results.Save(&buf, res, results.WithSeed(2018), results.WithFaultProfile("lossy")); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelByteIdenticalSubset is the fast (-short, race-checked)
// form of the golden test: a 3-provider lossy campaign run with eight
// workers serializes byte-identically to the sequential run.
func TestParallelByteIdenticalSubset(t *testing.T) {
	build := func() *study.World {
		w := buildSubset(t, 2018, "Seed4.me", "WorldVPN", "Windscribe")
		w.EnableFaults(faultsim.Lossy)
		return w
	}
	seq, err := build().RunWith(study.RunConfig{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := build().RunWith(study.RunConfig{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Reports) == 0 || par.VPsAttempted != seq.VPsAttempted {
		t.Fatalf("parallel run attempted %d vantage points, sequential %d", par.VPsAttempted, seq.VPsAttempted)
	}
	if !bytes.Equal(envelope(t, seq), envelope(t, par)) {
		t.Error("Parallel=8 envelope differs from Parallel=1")
	}
}

// TestParallelQuarantineByteIdentical: the circuit breaker — whose
// streak state is inherently sequential within a provider — still
// produces identical records when providers run as concurrent shards.
// All endpoints are dead via a fault profile (not post-Build world
// mutation, which shard clones cannot see), so every provider trips.
func TestParallelQuarantineByteIdentical(t *testing.T) {
	dead := faultsim.Profile{Name: "dead", ConnectRefusalRate: 1}
	build := func() *study.World {
		w := buildSubset(t, 2018, "Seed4.me", "WorldVPN", "Windscribe")
		w.EnableFaults(dead)
		return w
	}
	cfg := study.RunConfig{QuarantineAfter: 2}
	cfg.Parallel = 1
	seq, err := build().RunWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 8
	par, err := build().RunWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Quarantines) != 3 {
		t.Errorf("quarantines = %d, want all 3 dead providers tripped", len(par.Quarantines))
	}
	if d := silentDrops(par); d != 0 {
		t.Errorf("%d vantage points silently dropped", d)
	}
	if !bytes.Equal(envelope(t, seq), envelope(t, par)) {
		t.Error("quarantine-heavy Parallel=8 envelope differs from Parallel=1")
	}
}

// TestParallelGoldenFullStudy is the tentpole acceptance test: the full
// 62-provider campaign under the lossy profile, Parallel=8 versus
// Parallel=1, byte-identical envelopes, identical fault-injection
// totals (shard counters absorbed into the campaign plan), and every §6
// headline verdict intact on the parallel run's reports.
func TestParallelGoldenFullStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden study in -short mode")
	}
	seqW, err := study.Build(study.Options{Seed: 2018})
	if err != nil {
		t.Fatal(err)
	}
	seqPlan := seqW.EnableFaults(faultsim.Lossy)
	seq, err := seqW.RunWith(study.RunConfig{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}

	parW, err := study.Build(study.Options{Seed: 2018})
	if err != nil {
		t.Fatal(err)
	}
	parPlan := parW.EnableFaults(faultsim.Lossy)
	par, err := parW.RunWith(study.RunConfig{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(envelope(t, seq), envelope(t, par)) {
		t.Error("full-study Parallel=8 envelope differs from Parallel=1")
	}
	// The shards' fault counters, absorbed on worker exit, must equal
	// the sequential plan's: every draw happens inside some vantage
	// point's boundary-reset stream, so the totals are execution-order
	// independent too.
	if sp, pp := seqPlan.Stats(), parPlan.Stats(); sp != pp {
		t.Errorf("fault stats diverged: sequential %+v, parallel %+v", sp, pp)
	}
	if parPlan.Stats().Total() == 0 {
		t.Error("parallel campaign absorbed no fault stats")
	}
	if d := silentDrops(par); d != 0 {
		t.Errorf("%d vantage points silently dropped", d)
	}

	// Headline verdicts from the parallel run's reports.
	inj := analysis.Injections(analysis.Slice(par.Reports))
	if len(inj) != 1 || inj[0].Provider != "Seed4.me" {
		t.Errorf("injections = %+v, want exactly Seed4.me", inj)
	}
	if proxies := analysis.TransparentProxies(analysis.Slice(par.Reports)); len(proxies) != 5 {
		t.Errorf("transparent proxies = %v, want 5", proxies)
	}
	if vv := analysis.DetectVirtualVPs(analysis.Slice(par.Reports), parW.Config); len(vv.Providers) != 6 {
		t.Errorf("virtual-VP providers = %v, want the paper's six", vv.Providers)
	}
	leaks := analysis.Leaks(analysis.Slice(par.Reports))
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

// TestParallelKillResumeFuzz kills a 5-provider lossy campaign at every
// vantage-point boundary and resumes its outcome log under 1, 2, and 4
// workers; the envelope of every resumed log's fold must equal the
// uninterrupted reference byte for byte. The kill itself cycles through
// 1, 2, 4, and 8 workers, so logs cut short mid-parallel-run are
// resumed by every path too.
func TestParallelKillResumeFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("kill/resume fuzz in -short mode")
	}
	providers := []string{"Seed4.me", "WorldVPN", "Windscribe", "Mullvad", "NordVPN"}
	build := func() *study.World {
		w := buildSubset(t, 2018, providers...)
		w.EnableFaults(faultsim.Lossy)
		return w
	}

	ref, err := build().RunWith(study.RunConfig{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := silentDrops(ref); d != 0 {
		t.Fatalf("%d vantage points silently dropped in reference run", d)
	}
	refBytes := envelope(t, ref)
	total := ref.VPsAttempted

	for k := 1; k <= total; k++ {
		killPar := []int{1, 2, 4, 8}[k%4]
		dir := t.TempDir()
		mustInterrupt(t, interruptIntoLog(t, build, dir, k, killPar, false), false)
		if n := durable(t, dir); n != k {
			t.Fatalf("k=%d: killed log holds %d outcomes", k, n)
		}
		for _, resumePar := range []int{1, 2, 4} {
			if !bytes.Equal(refBytes, resumeLog(t, build, copyLog(t, dir), resumePar, nil)) {
				t.Errorf("k=%d (killed under Parallel=%d, resumed under Parallel=%d): envelope differs from reference",
					k, killPar, resumePar)
			}
		}
	}
}
