package study

import (
	"runtime"
	"testing"

	"vpnscope/internal/ecosystem"
	"vpnscope/internal/faultsim"
	"vpnscope/internal/vpn"
)

// smallCampaignByteCeiling gates the heap bytes one small campaign
// allocates: world build (template hit), two measured slots under the
// lossy profile, and the campaign's teardown. It measures 0.63 MB with
// warm scratch bundles (1.95 MB when every world regrew its slot arena,
// record arrays and prototype map from nothing); the ceiling is ~1.5x.
const smallCampaignByteCeiling = 920 << 10

// smallCampaignOptions is the daemon's common request: one tested
// provider with two vantage points on a trimmed web.
func smallCampaignOptions(tb testing.TB) Options {
	for _, s := range ecosystem.TestedSpecs(7, 2) {
		if s.Name == "Windscribe" {
			return Options{Seed: 7, VPsPerProvider: 2, ExtraTLSHosts: 5, LandmarkCount: 10,
				Providers: []vpn.ProviderSpec{s}}
		}
	}
	tb.Fatal("Windscribe missing from the tested set")
	return Options{}
}

// BenchmarkSmallCampaign builds and runs a one-provider, two-VP lossy
// campaign end to end with the world-template cache and the scratch
// pool warm — the shape of a small daemon campaign, where every world
// is fresh and per-world warm-up garbage dominates. The bytes-per-
// campaign ceiling fails the benchmark even under -benchtime 1x.
func BenchmarkSmallCampaign(b *testing.B) {
	opts := smallCampaignOptions(b)
	run := func() {
		w, err := Build(opts)
		if err != nil {
			b.Fatal(err)
		}
		w.EnableFaults(faultsim.Lossy)
		if _, err := w.RunWith(RunConfig{Parallel: 1}); err != nil {
			b.Fatal(err)
		}
	}
	bytes := campaignBytes(run, 5)
	b.Logf("small campaign: %.0f bytes (ceiling %d)", bytes, smallCampaignByteCeiling)
	if bytes > smallCampaignByteCeiling {
		b.Fatalf("one small campaign allocates %.0f bytes, ceiling is %d — per-world scratch is regrowing",
			bytes, smallCampaignByteCeiling)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// campaignBytes warms run once, then returns the mean heap bytes
// allocated over n runs, measured on one P so no other goroutine's
// garbage is counted.
func campaignBytes(run func(), n int) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}
