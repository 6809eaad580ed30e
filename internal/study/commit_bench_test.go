package study

import (
	"fmt"
	"testing"

	"vpnscope/internal/vpntest"
)

// benchCampaign fabricates a campaign's worth of slot specs: nProv
// providers with vpsPer vantage points each.
func benchCampaign(nProv, vpsPer int) []slotSpec {
	var specs []slotSpec
	slot := 0
	for p := 0; p < nProv; p++ {
		prov := fmt.Sprintf("Prov%03d", p)
		for v := 0; v < vpsPer; v++ {
			label := fmt.Sprintf("vp%d.prov%03d (US)", v, p)
			key := vpKey(prov, label)
			specs = append(specs, slotSpec{
				provIdx: p, vpIdx: v, order: slot,
				provider: prov, label: label, key: key,
			})
			slot++
		}
	}
	return specs
}

var benchStreamSink int

// BenchmarkCommitStream drives the incremental committer through a full
// campaign with a Stream sink — the path every durable campaign takes,
// handing each outcome to its shard log. Committing in canonical order
// appends to an always-sorted prefix and streams the outcome by value,
// so cost per outcome is O(1) amortized with no per-outcome allocation.
// The allocs-per-outcome ceiling below fails the benchmark even under
// -benchtime 1x (tier-1 runs it that way), so a regression to
// re-sorting, re-copying, or boxing per outcome cannot land silently.
func BenchmarkCommitStream(b *testing.B) {
	const nProv, vpsPer = 64, 8
	const slots = nProv * vpsPer
	specs := benchCampaign(nProv, vpsPer)
	reports := make([]*vpntest.VPReport, slots)
	for i, s := range specs {
		reports[i] = &vpntest.VPReport{Provider: s.provider, VPLabel: s.label}
	}

	run := func() {
		streamed := 0
		cfg := &RunConfig{Stream: func(o Outcome) error {
			benchStreamSink += o.Rank
			streamed++
			return nil
		}}
		cfg.fill()
		c, err := newCommitter(cfg, specs)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range specs {
			need, err := c.prepare(s)
			if err != nil {
				b.Fatal(err)
			}
			if !need {
				b.Fatalf("slot %d unexpectedly resumed", s.order)
			}
			if err := c.commit(s, vpResult{report: reports[s.order]}); err != nil {
				b.Fatal(err)
			}
		}
		if res := c.fold.Result(); streamed != slots || res.VPsAttempted != slots {
			b.Fatalf("streamed %d outcomes of %d attempted, want %d", streamed, res.VPsAttempted, slots)
		}
	}

	// Gate: the streaming commit measures ~0.01 allocations per outcome
	// (5 per 512-slot campaign: this harness's config, sink, and
	// counter, the committer, and its per-provider breaker slice —
	// nothing per outcome). Ceiling 0.03 leaves ~3x headroom while
	// catching any return to a per-outcome allocation.
	const allocCeiling = 0.03
	if per := testing.AllocsPerRun(5, run) / slots; per > allocCeiling {
		b.Fatalf("streaming commit allocates %.3f objects per outcome (ceiling %.2f): commit path regressed", per, allocCeiling)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
