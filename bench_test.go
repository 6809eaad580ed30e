// Package vpnscope's root test file is the benchmark harness of the
// reproduction: one benchmark per table and figure of the paper, each
// regenerating the corresponding artifact and asserting its shape. See
// DESIGN.md's per-experiment index and EXPERIMENTS.md for
// paper-vs-measured values.
package vpnscope

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"vpnscope/internal/analysis"
	"vpnscope/internal/ecosystem"
	"vpnscope/internal/faultsim"
	"vpnscope/internal/flightrec"
	"vpnscope/internal/netsim"
	"vpnscope/internal/ovpnconf"
	"vpnscope/internal/report"
	"vpnscope/internal/results/shardlog"
	"vpnscope/internal/stats"
	"vpnscope/internal/study"
	"vpnscope/internal/torsim"
	"vpnscope/internal/vpn"
	"vpnscope/internal/vpntest"
	"vpnscope/internal/websim"
)

// The full study is expensive (~8s); build and run it once, share the
// reports across all benchmarks.
var (
	studyOnce sync.Once
	studyW    *study.World
	studyRes  *study.Result
	studyErr  error
)

func loadStudy(b *testing.B) (*study.World, *study.Result) {
	b.Helper()
	studyOnce.Do(func() {
		studyW, studyErr = study.Build(study.Options{Seed: 2018})
		if studyErr != nil {
			return
		}
		studyRes, studyErr = studyW.Run()
	})
	if studyErr != nil {
		b.Fatal(studyErr)
	}
	return studyW, studyRes
}

var catalogOnce sync.Once
var catalogEntries []ecosystem.CatalogEntry

func loadCatalog() []ecosystem.CatalogEntry {
	catalogOnce.Do(func() { catalogEntries = ecosystem.BuildCatalog(2018) })
	return catalogEntries
}

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

func BenchmarkTable1ReviewSites(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sites := ecosystem.ReviewSites()
		if len(sites) != 20 {
			b.Fatalf("sites = %d, want 20 (Table 1)", len(sites))
		}
	}
}

func BenchmarkTable2SelectionCategories(b *testing.B) {
	entries := loadCatalog()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := ecosystem.Categories(entries)
		if c.Total != 200 {
			b.Fatalf("total = %d, want 200 (Table 2)", c.Total)
		}
	}
}

func BenchmarkTable3SubscriptionCosts(b *testing.B) {
	entries := loadCatalog()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := ecosystem.SubscriptionStats(entries)
		if len(rows) != 4 || rows[0].Plan != "Monthly" {
			b.Fatal("Table 3 shape wrong")
		}
		if rows[0].Avg < 8 || rows[0].Avg > 12 {
			b.Fatalf("monthly avg = %.2f, want ~10.10 (Table 3)", rows[0].Avg)
		}
	}
}

func BenchmarkTable4Redirections(b *testing.B) {
	_, res := loadStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := analysis.Redirections(analysis.Slice(res.Reports))
		// The paper's table tops out with Turkey's IP-literal block
		// page hit by 8 providers.
		if len(rows) == 0 || rows[0].Destination != "http://195.175.254.2" || rows[0].VPNs != 8 {
			b.Fatalf("Table 4 head = %+v", rows)
		}
	}
}

func BenchmarkTable5SharedBlocks(b *testing.B) {
	_, res := loadStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		infra := analysis.Infrastructure(analysis.Slice(res.Reports), 3)
		if len(infra.SharedBlocks) < 8 {
			b.Fatalf("shared blocks = %d, want >= 8 (Table 5)", len(infra.SharedBlocks))
		}
		if len(infra.SharedExactIP) != 4 {
			b.Fatalf("identical endpoints = %d, want 4 (Boxpn/Anonine)", len(infra.SharedExactIP))
		}
	}
}

func BenchmarkTable6Leakage(b *testing.B) {
	_, res := loadStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leaks := analysis.Leaks(analysis.Slice(res.Reports))
		if len(leaks.DNSLeakers) != 2 {
			b.Fatalf("DNS leakers = %v, want 2 (Table 6)", leaks.DNSLeakers)
		}
		if len(leaks.IPv6Leakers) != 12 {
			b.Fatalf("IPv6 leakers = %v, want 12 (Table 6)", leaks.IPv6Leakers)
		}
	}
}

func BenchmarkTable7EvaluatedVPNs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		names := ecosystem.TestedNames()
		if len(names) != 62 {
			b.Fatalf("evaluated = %d, want 62 (Table 7)", len(names))
		}
	}
}

// ---------------------------------------------------------------------
// Figures
// ---------------------------------------------------------------------

func BenchmarkFigure1BusinessLocations(b *testing.B) {
	entries := loadCatalog()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		locs := ecosystem.BusinessLocationCounts(entries)
		if locs[0].Country != "US" {
			b.Fatalf("top country = %s, want US (Figure 1)", locs[0].Country)
		}
	}
}

func BenchmarkFigure2ServerCountCDF(b *testing.B) {
	entries := loadCatalog()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cdf, err := stats.NewCDF(ecosystem.ClaimedServerCounts(entries))
		if err != nil {
			b.Fatal(err)
		}
		if p := cdf.At(750); p < 0.7 || p > 0.9 {
			b.Fatalf("P(servers<=750) = %.2f, want ~0.80 (Figure 2)", p)
		}
	}
}

func BenchmarkFigure3VantageHeatmap(b *testing.B) {
	specs := ecosystem.TestedSpecs(2018, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := map[string]int{}
		for _, s := range specs {
			for _, vp := range s.VantagePoints {
				counts[string(vp.ClaimedCountry)]++
			}
		}
		if counts["US"] == 0 || counts["GB"] == 0 {
			b.Fatal("Figure 3 heatmap missing core countries")
		}
	}
}

func BenchmarkFigure4PaymentMethods(b *testing.B) {
	entries := loadCatalog()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := ecosystem.PaymentCounts(entries)
		if pc[ecosystem.PayBitcoin] <= pc[ecosystem.PayEthereum] {
			b.Fatal("Bitcoin must dominate crypto (Figure 4)")
		}
	}
}

func BenchmarkFigure5Tunneling(b *testing.B) {
	entries := loadCatalog()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proto := ecosystem.ProtocolCounts(entries)
		if proto[ecosystem.ProtoOpenVPN] <= proto[ecosystem.ProtoSSH] {
			b.Fatal("protocol ordering wrong (Figure 5)")
		}
	}
}

func BenchmarkFigure6CensorshipRedirect(b *testing.B) {
	// Figure 6 is the TTK block page screenshot; its reproduction is
	// the detected redirect event on a Russian egress.
	_, res := loadStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found := false
		for _, row := range analysis.Redirections(analysis.Slice(res.Reports)) {
			if row.Destination == "http://fz139.ttk.ru" && row.Country == "RU" {
				found = true
			}
		}
		if !found {
			b.Fatal("TTK redirect not reproduced (Figure 6)")
		}
	}
}

func BenchmarkFigure7AdInjection(b *testing.B) {
	// Figure 7 is the Seed4.me overlay screenshot; its reproduction is
	// the injection finding naming the provider's own CDN host.
	_, res := loadStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj := analysis.Injections(analysis.Slice(res.Reports))
		if len(inj) != 1 || inj[0].Provider != "Seed4.me" {
			b.Fatalf("injections = %+v, want exactly Seed4.me (Figure 7)", inj)
		}
	}
}

func BenchmarkFigure8SharedNetworks(b *testing.B) {
	// Figure 8 shows Anonine/Boxpn/EasyHideIP advertising the same
	// network; the measured signature is identical endpoint addresses.
	_, res := loadStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		infra := analysis.Infrastructure(analysis.Slice(res.Reports), 3)
		for ip, provs := range infra.SharedExactIP {
			if len(provs) < 2 {
				b.Fatalf("exact-IP share %s lists %v", ip, provs)
			}
		}
		if len(infra.SharedExactIP) != 4 {
			b.Fatalf("shared endpoints = %d, want 4 (Figure 8)", len(infra.SharedExactIP))
		}
	}
}

func BenchmarkFigure9RTTColocation(b *testing.B) {
	w, res := loadStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := analysis.Figure9Series(analysis.Slice(res.Reports), "HideMyAss")
		if len(series) < 60 {
			b.Fatalf("HideMyAss series = %d, want the big sweep (Figure 9c)", len(series))
		}
		var ls []report.LabeledSeries
		for _, s := range series[:10] {
			ls = append(ls, report.LabeledSeries{Label: s.Label, Values: s.Sorted})
		}
		report.Series(io.Discard, "fig9", ls)
		_ = w
	}
}

// ---------------------------------------------------------------------
// §6 headline results
// ---------------------------------------------------------------------

func BenchmarkResultInjectionCount(b *testing.B) {
	_, res := loadStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := len(analysis.Injections(analysis.Slice(res.Reports))); n != 1 {
			b.Fatalf("injecting providers = %d, want 1 (§6.1.3)", n)
		}
	}
}

func BenchmarkResultProxyDetection(b *testing.B) {
	_, res := loadStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proxies := analysis.TransparentProxies(analysis.Slice(res.Reports))
		if len(proxies) != 5 {
			b.Fatalf("proxies = %v, want 5 (§6.2.1)", proxies)
		}
	}
}

func BenchmarkResultGeoDBAgreement(b *testing.B) {
	w, res := loadStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := analysis.GeoAgreement(analysis.Slice(res.Reports), w.Databases)
		var google, maxmind float64
		for _, r := range rows {
			switch r.Database {
			case "google-geo-sim":
				google = r.AgreeRate
			case "geolite2-sim":
				maxmind = r.AgreeRate
			}
		}
		if !(google < maxmind) || google < 0.55 || google > 0.80 || maxmind < 0.90 {
			b.Fatalf("agreement google=%.2f maxmind=%.2f (§6.4.1 wants ~0.70 / ~0.95)", google, maxmind)
		}
	}
}

func BenchmarkResultVirtualVPs(b *testing.B) {
	w, res := loadStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vv := analysis.DetectVirtualVPs(analysis.Slice(res.Reports), w.Config)
		if len(vv.Providers) != 6 {
			b.Fatalf("virtual-VP providers = %v, want the paper's six (§6.4.2)", vv.Providers)
		}
	}
}

func BenchmarkResultTunnelFailure(b *testing.B) {
	_, res := loadStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leaks := analysis.Leaks(analysis.Slice(res.Reports))
		rate := leaks.FailOpenRate()
		if leaks.Applicable != 43 || rate < 0.5 || rate > 0.65 {
			b.Fatalf("fail-open %d/%d = %.0f%%, want 25/43 = 58%% (§6.5)",
				len(leaks.FailOpen), leaks.Applicable, 100*rate)
		}
	}
}

// ---------------------------------------------------------------------
// End-to-end and ablation benches
// ---------------------------------------------------------------------

// BenchmarkFullStudy measures the complete campaign: world assembly plus
// all 62 providers, ~400 vantage points, full suite.
func BenchmarkFullStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := study.Build(study.Options{Seed: uint64(2018 + i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkStudy runs the full 62-provider campaign under the lossy
// fault profile with a fixed worker count. Sequential vs parallel is
// the executor's headline trade: identical bytes, wall-clock divided
// across workers (on multi-core hosts; a single-core host shows a flat
// curve since the workload is CPU-bound — see BENCH_4.json notes).
// Worker replicas are built once and reset per slot, so the replica
// cost is one world build per worker regardless of campaign length.
func benchmarkStudy(b *testing.B, parallel int) {
	for i := 0; i < b.N; i++ {
		w, err := study.Build(study.Options{Seed: 2018})
		if err != nil {
			b.Fatal(err)
		}
		w.EnableFaults(faultsim.Lossy)
		res, err := w.RunWith(study.RunConfig{Parallel: parallel})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Reports) == 0 {
			b.Fatal("campaign measured nothing")
		}
	}
}

// BenchmarkFullCatalogCampaign measures the ecosystem-scale sweep: all
// 200 catalog providers (hand-built specs for the tested 62, derived
// profiles with planted ground truth for the rest) streamed into a
// sharded append-only outcome log, sealed, then re-iterated with a
// bounded-memory merge — the full-catalog CLI/daemon path end to end.
func BenchmarkFullCatalogCampaign(b *testing.B) {
	specs := ecosystem.CatalogSpecs(2018, loadCatalog(), 0, 0)
	for i := 0; i < b.N; i++ {
		lg, err := shardlog.Open(b.TempDir(), shardlog.Meta{Seed: 2018})
		if err != nil {
			b.Fatal(err)
		}
		w, err := study.Build(study.Options{Seed: 2018, Providers: specs})
		if err != nil {
			b.Fatal(err)
		}
		res, err := w.RunWith(study.RunConfig{Stream: lg.Append})
		if err != nil {
			b.Fatal(err)
		}
		if err := lg.MarkComplete(); err != nil {
			b.Fatal(err)
		}
		merged := 0
		if err := lg.Scan(func(study.Outcome) error { merged++; return nil }); err != nil {
			b.Fatal(err)
		}
		if merged == 0 || merged != res.VPsAttempted {
			b.Fatalf("merged %d outcomes, campaign attempted %d", merged, res.VPsAttempted)
		}
		b.ReportMetric(float64(merged), "outcomes")
		lg.Close()
	}
}

// BenchmarkStudySequential is the Parallel=1 baseline of the campaign.
func BenchmarkStudySequential(b *testing.B) { benchmarkStudy(b, 1) }

// BenchmarkStudyParallel runs one worker per core (Parallel=0 →
// GOMAXPROCS); compare against BenchmarkStudySequential for the
// speedup, and TestParallelGoldenFullStudy for the byte-identity proof.
func BenchmarkStudyParallel(b *testing.B) { benchmarkStudy(b, 0) }

// BenchmarkStudyParallelScaling records the worker-count scaling curve
// of the vantage-point-sharded executor. scripts/bench.sh captures the
// sub-benchmarks into BENCH_*.json so the curve is tracked per PR;
// cmd/benchtrend compares them across snapshots.
func BenchmarkStudyParallelScaling(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchmarkStudy(b, workers)
		})
	}
}

// BenchmarkTelemetryOverhead quantifies the observability tax: the same
// lossy parallel campaign with no flight recorder ("off", a nil ring —
// the state every other benchmark runs in) versus an attached ring
// sized for the whole campaign, deriving its counters, histograms, and
// trace trail inline ("on"). The "record" sub-benchmark times the raw
// record path — an event plus every explicit fact method — and enforces
// its zero-allocation ceiling on a live ring and a nil one, the property
// that lets every hot seam carry an unconditional record site.
func BenchmarkTelemetryOverhead(b *testing.B) {
	runStudy := func(b *testing.B, ring bool) {
		w, err := study.Build(study.Options{Seed: 2018})
		if err != nil {
			b.Fatal(err)
		}
		w.EnableFaults(faultsim.Lossy)
		cfg := study.RunConfig{Parallel: 4}
		if ring {
			cfg.Flight = flightrec.NewRing(flightrec.EventsFor(w.SlotCount()))
		}
		res, err := w.RunWith(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Reports) == 0 {
			b.Fatal("campaign measured nothing")
		}
	}
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runStudy(b, false)
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runStudy(b, true)
		}
	})
	b.Run("record", func(b *testing.B) {
		ring := flightrec.NewRing(flightrec.DefaultEvents)
		ring.BeginRun(1, 2)
		ring.ObserveTest("geo", time.Millisecond) // allocate the histogram once
		ev := flightrec.Event{Kind: flightrec.SlotFinish, Worker: 1, Slot: 3,
			Provider: "p", VP: "vp", Detail: flightrec.OutcomeMeasured, V1: int64(time.Millisecond), V2: 2}
		faults := flightrec.FaultCounts{Dropped: 1}
		record := func(r *flightrec.Ring) func() {
			return func() {
				r.Record(ev)
				r.CommitFacts(faults, true)
				r.ObserveSuite(time.Minute)
				r.ObserveTest("geo", time.Millisecond)
				r.SlotRuntime(10, faults)
				r.SchedulerScans(2, 1)
				r.WorkerWorldBuilt()
				r.CommitDrain(3)
			}
		}
		if allocs := testing.AllocsPerRun(100, record(ring)); allocs > 0 {
			b.Fatalf("record path allocates %.1f objects per op, ceiling is 0", allocs)
		}
		if allocs := testing.AllocsPerRun(100, record(nil)); allocs > 0 {
			b.Fatalf("nil-ring record path allocates %.1f objects per op, ceiling is 0", allocs)
		}
		run := record(ring)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
}

// BenchmarkAblationPingOnlyVsFull quantifies the cost saved by the
// ping-only sweep the paper used for bulk endpoints (DESIGN.md §5): the
// full suite versus the light sweep on the same vantage point.
func BenchmarkAblationPingOnlyVsFull(b *testing.B) {
	w, err := study.Build(study.Options{Seed: 99})
	if err != nil {
		b.Fatal(err)
	}
	var target *vpn.Provider
	for _, p := range w.Providers {
		if p.Name() == "Windscribe" {
			target = p
		}
	}
	// Pin the benched vantage point to full reliability: the ablation
	// compares suite costs, not the §5.2 flakiness model.
	target.VPs[1].Host.Reliability = 1
	run := func(b *testing.B, opts vpntest.SuiteOptions) {
		for i := 0; i < b.N; i++ {
			stack, err := w.NewClientStack()
			if err != nil {
				b.Fatal(err)
			}
			client, err := vpn.Connect(stack, target.VPs[1])
			if err != nil {
				b.Fatal(err)
			}
			env := vpntest.NewEnv(w.Config, w.Baseline, stack,
				target.Name(), target.VPs[1].ID(), target.VPs[1].ClaimedCountry)
			_ = vpntest.RunSuite(env, opts)
			client.Disconnect()
		}
	}
	b.Run("full", func(b *testing.B) { run(b, vpntest.SuiteOptions{SkipFailure: true}) })
	b.Run("ping-only", func(b *testing.B) { run(b, vpntest.SuiteOptions{PingOnly: true}) })
}

// BenchmarkAblationTorCarrierOverhead quantifies what VPN-over-Tor costs
// relative to a direct tunnel for the same page fetch.
func BenchmarkAblationTorCarrierOverhead(b *testing.B) {
	// A dedicated, perfectly reliable provider: the bench measures the
	// carrier cost, not the §5.2 flakiness model.
	bench := vpn.ProviderSpec{
		Name: "BenchVPN", Domain: "benchvpn.example", Client: vpn.CustomClient,
		Behavior: vpn.Behavior{SetsDNS: true, BlocksIPv6: true, FailureDetectionDelay: time.Hour},
		VantagePoints: []vpn.VantagePointSpec{
			{ClaimedCountry: "DE", ActualCity: "Frankfurt", Reliability: 1},
		},
	}
	w, err := study.Build(study.Options{
		Seed: 123, Providers: []vpn.ProviderSpec{bench},
		ExtraTLSHosts: 5, LandmarkCount: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	mesh, err := torsim.BuildMesh(w.Net, 8, 123)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range mesh.Relays {
		r.Host.Reliability = 1
	}
	vpnt := w.Providers[0].VPs[0]
	fetch := func(b *testing.B, overTor bool) {
		stack, err := w.NewClientStack()
		if err != nil {
			b.Fatal(err)
		}
		var client *vpn.Client
		if overTor {
			circuit, err := mesh.NewCircuit(5, stack.Host.Addr, func(pkt []byte) ([]byte, error) {
				return stack.SendVia(netsim.PhysicalName, pkt)
			})
			if err != nil {
				b.Fatal(err)
			}
			client, err = vpn.ConnectVia(stack, vpnt, circuit)
			if err != nil {
				b.Fatal(err)
			}
		} else {
			client, err = vpn.Connect(stack, vpnt)
			if err != nil {
				b.Fatal(err)
			}
		}
		defer client.Disconnect()
		web := &websim.Client{Stack: stack}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := web.Get("http://daily-news.example/"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("direct", func(b *testing.B) { fetch(b, false) })
	b.Run("over-tor", func(b *testing.B) { fetch(b, true) })
}

// BenchmarkStaticConfigAudit measures the ovpnconf fast path: auditing
// all 62 providers' published configs without any network activity.
func BenchmarkStaticConfigAudit(b *testing.B) {
	specs := ecosystem.TestedSpecs(2018, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leaks := 0
		for j := range specs {
			cfg, err := ovpnconf.Generate(&specs[j], 0)
			if err != nil {
				b.Fatal(err)
			}
			p := ovpnconf.Audit(cfg)
			if p.DNSLeak {
				leaks++
			}
		}
		if leaks == 0 {
			b.Fatal("static audit found no DNS-leaking configs")
		}
	}
}
