// Command figures runs the full simulated study (62 providers, the
// paper's §5 methodology) and regenerates every results artifact from §6:
// Tables 4-6 and Figures 6-9, plus the headline numbers (transparent
// proxies, geo-database agreement, virtual vantage points, tunnel-failure
// leakage).
//
// Usage:
//
//	figures [-seed N] [-full-vps N] [-provider NAME] [-faults PROFILE]
//	        [-retries N] [-quarantine N] [-parallel N] [-outcomes DIR]
//	        [-cpuprofile FILE] [-memprofile FILE]
//	        [-blockprofile FILE] [-mutexprofile FILE]
//	        [-metrics FILE] [-trace FILE] [-progress]
//
// -outcomes DIR streams every outcome into a sharded append-only log
// instead of holding the result set in memory; a killed run resumes
// from the same directory. Ecosystem-scale sweeps always use one:
//
//	figures -catalog 200 -outcomes DIR [-shards K] [-months N]
//
// -catalog N audits the first N catalog providers (the 62 tested keep
// their hand-built specs; the rest get procedurally derived synthetic
// profiles with planted ground truth). A killed sweep resumes from the
// same -outcomes directory. -months N re-audits the catalog at virtual
// months 1..N and reports per-provider verdict churn against the
// planted behavior drift.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"vpnscope/internal/analysis"
	"vpnscope/internal/faultsim"
	"vpnscope/internal/flightrec"
	"vpnscope/internal/profiling"
	"vpnscope/internal/report"
	"vpnscope/internal/results"
	"vpnscope/internal/study"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	seed := flag.Uint64("seed", 2018, "study seed (deterministic per seed)")
	fullVPs := flag.Int("full-vps", 0, "max full-suite vantage points per provider (0 = default)")
	provider := flag.String("provider", "", "restrict the run to one provider")
	jsonPath := flag.String("json", "", "also save the raw study result as JSON to this file")
	faults := flag.String("faults", "", "inject a fault profile: none, mild, lossy, or hostile")
	retries := flag.Int("retries", 0, "connect attempts per vantage point (0 = default)")
	quarantine := flag.Int("quarantine", 0, "consecutive connect failures before a provider is quarantined (0 = default)")
	parallel := flag.Int("parallel", 0, "campaign worker shards; results are byte-identical for any value (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile (pprof format) to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile (pprof format) to this file on exit")
	blockprofile := flag.String("blockprofile", "", "write a goroutine blocking profile (pprof format) to this file on exit")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex contention profile (pprof format) to this file on exit")
	metricsOut := flag.String("metrics", "", "write the campaign's metrics snapshot (JSON) to this file")
	traceOut := flag.String("trace", "", "write a campaign trace (Chrome trace-event JSON, load in chrome://tracing) to this file")
	progress := flag.Bool("progress", false, "print a periodic progress line to stderr")
	catalogN := flag.Int("catalog", 0, "sweep the first N catalog providers (synthetic profiles for untested entries; 0 = the tested 62)")
	months := flag.Int("months", 0, "longitudinal mode: re-audit the catalog at virtual months 1..N and report verdict churn")
	shards := flag.Int("shards", 0, "outcome-log shard count for -outcomes (0 = default)")
	outcomes := flag.String("outcomes", "", "stream outcomes into this sharded log directory (bounded memory, kill-resumable)")
	flag.Parse()

	if (*catalogN > 0 || *months > 0) && *outcomes == "" {
		log.Fatal("-catalog/-months sweeps stream their outcomes; set -outcomes DIR")
	}
	if *outcomes != "" && (*provider != "" || *jsonPath != "") {
		log.Fatal("-provider/-json are not supported with -outcomes (use vpnaudit, or read the shard log)")
	}

	stopProf, err := profiling.Start(profiling.Config{
		CPUProfile:   *cpuprofile,
		MemProfile:   *memprofile,
		BlockProfile: *blockprofile,
		MutexProfile: *mutexprofile,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	rec := &recorder{want: *metricsOut != "" || *traceOut != "" || *progress, progress: *progress}
	defer rec.stopProgress()

	// SIGINT/SIGTERM cancel the campaign at the next vantage-point slot
	// boundary: with -outcomes, the interrupted run resumes from its log
	// and regenerates identical figures.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *outcomes != "" {
		runCatalogMode(ctx, stopSignals, catalogParams{
			seed: *seed, catalog: *catalogN, months: *months, shards: *shards,
			outcomes: *outcomes, faults: *faults, fullVPs: *fullVPs,
			retries: *retries, quarantine: *quarantine, parallel: *parallel,
			rec: rec,
		})
		if err := rec.ring.WriteFiles(*metricsOut, *traceOut); err != nil {
			log.Print(err) // not fatal: the results are already in hand
		}
		report.WriteTelemetrySummary(os.Stdout, rec.ring.Metrics())
		return
	}

	w, err := study.Build(study.Options{Seed: *seed, MaxFullSuiteVPs: *fullVPs})
	if err != nil {
		log.Fatal(err)
	}
	if *faults != "" {
		profile, err := faultsim.ByName(*faults)
		if err != nil {
			log.Fatal(err)
		}
		w.EnableFaults(profile)
	}

	cfg := study.RunConfig{ConnectAttempts: *retries, QuarantineAfter: *quarantine, Parallel: *parallel, Ctx: ctx,
		Flight: rec.attach(w, 1)}

	var res *study.Result
	if *provider != "" {
		res, err = w.RunProviderWith(*provider, cfg)
	} else {
		res, err = w.RunWith(cfg)
	}
	rec.stopProgress() // final progress line before the report starts
	if errors.Is(err, study.ErrCanceled) {
		stopSignals() // a second signal now kills the process the hard way
		at := 0
		if res != nil {
			at = res.VPsAttempted
		}
		log.Printf("interrupted after %d vantage points (progress not saved; -outcomes DIR makes a run resumable)", at)
		os.Exit(130)
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := rec.ring.WriteFiles(*metricsOut, *traceOut); err != nil {
		log.Print(err) // not fatal: the results are already in hand
	}
	out := os.Stdout

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		opts := []results.Option{results.WithSeed(*seed)}
		if *faults != "" {
			opts = append(opts, results.WithFaultProfile(*faults))
		}
		if err := results.Save(f, res, opts...); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "raw results saved to %s\n", *jsonPath)
	}

	writeReport(out, analysis.Slice(res.Reports), res, w, rec.ring)
}

// recorder is the run's one flight recorder when -metrics, -trace or
// -progress asks for one. The ring is built once the first world is
// known, because the world's slot count sizes it.
type recorder struct {
	want, progress bool
	ring           *flightrec.Ring
	stop           func()
}

// attach returns the ring for campaigns over w, creating it on first
// use with room for runs campaigns of w's size (nil when no recorder
// was asked for).
func (r *recorder) attach(w *study.World, runs int) *flightrec.Ring {
	if r.want && r.ring == nil {
		r.ring = flightrec.NewRing(flightrec.EventsFor(runs * w.SlotCount()))
		if r.progress {
			r.stop = r.ring.StartProgress(os.Stderr, 2*time.Second)
		}
	}
	return r.ring
}

// stopProgress prints the final progress line, once.
func (r *recorder) stopProgress() {
	if r.stop != nil {
		r.stop()
	}
}

// writeReport renders every §6 artifact from a report stream. src may
// be an in-memory slice or a sharded outcome log; the multi-pass
// analyses re-iterate it, so a log-backed stream never materializes
// the result set. res supplies the campaign bookkeeping (counts,
// failures, quarantines) — in streaming mode that is the lean result
// reconstructed from the log, whose report stubs carry identity only.
func writeReport(out io.Writer, src analysis.Reports, res *study.Result, w *study.World, ring *flightrec.Ring) {
	fmt.Fprintf(out, "Study complete: %d vantage points attempted, %d measured, %d connect failures\n\n",
		res.VPsAttempted, len(res.Reports), len(res.ConnectFailures))

	// ----- Table 4: URL redirection destinations -----
	var t4 [][]string
	for _, row := range analysis.Redirections(src) {
		t4 = append(t4, []string{row.Destination, fmt.Sprint(row.VPNs), string(row.Country)})
	}
	report.Table(out, "Table 4: Destination domains of URL redirections",
		[]string{"Destination", "VPNs", "Country"}, t4)

	// ----- §6.1.3 / Figure 7: content injection -----
	var injRows [][]string
	for _, inj := range analysis.Injections(src) {
		injRows = append(injRows, []string{inj.Provider, fmt.Sprint(inj.Pages), strings.Join(inj.InjectedHosts, ", ")})
	}
	report.Table(out, "Figure 7 / §6.1.3: Providers injecting content",
		[]string{"Provider", "Pages", "Injected hosts"}, injRows)

	// ----- §6.2.1: transparent proxies -----
	var proxyRows [][]string
	for _, p := range analysis.TransparentProxies(src) {
		proxyRows = append(proxyRows, []string{p})
	}
	report.Table(out, "§6.2.1: Transparent proxies (header regeneration)",
		[]string{"Provider"}, proxyRows)

	// ----- §6.1.2: TLS summary -----
	tls := analysis.TLSSummary(src)
	report.Table(out, "§6.1.2: TLS interception & downgrade summary",
		[]string{"Metric", "Value"}, [][]string{
			{"Providers probed", fmt.Sprint(tls.Providers)},
			{"TLS interception", fmt.Sprint(len(tls.InterceptedProviders))},
			{"TLS downgrades", fmt.Sprint(len(tls.DowngradedProviders))},
			{"Providers blocked by VPN-hostile sites", fmt.Sprint(len(tls.BlockedProviders))},
			{"Blocked page loads", fmt.Sprint(tls.BlockedLoads)},
		})

	// ----- §6.1: DNS manipulation -----
	manip := analysis.DNSManipulationSummary(src)
	report.Table(out, "§6.1: Providers with suspicious DNS answers",
		[]string{"Provider"}, toRows(manip))

	// ----- Table 5: shared address blocks -----
	infra := analysis.Infrastructure(src, 3)
	var t5 [][]string
	for _, b := range infra.SharedBlocks {
		t5 = append(t5, []string{b.Prefix, fmt.Sprintf("%d (%s)", b.ASN, b.Country), strings.Join(b.Providers, ", ")})
	}
	report.Table(out, "Table 5: IP blocks shared by >= 3 providers",
		[]string{"IP Block", "ASN (ISO)", "VPNs"}, t5)
	var exactRows [][]string
	for ip, provs := range infra.SharedExactIP {
		exactRows = append(exactRows, []string{ip, strings.Join(provs, ", ")})
	}
	sort.Slice(exactRows, func(i, j int) bool { return exactRows[i][0] < exactRows[j][0] })
	report.Table(out, "§6.3: Identical vantage-point addresses across providers",
		[]string{"Address", "Providers"}, exactRows)
	report.Table(out, "§6.3: Infrastructure totals", []string{"Metric", "Value"}, [][]string{
		{"Vantage points analyzed", fmt.Sprint(infra.VantagePoints)},
		{"Distinct IP addresses", fmt.Sprint(infra.DistinctIPs)},
		{"Distinct CIDRs", fmt.Sprint(infra.DistinctCIDRs)},
		{"Providers sharing a CIDR", fmt.Sprint(infra.ProvidersSharingCIDR)},
	})

	// ----- §6.4.1: geolocation database agreement -----
	var geoRows [][]string
	for _, row := range analysis.GeoAgreement(src, w.Databases) {
		geoRows = append(geoRows, []string{
			row.Database,
			fmt.Sprintf("%d/%d", row.Located, row.Compared),
			fmt.Sprintf("%.0f%%", 100*row.AgreeRate),
			fmt.Sprint(row.USInconsistencies),
		})
	}
	report.Table(out, "§6.4.1: Geo-IP database agreement with claimed locations",
		[]string{"Database", "Located", "Agree", "US-errors"}, geoRows)

	// ----- §6.4.2: virtual vantage points -----
	vv := analysis.DetectVirtualVPs(src, w.Config)
	report.Table(out, "§6.4.2: Providers with 'virtual' vantage points",
		[]string{"Provider"}, toRows(vv.Providers))
	var vRows [][]string
	for i, f := range vv.Findings {
		if i >= 12 {
			vRows = append(vRows, []string{fmt.Sprintf("... and %d more", len(vv.Findings)-12), "", "", ""})
			break
		}
		vRows = append(vRows, []string{
			f.VPLabel, string(f.Claimed), f.Witness,
			fmt.Sprintf("bound %.0f km vs %.0f km claimed", f.BoundKm, f.ClaimDistKm),
		})
	}
	report.Table(out, "§6.4.2: Physically impossible location claims (sample)",
		[]string{"Vantage point", "Claimed", "Witness landmark", "Evidence"}, vRows)
	var cRows [][]string
	for _, c := range vv.Clusters {
		cRows = append(cRows, []string{c.Provider, fmt.Sprint(len(c.VPLabels)), countriesOf(c)})
	}
	report.Table(out, "§6.4.2: Co-located vantage points claiming distinct countries",
		[]string{"Provider", "VPs", "Claimed countries"}, cRows)

	// ----- Figure 9: RTT series for the three providers in the paper -----
	for _, name := range []string{"Le VPN", "MyIP.io", "HideMyAss"} {
		series := analysis.Figure9Series(src, name)
		if len(series) == 0 {
			continue
		}
		if len(series) > 12 {
			series = series[:12]
		}
		var ls []report.LabeledSeries
		for _, s := range series {
			ls = append(ls, report.LabeledSeries{Label: s.Label, Values: s.Sorted})
		}
		report.Series(out, fmt.Sprintf("Figure 9: sorted landmark RTTs, %s", name), ls)
	}

	// ----- §6.5 / Table 6: leakage -----
	leaks := analysis.Leaks(src)
	report.Table(out, "Table 6: Providers leaking DNS and IPv6 traffic",
		[]string{"Leakage", "Providers"}, [][]string{
			{"DNS", strings.Join(leaks.DNSLeakers, ", ")},
			{"IPv6", strings.Join(leaks.IPv6Leakers, ", ")},
		})
	report.Table(out, "§6.5: Tunnel-failure leakage", []string{"Metric", "Value"}, [][]string{
		{"Providers leaking on tunnel failure", fmt.Sprint(len(leaks.FailOpen))},
		{"Applicable providers (own client)", fmt.Sprint(leaks.Applicable)},
		{"Fail-open rate", fmt.Sprintf("%.0f%%", 100*leaks.FailOpenRate())},
	})
	report.Table(out, "§6.5: Fail-open providers", []string{"Provider"}, toRows(leaks.FailOpen))

	// ----- §7 extension: WebRTC address leakage -----
	rtc := analysis.WebRTCLeaks(src)
	report.Table(out, "§7: WebRTC address-leak audit",
		[]string{"Metric", "Value"}, [][]string{
			{"Providers exposing the real address", fmt.Sprint(len(rtc.Exposed))},
			{"Providers masking ICE gathering", strings.Join(rtc.Masked, ", ")},
		})

	// ----- §6.6: peer-to-peer exit traffic -----
	p2p := analysis.PeerExits(src)
	p2pProvs := make([]string, 0, len(p2p.Exiting))
	for prov := range p2p.Exiting {
		p2pProvs = append(p2pProvs, prov)
	}
	sort.Strings(p2pProvs)
	var p2pRows [][]string
	for _, prov := range p2pProvs {
		p2pRows = append(p2pRows, []string{prov, strings.Join(p2p.Exiting[prov], ", ")})
	}
	report.Table(out, fmt.Sprintf("§6.6: Peer-exit traffic (unexpected DNS; %d providers scanned)", p2p.Tested),
		[]string{"Provider", "Unattributable queries"}, p2pRows)

	// ----- §5.2: vantage point reliability -----
	var failLabels []string
	for _, cf := range res.ConnectFailures {
		failLabels = append(failLabels, cf.VPLabel)
	}
	rel := analysis.ConnectReliability(res.VPsAttempted, failLabels)
	report.Table(out, "§5.2: Vantage-point connection reliability",
		[]string{"Metric", "Value"}, [][]string{
			{"Attempted", fmt.Sprint(rel.Attempted)},
			{"Connect failures", fmt.Sprint(rel.Failed)},
		})

	// ----- Collection health: where every vantage point went -----
	report.WriteCollectionHealth(out, res)
	if plan := w.Faults(); plan != nil {
		s := plan.Stats()
		report.Table(out, fmt.Sprintf("Injected faults (%s profile)", plan.Profile().Name),
			[]string{"Kind", "Count"}, [][]string{
				{"Packet-loss drops", fmt.Sprint(s.Dropped)},
				{"Link-flap drops", fmt.Sprint(s.Flapped)},
				{"Connect refusals", fmt.Sprint(s.Refused)},
				{"Latency spikes", fmt.Sprint(s.Delayed)},
				{"Resolver-blackout drops", fmt.Sprint(s.Blackouts)},
				{"Tunnel-reset drops", fmt.Sprint(s.TunnelResets)},
			})
	}
	report.WriteTelemetrySummary(out, ring.Metrics())
}

func toRows(xs []string) [][]string {
	rows := make([][]string, len(xs))
	for i, x := range xs {
		rows[i] = []string{x}
	}
	return rows
}

func countriesOf(c analysis.CoLocationCluster) string {
	parts := make([]string, len(c.Claimed))
	for i, cc := range c.Claimed {
		parts[i] = string(cc)
	}
	return strings.Join(parts, ", ")
}
