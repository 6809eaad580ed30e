// Command vpnaudit runs the measurement suite against one (simulated)
// VPN provider and prints a per-vantage-point audit — the workflow the
// paper's released test suite supports for individuals evaluating a
// single service.
//
// Usage:
//
//	vpnaudit -provider NordVPN [-seed N] [-list] [-faults PROFILE] [-retries N]
//	         [-outcomes DIR] [-quarantine N] [-parallel N]
//	         [-cpuprofile FILE] [-memprofile FILE] [-blockprofile FILE]
//	         [-mutexprofile FILE] [-metrics FILE] [-trace FILE] [-progress]
//
// -outcomes DIR makes the audit durable: every vantage-point outcome is
// appended to a one-shard log in DIR, and a killed audit rerun with the
// same flags resumes from it and prints the same audit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"path/filepath"
	"vpnscope/internal/ecosystem"
	"vpnscope/internal/faultsim"
	"vpnscope/internal/flightrec"
	"vpnscope/internal/profiling"
	"vpnscope/internal/report"
	"vpnscope/internal/results/shardlog"

	"vpnscope/internal/study"
	"vpnscope/internal/vpntest"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vpnaudit: ")
	provider := flag.String("provider", "", "provider to audit (see -list)")
	seed := flag.Uint64("seed", 2018, "world seed")
	list := flag.Bool("list", false, "list auditable providers and exit")
	catalogN := flag.Int("catalog", 0, "resolve -provider and -list against the first N catalog entries (synthetic profiles for untested providers)")
	month := flag.Int("month", 0, "audit a synthetic provider at this virtual month (applies its planted drift, if any)")
	pcapDir := flag.String("pcap", "", "directory to write per-vantage-point pcap traces to")
	faults := flag.String("faults", "", "inject a fault profile: none, mild, lossy, or hostile")
	retries := flag.Int("retries", 0, "connect attempts per vantage point (0 = default)")
	outcomes := flag.String("outcomes", "", "stream outcomes into this shard-log directory (kill-resumable: rerun with the same flags)")
	quarantine := flag.Int("quarantine", 0, "consecutive connect failures before the provider is quarantined (0 = default)")
	parallel := flag.Int("parallel", 0, "campaign worker shards; results are byte-identical for any value (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile (pprof format) to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile (pprof format) to this file on exit")
	blockprofile := flag.String("blockprofile", "", "write a goroutine blocking profile (pprof format) to this file on exit")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex contention profile (pprof format) to this file on exit")
	metricsOut := flag.String("metrics", "", "write the audit's metrics snapshot (JSON) to this file")
	traceOut := flag.String("trace", "", "write a campaign trace (Chrome trace-event JSON, load in chrome://tracing) to this file")
	progress := flag.Bool("progress", false, "print a periodic progress line to stderr")
	flag.Parse()

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

	if *list {
		if *catalogN > 0 {
			for _, name := range ecosystem.CatalogNames(ecosystem.BuildCatalogN(*seed, *catalogN)) {
				fmt.Println(name)
			}
		} else {
			for _, name := range ecosystem.TestedNames() {
				fmt.Println(name)
			}
		}
		return
	}
	if *provider == "" {
		log.Fatal("missing -provider (use -list to see choices)")
	}

	opts := study.Options{Seed: *seed, CollectCaptures: *pcapDir != ""}
	if *catalogN > 0 {
		// Synthetic profiles are a function of (seed, entry) alone, so a
		// single-provider world audits identically to a full-catalog one.
		found := false
		for _, e := range ecosystem.BuildCatalogN(*seed, *catalogN) {
			if e.Name == *provider {
				opts.Providers = ecosystem.CatalogSpecs(*seed, []ecosystem.CatalogEntry{e}, 0, *month)
				found = true
				break
			}
		}
		if !found {
			log.Fatalf("provider %q is not in the first %d catalog entries (use -list -catalog %d)", *provider, *catalogN, *catalogN)
		}
	} else if *month != 0 {
		log.Fatal("-month needs -catalog (tested providers never drift)")
	}
	w, err := study.Build(opts)
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
	// The audit's one flight recorder, sized from the world's slot count.
	var ring *flightrec.Ring
	if *metricsOut != "" || *traceOut != "" || *progress {
		ring = flightrec.NewRing(flightrec.EventsFor(w.SlotCount()))
	}
	stopProgress := func() {}
	if *progress {
		stopProgress = ring.StartProgress(os.Stderr, 2*time.Second)
		defer stopProgress()
	}
	pcap := func(r *vpntest.VPReport) {
		if *pcapDir != "" && len(r.Captures) > 0 {
			if err := writePcap(*pcapDir, r); err != nil {
				log.Printf("writing pcap for %s: %v", r.VPLabel, err)
			}
		}
	}
	// SIGINT/SIGTERM cancel the audit at the next vantage-point slot
	// boundary: with -outcomes every earlier outcome is already durable,
	// so rerunning with the same flags resumes the audit.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	cfg := study.RunConfig{ConnectAttempts: *retries, QuarantineAfter: *quarantine, Parallel: *parallel, Ctx: ctx, Flight: ring}
	var lg *shardlog.Log
	if *outcomes != "" {
		lg, err = shardlog.Open(*outcomes, shardlog.Meta{Seed: *seed, Shards: 1, FaultProfile: *faults, Month: *month})
		if err != nil {
			log.Fatal(err)
		}
		defer lg.Close()
		if lg.NextRank() > 0 && !lg.Complete() {
			cfg.Resume = lg.Scan
			fmt.Printf("resuming %s: %d vantage points already decided\n", *outcomes, lg.NextRank())
		}
		// Captures are written before Append strips them from the log.
		cfg.Stream = func(o study.Outcome) error {
			if o.Report != nil {
				pcap(o.Report)
			}
			return lg.Append(o)
		}
	}
	var res *study.Result
	if lg == nil || !lg.Complete() {
		res, err = w.RunProviderWith(*provider, cfg)
		stopProgress() // final progress line before the report starts
		if errors.Is(err, study.ErrCanceled) {
			stopSignals() // a second signal now kills the process the hard way
			if lg != nil {
				log.Printf("interrupted after %d vantage points; rerun with the same flags to resume from %s", lg.NextRank(), *outcomes)
			} else {
				log.Printf("interrupted after %d vantage points (progress not saved; -outcomes DIR makes an audit resumable)", res.VPsAttempted)
			}
			os.Exit(130)
		}
		if err != nil {
			log.Fatal(err)
		}
		if lg != nil {
			if err := lg.MarkComplete(); err != nil {
				log.Fatal(err)
			}
		}
	}
	if lg != nil {
		if res, err = lg.Result(); err != nil {
			log.Fatal(err)
		}
	}
	// Failures are logged, not fatal: the audit results are in hand.
	if err := ring.WriteFiles(*metricsOut, *traceOut); err != nil {
		log.Print(err)
	}
	out := os.Stdout
	for _, rec := range res.Recoveries {
		fmt.Fprintf(out, "~~ connected after %d attempts: %s\n", rec.Attempts, rec.VPLabel)
	}
	for _, cf := range res.ConnectFailures {
		fmt.Fprintf(out, "!! could not connect: %s (%s, %d attempts)\n", cf.VPLabel, cf.Err, cf.Attempts)
	}
	for _, q := range res.Quarantines {
		fmt.Fprintf(out, "!! quarantined after %d consecutive failures; skipped %s\n",
			q.TrippedAfter, strings.Join(q.SkippedVPs, ", "))
	}
	for _, r := range res.Reports {
		printReport(out, r)
		pcap(r) // in-memory audits only: a log strips captures
	}
	report.WriteCollectionHealth(out, res)
	report.WriteTelemetrySummary(out, ring.Metrics())
}

// writePcap dumps one vantage point's trace as <dir>/<label>.pcap.
func writePcap(dir string, r *vpntest.VPReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			return c
		default:
			return '_'
		}
	}, r.VPLabel)
	f, err := os.Create(filepath.Join(dir, name+".pcap"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := r.WriteCaptures(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d packets)\n", f.Name(), len(r.Captures))
	return nil
}

func printReport(out *os.File, r *vpntest.VPReport) {
	fmt.Fprintf(out, "\n### %s — claimed %s\n\n", r.VPLabel, r.ClaimedCountry)
	rows := [][]string{}
	add := func(k, v string) { rows = append(rows, []string{k, v}) }

	if r.Geo != nil {
		add("Egress IP", r.Geo.EgressIP.String())
		if r.Geo.WhoisFound {
			add("WHOIS", fmt.Sprintf("%s (AS%d, %s)", r.Geo.WhoisBlock.Org, r.Geo.WhoisBlock.ASN, r.Geo.WhoisBlock.Prefix))
		}
		if r.Geo.APIFound {
			add("Geolocation API", string(r.Geo.APICountry))
		}
	}
	if r.DNS != nil {
		add("DNS manipulation", verdict(r.DNS.Manipulated(), fmt.Sprintf("%d suspicious diffs", len(r.DNS.Diffs))))
	}
	if r.DOM != nil {
		add("Pages loaded", fmt.Sprintf("%d ok, %d failed", r.DOM.PagesLoaded, r.DOM.PagesFailed))
		add("Content injection", verdict(len(r.DOM.Injections) > 0, fmt.Sprintf("%d pages", len(r.DOM.Injections))))
		for _, red := range r.DOM.Redirections {
			add("Redirection", fmt.Sprintf("%s -> %s", red.FromURL, red.Destination))
		}
	}
	if r.TLS != nil {
		add("TLS interception", verdict(len(r.TLS.Intercepted) > 0, fmt.Sprintf("%d hosts", len(r.TLS.Intercepted))))
		add("TLS downgrades", verdict(len(r.TLS.Downgraded) > 0, strings.Join(r.TLS.Downgraded, ", ")))
		add("Blocked by VPN-hostile sites", fmt.Sprintf("%d loads", len(r.TLS.Blocked)))
	}
	if r.Proxy != nil {
		add("Transparent proxy", verdict(r.Proxy.Modified, describeProxy(r.Proxy)))
	}
	if r.Origin != nil && len(r.Origin.Origins) > 0 {
		add("DNS recursion origin", fmt.Sprintf("%v (%s)", r.Origin.Origins[0], strings.Join(r.Origin.OriginOrgs, ", ")))
	}
	if r.Pings != nil {
		if s, ok := r.Pings.MinSample(); ok {
			add("Nearest landmark", fmt.Sprintf("%s (%s), %.1f ms", s.Landmark, s.Country, s.RTTms))
		}
		add("Landmark pings", fmt.Sprintf("%d ok, %d failed", len(r.Pings.Samples), r.Pings.Failed))
	}
	if r.Leaks != nil {
		add("DNS leak", verdict(r.Leaks.DNSLeak, fmt.Sprintf("%d packets", r.Leaks.DNSLeakCount)))
		add("IPv6 leak", verdict(r.Leaks.IPv6Leak, fmt.Sprintf("%d packets over %d probes", r.Leaks.IPv6LeakCount, r.Leaks.IPv6Probes)))
	}
	if r.WebRTC != nil {
		add("WebRTC leak", verdict(r.WebRTC.RealAddressExposed, fmt.Sprintf("%d candidates revealed", len(r.WebRTC.Revealed))))
	}
	if r.P2P != nil {
		add("Peer-exit traffic", verdict(r.P2P.PeerExit(), fmt.Sprintf("%d unattributable queries", len(r.P2P.UnexpectedQueries))))
	}
	if r.Traces != nil {
		add("Traceroutes", fmt.Sprintf("%d paths collected", len(r.Traces.Paths)))
	}
	if r.Failure != nil {
		add("Tunnel-failure leak", verdict(r.Failure.Leaked, fmt.Sprintf("after %.0fs, %d attempts", r.Failure.SecondsToLeak, r.Failure.Attempts)))
	}
	for _, e := range r.Errors {
		add("Test error", e)
	}
	report.Table(out, "", []string{"Check", "Result"}, rows)
}

func verdict(bad bool, detail string) string {
	if bad {
		return "DETECTED — " + detail
	}
	return "clean"
}

func describeProxy(p *vpntest.ProxyResult) string {
	switch {
	case len(p.HeadersAdded) > 0:
		return "headers added: " + strings.Join(p.HeadersAdded, ", ")
	case p.Regenerated:
		return "headers parsed and regenerated"
	default:
		return "request modified"
	}
}
