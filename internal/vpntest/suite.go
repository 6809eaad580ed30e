package vpntest

import (
	"fmt"
	"io"
	"net/netip"
	"time"

	"vpnscope/internal/capture"
	"vpnscope/internal/geo"
	"vpnscope/internal/netsim"
)

// TestTiming records one executed suite step's virtual-time cost.
// Collected only when SuiteOptions.Timings asks, and excluded from
// result serialization (the campaign's committer folds timings into
// its flight recorder's histograms instead), so collecting them cannot
// change result bytes.
type TestTiming struct {
	Test    string
	Virtual time.Duration
}

// VPReport is everything the suite learned about one vantage point —
// the per-vantage-point analogue of the paper's per-run logs and packet
// captures.
type VPReport struct {
	Provider       string
	VPLabel        string
	ClaimedCountry geo.Country
	StartedAt      time.Duration // virtual time
	FinishedAt     time.Duration

	Geo     *GeoResult
	DNS     *DNSManipulationResult
	DOM     *DOMResult
	TLS     *TLSResult
	Proxy   *ProxyResult
	Origin  *OriginResult
	Pings   *PingResult
	Traces  *TraceResult
	Leaks   *LeakResult
	WebRTC  *WebRTCResult
	P2P     *P2PResult
	Failure *FailureResult
	// Metadata snapshot (§5.3.4): routes and resolvers at test time.
	Routes    []netsim.Route
	Resolvers []netip.Addr
	// Captures holds the per-interface packet traces recorded during
	// the run when SuiteOptions.CollectCaptures is set (§5.3.4:
	// "our normal testing also collects packet captures on the
	// hardware interface").
	Captures []capture.Record

	// Errors collects per-test failures without aborting the run.
	Errors []string

	// TestTimings holds per-test virtual durations; only populated under
	// SuiteOptions.Timings and never serialized with results (see
	// TestTiming).
	TestTimings []TestTiming `json:"-"`
}

// WriteCaptures writes the run's packet trace in pcap format.
func (r *VPReport) WriteCaptures(w io.Writer) error {
	return capture.WritePcap(w, r.Captures)
}

// EgressIP returns the discovered egress address (zero when the geo
// step failed).
func (r *VPReport) EgressIP() netip.Addr {
	if r.Geo == nil {
		return netip.Addr{}
	}
	return r.Geo.EgressIP
}

// SuiteOptions selects which test groups run. The zero value runs
// everything, mirroring the paper's full ~45-minute per-vantage-point
// suite; PingOnly is the light sweep used for the >150 HideMyAss
// endpoints in §6.4.2.
type SuiteOptions struct {
	SkipDOM     bool
	SkipTLS     bool
	SkipLeaks   bool
	SkipFailure bool
	PingOnly    bool
	// CollectCaptures snapshots the run's full packet trace into the
	// report for offline analysis / pcap export.
	CollectCaptures bool
	// TestBudget is the per-test virtual-time allowance. A test that
	// burns more (e.g. every probe timing out under a fault) gets an
	// overrun note in Errors. Zero means unlimited.
	TestBudget time.Duration
	// SuiteBudget caps the whole run's virtual time: once exhausted,
	// remaining tests are skipped with a note rather than run. Zero
	// means unlimited.
	SuiteBudget time.Duration
	// Timings fills VPReport.TestTimings. The campaign runner sets it
	// exactly when a flight recorder is attached to take them.
	Timings bool
}

// RunSuite executes the test suite against a connected environment and
// returns the vantage point's report. Individual test errors and panics
// are recorded, not fatal — dying vantage points were routine in the
// paper's data collection, and one misbehaving test must never take
// down a campaign.
func RunSuite(env *Env, opts SuiteOptions) *VPReport {
	r := &VPReport{
		Provider:       env.Provider,
		VPLabel:        env.VPLabel,
		ClaimedCountry: env.ClaimedCountry,
		StartedAt:      env.Stack.Net.Clock.Now(),
	}
	clock := env.Stack.Net.Clock
	start := clock.Now()
	step := func(test string, fn func() error) {
		if opts.SuiteBudget > 0 && clock.Now()-start >= opts.SuiteBudget {
			r.Errors = append(r.Errors,
				fmt.Sprintf("%s: skipped: suite budget (%v) exhausted", test, opts.SuiteBudget))
			return
		}
		began := clock.Now()
		if err := runRecovered(fn); err != nil {
			r.Errors = append(r.Errors, fmt.Sprintf("%s: %v", test, err))
		}
		if opts.Timings {
			r.TestTimings = append(r.TestTimings, TestTiming{Test: test, Virtual: clock.Now() - began})
		}
		if opts.TestBudget > 0 {
			if spent := clock.Now() - began; spent > opts.TestBudget {
				r.Errors = append(r.Errors,
					fmt.Sprintf("%s: exceeded per-test budget (spent %v of %v)", test, spent, opts.TestBudget))
			}
		}
	}

	// Geolocation first: it caches the egress address the ping sweep
	// uses for offset estimation.
	step("geo", func() error { var err error; r.Geo, err = RunGeolocation(env); return err })
	step("ping", func() error { var err error; r.Pings, err = RunPingSweep(env); return err })

	if !opts.PingOnly {
		r.Routes = env.Stack.Routes()
		r.Resolvers = env.Stack.Resolvers()

		step("dns-manipulation", func() error { var err error; r.DNS, err = RunDNSManipulation(env); return err })
		step("recursive-origin", func() error { var err error; r.Origin, err = RunRecursiveOrigin(env); return err })
		step("proxy-detection", func() error { var err error; r.Proxy, err = RunProxyDetection(env); return err })
		if !opts.SkipDOM {
			step("dom-collection", func() error { var err error; r.DOM, err = RunDOMCollection(env); return err })
		}
		if !opts.SkipTLS {
			step("tls", func() error { var err error; r.TLS, err = RunTLS(env); return err })
		}
		if !opts.SkipLeaks {
			step("leaks", func() error { var err error; r.Leaks, err = RunLeakTests(env); return err })
		}
		step("traceroute", func() error { var err error; r.Traces, err = RunTraceroutes(env, 3); return err })
		if env.Cfg.WebRTCProbeURL != "" {
			step("webrtc-leak", func() error { var err error; r.WebRTC, err = RunWebRTCLeak(env); return err })
		}
		step("p2p-detection", func() error { var err error; r.P2P, err = RunP2PDetection(env); return err })
		if !opts.SkipFailure {
			// Last: it may leave the client failed-open.
			step("tunnel-failure", func() error { var err error; r.Failure, err = RunTunnelFailure(env); return err })
		}
	}
	if opts.CollectCaptures {
		r.Captures = env.Stack.CaptureAll()
	}
	r.FinishedAt = env.Stack.Net.Clock.Now()
	return r
}

// runRecovered runs fn, converting a panic into a recorded error.
func runRecovered(fn func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("panic: %v", rec)
		}
	}()
	return fn()
}
