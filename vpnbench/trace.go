package main

import (
	"bufio"
	"bytes"
	"fmt"
	"log"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"vpnscope/internal/study"
	"vpnscope/internal/vpn"
	"vpnscope/internal/vpntest"
)

func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// profileLayers are the packages a CPU sample can be attributed to,
// keyed by the last element of their vpnscope/internal import path.
var profileLayers = map[string]bool{
	"capture": true, "netsim": true, "dnssim": true, "tlssim": true,
	"websim": true, "vpn": true, "vpntest": true, "faultsim": true,
	"arena": true, "study": true, "slotsched": true, "shardlog": true,
	"results": true, "analysis": true, "server": true,
}

// gcFrames are runtime functions whose presence anywhere on a stack
// makes the sample garbage-collection work.
var gcFrames = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.markroot", "runtime.scanobject", "runtime.greyobject",
}

// sampleLayer attributes one sampled stack (leaf first): GC work first,
// then system calls, then the innermost frame in a listed vpnscope
// package; anything else is "other". Standard-library time is thereby
// charged to the layer that called it.
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "runtime.gc"
			}
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/runtime/syscall.") ||
			strings.HasPrefix(fn, "internal/syscall/") {
			return "syscall"
		}
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, "vpnscope/internal/")
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.LastIndex(pkg, "/"); i >= 0 {
			pkg = pkg[i+1:]
		}
		if i := strings.Index(pkg, "."); i >= 0 {
			pkg = pkg[:i]
		}
		if profileLayers[pkg] {
			return pkg
		}
	}
	return "other"
}

// foldProfile folds a CPU profile by layer with `go tool pprof -traces`
// (the pprof tool ships with the Go toolchain) and records each layer's
// CPU seconds and the share of samples the named layers cover.
func (r *run) foldProfile(path string) error {
	if path == "" {
		return nil
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	byLayer, total, err := foldTraces(out)
	if err != nil {
		return err
	}
	for layer, s := range byLayer {
		switch layer {
		case "runtime.gc":
			r.layer["runtime.gc_cpu_s"] = s
		case "other":
			r.layer["pprof.other_cpu_s"] = s
		default:
			r.layer[layer+".cpu_s"] = s
		}
	}
	r.layer["pprof.total_cpu_s"] = total
	share := 0.0
	if total > 0 {
		share = 1 - byLayer["other"]/total
	}
	r.layer["pprof.folded_share"] = share
	if r.workload == "study-seq" {
		r.op(expect(share >= 0.9, "folded layers cover %.1f%% of CPU samples, below 90%%", 100*share))
	}
	return nil
}

// foldTraces parses `pprof -traces` text: blocks separated by dashed
// lines, each opening with the sample value and the leaf function,
// followed by its callers one per line.
func foldTraces(out []byte) (byLayer map[string]float64, total float64, err error) {
	byLayer = map[string]float64{}
	var value float64
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			byLayer[sampleLayer(stack)] += value
			total += value
		}
		stack, value = stack[:0], 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBlock := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(stack) == 0 && value == 0 {
			if len(fields) < 2 {
				continue // a label line ("worker:[0]") before the stack
			}
			d, perr := parseSampleValue(fields[0])
			if perr != nil {
				continue
			}
			value = d
			stack = append(stack, fields[1])
			continue
		}
		if strings.Contains(fields[0], ":") && len(fields) == 1 && strings.Contains(fields[0], "[") {
			continue // label
		}
		stack = append(stack, fields[0])
	}
	flush()
	if total == 0 {
		return nil, 0, fmt.Errorf("pprof -traces: no samples parsed")
	}
	return byLayer, total, sc.Err()
}

// parseSampleValue reads a CPU sample value such as "10ms" or "1.20s"
// as seconds.
func parseSampleValue(s string) (float64, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		if f, ferr := strconv.ParseFloat(s, 64); ferr == nil {
			return f / 1e9, nil
		}
		return 0, err
	}
	return d.Seconds(), nil
}

// ladderStep is one vpntest test as RunSuite would run it.
type ladderStep struct {
	name string
	fn   func(env *vpntest.Env) error
}

// ladderSteps lists the suite's tests in RunSuite's order under the
// options a campaign slot would use.
func ladderSteps(env *vpntest.Env, so vpntest.SuiteOptions) []ladderStep {
	wrap := func(name string, f func(*vpntest.Env) error) ladderStep { return ladderStep{name, f} }
	steps := []ladderStep{
		wrap("geo", func(e *vpntest.Env) error { _, err := vpntest.RunGeolocation(e); return err }),
		wrap("ping", func(e *vpntest.Env) error { _, err := vpntest.RunPingSweep(e); return err }),
		wrap("dns-manipulation", func(e *vpntest.Env) error { _, err := vpntest.RunDNSManipulation(e); return err }),
		wrap("recursive-origin", func(e *vpntest.Env) error { _, err := vpntest.RunRecursiveOrigin(e); return err }),
		wrap("proxy-detection", func(e *vpntest.Env) error { _, err := vpntest.RunProxyDetection(e); return err }),
		wrap("dom-collection", func(e *vpntest.Env) error { _, err := vpntest.RunDOMCollection(e); return err }),
		wrap("tls", func(e *vpntest.Env) error { _, err := vpntest.RunTLS(e); return err }),
	}
	if !so.SkipLeaks {
		steps = append(steps, wrap("leaks", func(e *vpntest.Env) error { _, err := vpntest.RunLeakTests(e); return err }))
	}
	steps = append(steps, wrap("traceroute", func(e *vpntest.Env) error { _, err := vpntest.RunTraceroutes(e, 3); return err }))
	if env.Cfg.WebRTCProbeURL != "" {
		steps = append(steps, wrap("webrtc-leak", func(e *vpntest.Env) error { _, err := vpntest.RunWebRTCLeak(e); return err }))
	}
	steps = append(steps, wrap("p2p-detection", func(e *vpntest.Env) error { _, err := vpntest.RunP2PDetection(e); return err }))
	if !so.SkipFailure {
		steps = append(steps, wrap("tunnel-failure", func(e *vpntest.Env) error { _, err := vpntest.RunTunnelFailure(e); return err }))
	}
	return steps
}

// connectProbe provisions a fresh client machine on w and connects it to
// vp, retrying like a campaign slot does.
func connectProbe(w *study.World, p *vpn.Provider, vp *vpn.VantagePoint) (env *vpntest.Env, done func(), took time.Duration, err error) {
	stack, err := w.NewClientStack()
	if err != nil {
		return nil, nil, 0, err
	}
	t := time.Now()
	var client *vpn.Client
	for attempt := 0; attempt < 3; attempt++ {
		if client, err = vpn.Connect(stack, vp); err == nil {
			break
		}
	}
	took = time.Since(t)
	if err != nil {
		stack.Retire()
		return nil, nil, 0, err
	}
	env = vpntest.NewEnv(w.Config, w.Baseline, stack, p.Name(), vp.ID(), vp.ClaimedCountry)
	return env, func() { client.Disconnect(); stack.Retire() }, took, nil
}

// probeLadder is the traced run's layer ladder: on a freshly built world
// with the workload's options it takes each provider's first vantage
// point, times one RunSuite, then reconnects and times the connect and
// each test separately. The per-test sum is reconciled against the
// RunSuite wall on the same vantage points.
func (r *run) probeLadder(opts study.Options) error {
	w, err := study.Build(opts)
	if err != nil {
		return fmt.Errorf("ladder build: %w", err)
	}
	sums := map[string]time.Duration{}
	var connect, suite, tests time.Duration
	n := 0
	micro := false
	for _, p := range w.Providers {
		if p.Spec.Client == vpn.BrowserExtension || len(p.VPs) == 0 {
			continue
		}
		vp := p.VPs[0]
		var so vpntest.SuiteOptions
		if p.Spec.Client == vpn.ThirdPartyOpenVPN {
			so.SkipLeaks, so.SkipFailure = true, true
		}
		env, done, _, err := connectProbe(w, p, vp)
		if err != nil {
			continue
		}
		t := time.Now()
		vpntest.RunSuite(env, so)
		suiteWall := time.Since(t)
		done()

		env, done, took, err := connectProbe(w, p, vp)
		if err != nil {
			continue
		}
		n++
		connect += took
		suite += suiteWall
		for _, st := range ladderSteps(env, so) {
			t := time.Now()
			_ = st.fn(env) // test errors are results here, as in RunSuite
			d := time.Since(t)
			sums[st.name] += d
			tests += d
		}
		done()

		if !micro {
			if env, done, _, err := connectProbe(w, p, vp); err == nil {
				r.microLadder(env)
				done()
				micro = true
			}
		}
	}
	if n == 0 {
		return fmt.Errorf("ladder: no vantage point connected")
	}
	per := func(d time.Duration) float64 { return ms(d) / float64(n) }
	r.layer["vpn.connect_ms"] = per(connect)
	for name, d := range sums {
		r.layer["vpntest."+name+"_ms"] = per(d)
	}
	r.layer["vpntest.suite_ms"] = per(suite)
	share := float64(tests) / float64(suite)
	r.layer["vpntest.ladder_share"] = share
	log.Printf("ladder: %d vantage points, test sum / RunSuite wall = %.3f", n, share)
	r.op(expect(0.9 <= share && share <= 1.1, "ladder test sum is %.1f%% of RunSuite wall, outside 10%%", 100*share))
	return nil
}

// microLadder times the three smallest layer operations through a
// connected tunnel: an HTTP fetch, a DNS resolution, and a ping.
func (r *run) microLadder(env *vpntest.Env) {
	const reps = 200
	time1 := func(f func(i int)) float64 {
		xs := make([]float64, reps)
		for i := range xs {
			t := time.Now()
			f(i)
			xs[i] = float64(time.Since(t)) / float64(time.Microsecond)
		}
		return median(xs)
	}
	cfg := env.Cfg
	r.layer["websim.get_us"] = time1(func(int) { _, _ = env.Client.Get(cfg.EchoURL) })
	r.layer["dnssim.resolve_us"] = time1(func(i int) {
		_, _ = env.Client.ResolveVia(cfg.PublicResolvers[0], cfg.DNSCheckHosts[i%len(cfg.DNSCheckHosts)], false)
	})
	r.layer["netsim.ping_us"] = time1(func(i int) { _, _ = env.Stack.Ping(cfg.Landmarks[i%len(cfg.Landmarks)].Addr) })
}
