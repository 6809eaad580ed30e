// Command vpnbench is vpnscope's benchmark. It runs one named
// workload for a fixed wall-clock budget, checks that every campaign it
// ran produced correct output, and prints the measured metrics as one
// JSON object on the last line of standard output:
//
//	vpnbench -workload study-seq -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it prints the end-to-end metrics a user of vpnscope
// sees; with -trace 1 it runs the same workload with a CPU profile and
// per-layer timers and prints the per-layer metrics instead (see
// metrics.go for both lists). vpnbench/run.sh builds vpnbench and the
// vpnscoped daemon from the checkout and runs it; BENCHMARK.json at the
// repository root declares the workloads and metrics.
//
// vpnbench measures each layer from outside: it times calls into the
// layers' public functions and callbacks, reads the campaign flight
// recorder, and folds a CPU profile by package. It adds no tracing to
// the program itself.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one named input set. why is the rationale recorded beside
// the definition (BENCHMARK.json carries a one-line summary of it).
type workload struct {
	name string
	why  string
	run  func(r *run) error
}

var workloads = []workload{
	{
		name: "study-seq",
		why: "The one-shot study users run: the paper's 62-provider campaign under " +
			"lossy faults on one worker, result kept in memory and serialised. Nearly " +
			"all CPU is in the packet and simulation layers; no scheduler contention, " +
			"persistence or HTTP, so it is the home of the layer ladder. Lossy faults " +
			"exercise retries, backoff and quarantine.",
		run: runStudySeq,
	},
	{
		name: "catalog-stream",
		why: "The ecosystem sweep: all 200 catalog providers, no faults, nproc " +
			"workers, every outcome fsynced into a shard log, then sealed, merged " +
			"and analysed. Same simulation layers on a different provider mix; the " +
			"extra work is work stealing, the pipelined committer, shard-log " +
			"append/fsync/merge and analysis. A faultsim change should not move it; " +
			"a shard-log change should.",
		run: runCatalogStream,
	},
	{
		name: "daemon-small",
		why: "The resident service: a vpnscoped subprocess driven by a closed loop " +
			"of 2 clients submitting small single-provider lossy campaigns, half of " +
			"them repeats that hit the world-template cache. Packet work is small; " +
			"admission, the spec fsync, queueing, world build, the Checkpoint " +
			"persistence path and sealing dominate.",
		run: runDaemonSmall,
	},
}

// heldOutSeed is never used while tuning the benchmark or a change: a
// performance claim measured on other seeds must also hold on it.
const heldOutSeed = 4242

// run is the state of one benchmark invocation.
type run struct {
	workload  string
	seed      uint64
	seconds   time.Duration
	trace     bool
	work      string // working directory for logs and daemon state
	daemonBin string

	e2e   map[string]float64
	layer map[string]float64

	attempted int
	failed    int
	// nondeterministic is set when the cross-run gate finds a counter
	// or digest that differs from an earlier run of the same code.
	nondeterministic bool

	// exact holds the work counters and output digests that must repeat
	// exactly for the same code and seed, within the run and across runs.
	exact map[string]string
	// binaries are hashed into the cross-run record key, so a rebuilt
	// program starts a fresh record.
	binaries []string
}

// op records one attempted operation: a campaign (with its output
// checks) or a daemon submission. A non-nil err makes it a failed op.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		log.Printf("FAILED: %v", err)
	}
}

// expect turns an output check into an error naming what was wrong.
func expect(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf("check failed: "+format, args...)
}

// setWall records the campaigns' wall-clock metrics: per layer, and in
// the log of an untraced run, where they are not part of the result.
func (r *run) setWall(p50, p90, ttfr, perSecond float64) {
	r.layer["wall.campaign_p50_ms"] = p50
	r.layer["wall.campaign_p90_ms"] = p90
	r.layer["wall.ttfr_p50_ms"] = ttfr
	r.layer["wall.campaigns_per_s"] = perSecond
	log.Printf("wall clock: campaign p50 %.1f ms, p90 %.1f ms, first result p50 %.1f ms, %.3f campaigns/s",
		p50, p90, ttfr, perSecond)
}

// setExact records a value that must repeat exactly for the same code
// and seed: a second setting under the same name within the run must
// agree with the first (crossRunGate extends this across runs).
func (r *run) setExact(name string, v any) error {
	s := fmt.Sprint(v)
	if old, ok := r.exact[name]; ok && old != s {
		return fmt.Errorf("non-deterministic %s: %s, then %s", name, old, s)
	}
	r.exact[name] = s
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("vpnbench: ")
	name := flag.String("workload", "", "workload to run: study-seq, catalog-stream or daemon-small")
	seed := flag.Uint64("seed", 1, "workload seed; every input is derived from it")
	seconds := flag.Int("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	work := flag.String("work", ".bench_build", "working directory inside the checkout")
	daemonBin := flag.String("daemon-bin", "", "vpnscoped binary for daemon-small")
	serveState := flag.String("serve-state", "", "internal: run the daemon in-process over this state dir (traced daemon-small)")
	serveProfile := flag.String("serve-cpuprofile", "", "internal: CPU profile path for -serve-state")
	serveMem := flag.String("serve-memstats", "", "internal: allocation counters path for -serve-state")
	flag.Parse()

	if *serveState != "" {
		if err := serveProfiled(*serveState, *serveProfile, *serveMem); err != nil {
			log.Fatal(err)
		}
		return
	}

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		log.Fatalf("unknown -workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		log.Fatal("-seconds must be >= 1 and -trace 0 or 1")
	}
	workDir, err := filepath.Abs(*work)
	if err != nil {
		log.Fatal(err)
	}
	r := &run{
		workload:  wl.name,
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		trace:     *trace == 1,
		work:      filepath.Join(workDir, "run-"+wl.name),
		daemonBin: *daemonBin,
		e2e:       map[string]float64{},
		layer:     map[string]float64{},
		exact:     map[string]string{},
	}
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	r.binaries = []string{self}
	if err := os.RemoveAll(r.work); err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(r.work)

	fp := hostFingerprint()
	fpJSON, _ := json.Marshal(fp)
	// The fingerprint line is part of every recorded result: compare
	// timings only between results whose fingerprints match.
	fmt.Printf("fingerprint %s\n", fpJSON)
	log.Printf("%s seed=%d seconds=%d trace=%v (held-out seed: %d)", wl.name, r.seed, *seconds, r.trace, heldOutSeed)

	ticks0 := hostTicks()
	if err := wl.run(r); err != nil {
		log.Printf("workload %s: %v", wl.name, err)
		os.RemoveAll(r.work)
		os.Exit(1)
	}
	r.layer["host.steal_share"] = stealShare(ticks0, hostTicks())
	if err := r.crossRunGate(workDir, fp); err != nil {
		log.Printf("cross-run record: %v", err)
		os.RemoveAll(r.work)
		os.Exit(1)
	}
	r.print()
}

// print writes the result object as the last line of standard output.
func (r *run) print() {
	defs, vals := endToEnd, r.e2e
	if r.trace {
		defs, vals = perLayer, r.layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !r.trace {
			r.op(fmt.Errorf("end-to-end metric %s was not measured", d.name))
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if r.nondeterministic && r.failed == 0 {
		r.failed = 1 // the run's outputs disagree with an earlier run's
	}
	out.Correct = r.failed == 0 && r.attempted > 0
	out.Attempted, out.Failed = r.attempted, r.failed
	raw, err := json.Marshal(out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(raw))
}

// fingerprint identifies the host a result was measured on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        "unknown",
		Kernel:     "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(raw))
	}
	return fp
}

// crossRunGate is the exact-counter gate across runs: the first run of
// a (workload, seed, binaries, host) combination records its exact
// counters and digests; every later one must reproduce them, or the run
// is failed as non-deterministic rather than reported as a timing.
func (r *run) crossRunGate(work string, fp fingerprint) error {
	h := sha256.New()
	for _, bin := range r.binaries {
		f, err := os.Open(bin)
		if err != nil {
			return err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return err
		}
	}
	fpJSON, _ := json.Marshal(fp)
	h.Write(fpJSON)
	key := hex.EncodeToString(h.Sum(nil))[:16]
	dir := filepath.Join(work, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", r.workload, r.seed, key))
	type record struct {
		Fingerprint fingerprint       `json:"fingerprint"`
		Exact       map[string]string `json:"exact"`
	}
	if raw, err := os.ReadFile(path); err == nil {
		var old record
		if err := json.Unmarshal(raw, &old); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for name, want := range old.Exact {
			if got, ok := r.exact[name]; ok && got != want {
				r.nondeterministic = true
				log.Printf("FAILED: non-deterministic across runs: %s was %s, now %s", name, want, got)
			}
		}
		return nil
	}
	if r.failed > 0 {
		return nil // never record a failed run as the reference
	}
	raw, err := json.MarshalIndent(record{Fingerprint: fp, Exact: r.exact}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
