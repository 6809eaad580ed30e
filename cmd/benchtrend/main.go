// Command benchtrend appends `go test -bench` results to a JSON
// trajectory file, so allocation and latency numbers for the campaign
// benchmarks accumulate across commits instead of vanishing with the
// terminal scrollback.
//
// Usage:
//
//	go test -bench 'Study' -benchtime 1x -benchmem -run '^$' . |
//	    go run ./cmd/benchtrend -out BENCH_3.json -label my-change
//
// Every entry carries the fingerprint of the host it was measured on:
// CPU model, nproc, GOMAXPROCS, Go version and kernel.
//
// A benchmark whose name repeats on stdin (a `-count N` run, or
// samples of several benchmarks interleaved so that a drift in the
// host's speed hits each alike) collapses into one entry recording the
// median ns/op and the sample range [min, max].
//
// With -check, benchtrend reads no stdin: it finds the two
// highest-numbered BENCH_*.json trajectories in the current directory
// and compares every benchmark present in both. allocs/op (latest
// entry) must stay within 10%. ns/op is compared only between entries
// measured on hosts with the same fingerprint, and only for repeated
// entries: it regresses when the new [min, max] range lies wholly above
// the old one. A single wall-time sample cannot be ranked and is not
// gated. Any regression exits non-zero; this is the post-`make bench`
// gate (`make benchcheck`).
//
// The output file holds one JSON object with an "entries" array; each
// run appends one entry per benchmark parsed from stdin. See
// README.md ("Profiling and benchmarks") for how to read it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark measurement at one point in time. A repeated
// entry (Samples > 1) records the median as NsPerOp and the sample
// range as MinNs and MaxNs.
type Entry struct {
	Label       string  `json:"label"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	Samples     int     `json:"samples,omitempty"`
	MinNs       float64 `json:"min_ns_per_op,omitempty"`
	MaxNs       float64 `json:"max_ns_per_op,omitempty"`
	Host        *Host   `json:"host,omitempty"`
}

// Host fingerprints the machine an entry was measured on, with the
// keys vpnbench records.
type Host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

// Trajectory is the whole file.
type Trajectory struct {
	Entries []Entry `json:"entries"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtrend: ")
	out := flag.String("out", "BENCH.json", "trajectory file to append to (created if missing)")
	label := flag.String("label", "", "label for this run (e.g. a commit or change name)")
	check := flag.Bool("check", false, "compare the two newest BENCH_*.json and fail on >10% allocs/op regressions, or on repeated ns/op ranges that separate on the same host")
	flag.Parse()
	if *check {
		os.Exit(runCheck())
	}
	if *label == "" {
		log.Fatal("missing -label")
	}

	var traj Trajectory
	if raw, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(raw, &traj); err != nil {
			log.Fatalf("%s exists but is not a trajectory file: %v", *out, err)
		}
	} else if !os.IsNotExist(err) {
		log.Fatal(err)
	}

	entries, err := parse(*label, os.Stdin)
	if err != nil {
		log.Fatal(err)
	}
	if len(entries) == 0 {
		log.Fatal("no benchmark lines found on stdin")
	}
	entries = collapse(entries)
	traj.Entries = append(traj.Entries, entries...)

	enc, err := json.MarshalIndent(&traj, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	for _, e := range entries {
		fmt.Printf("recorded %s: %.0f ns/op, %d B/op, %d allocs/op",
			e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
		if e.Samples > 1 {
			fmt.Printf(" (%d samples, range %.0f-%.0f)", e.Samples, e.MinNs, e.MaxNs)
		}
		fmt.Println()
	}
}

// parse extracts benchmark result lines ("BenchmarkX-8  10  123 ns/op
// 45 B/op  6 allocs/op") from r, each stamped with the host fingerprint;
// the CPU model comes from the "cpu:" header go test prints, and
// GOMAXPROCS from the benchmark name's -N suffix. Other lines are
// ignored.
func parse(label string, r io.Reader) ([]Entry, error) {
	var entries []Entry
	host := hostFingerprint()
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			host.CPU = strings.TrimSpace(cpu)
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		h := host
		suffix := cpuSuffix(f[0])
		if procs, err := strconv.Atoi(strings.TrimPrefix(suffix, "-")); err == nil {
			h.GOMAXPROCS = procs
		} else {
			h.GOMAXPROCS = 1 // go test omits the suffix at GOMAXPROCS=1
		}
		e := Entry{Label: label, Name: strings.TrimSuffix(f[0], suffix), Iterations: iters, Host: &h}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				e.NsPerOp = v
			case "B/op":
				e.BytesPerOp = int64(v)
			case "allocs/op":
				e.AllocsPerOp = int64(v)
			}
		}
		if e.NsPerOp == 0 {
			continue
		}
		entries = append(entries, e)
	}
	return entries, sc.Err()
}

// hostFingerprint reads this machine's fingerprint. The CPU model and
// GOMAXPROCS are overridden from the benchmark output when it names
// them.
func hostFingerprint() Host {
	h := Host{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(raw))
	}
	return h
}

// collapse merges the samples of each benchmark, in first-appearance
// order, into one entry: the median ns/op, the [min, max] range, the
// sample count, and the last sample's other fields (allocations are
// deterministic, so any sample's would do). A benchmark with a single
// sample keeps its entry as parsed.
func collapse(entries []Entry) []Entry {
	idx := make(map[string]int)
	var out []Entry
	var ns [][]float64
	for _, e := range entries {
		i, seen := idx[e.Name]
		if !seen {
			i = len(out)
			idx[e.Name] = i
			out = append(out, e)
			ns = append(ns, nil)
		}
		out[i] = e
		ns[i] = append(ns[i], e.NsPerOp)
	}
	for i := range out {
		s := ns[i]
		if len(s) < 2 {
			continue
		}
		sort.Float64s(s)
		med := s[len(s)/2]
		if len(s)%2 == 0 {
			med = (s[len(s)/2-1] + s[len(s)/2]) / 2
		}
		out[i].NsPerOp, out[i].MinNs, out[i].MaxNs, out[i].Samples = med, s[0], s[len(s)-1], len(s)
	}
	return out
}

// runCheck compares the two highest-numbered BENCH_*.json trajectories
// in the current directory. For every benchmark present in both, the
// latest entry of each file is compared:
//
//   - allocs/op, tolerance checkTolerance — allocation counts are
//     deterministic, so they are compared whatever the hosts;
//   - ns/op, only when both entries carry the same host fingerprint
//     and both are repeated (a [min, max] range): it regresses when the
//     new range lies wholly above the old one. Overlapping ranges are
//     scheduler noise, and a single sample has no spread to judge by.
//
// A benchmark missing a comparable field on either side (no -benchmem
// data, a zero ns/op) is skipped for that gate rather than compared
// against zero. Returns the process exit code.
const checkTolerance = 1.10

func runCheck() int {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(files, func(i, j int) bool { return benchSeq(files[i]) < benchSeq(files[j]) })
	if len(files) < 2 {
		log.Printf("check: need two BENCH_*.json trajectories, found %d — nothing to compare", len(files))
		return 0
	}
	prevFile, curFile := files[len(files)-2], files[len(files)-1]
	prev, cur := statsByName(prevFile), statsByName(curFile)

	names := make([]string, 0, len(cur))
	for name := range cur {
		if _, ok := prev[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		log.Printf("check: %s and %s share no benchmarks — nothing to compare", prevFile, curFile)
		return 0
	}

	allocRegressed, wallRegressed, wallCompared := 0, 0, 0
	for _, name := range names {
		p, c := prev[name], cur[name]
		if p.AllocsPerOp > 0 && c.AllocsPerOp > 0 {
			ratio := float64(c.AllocsPerOp) / float64(p.AllocsPerOp)
			status := "ok"
			if ratio > checkTolerance {
				status = "REGRESSED"
				allocRegressed++
			}
			fmt.Printf("%-50s %12d -> %12d allocs/op (%+.1f%%) %s\n",
				name, p.AllocsPerOp, c.AllocsPerOp, (ratio-1)*100, status)
		}
		switch {
		case p.NsPerOp == 0 || c.NsPerOp == 0:
		case p.Host == nil || c.Host == nil || *p.Host != *c.Host:
			fmt.Printf("%-50s ns/op not compared: host fingerprints differ\n", name)
		case p.Samples < 2 || c.Samples < 2:
			fmt.Printf("%-50s ns/op not compared: a single sample has no range\n", name)
		default:
			wallCompared++
			status := "ok"
			if c.MinNs > p.MaxNs {
				status = "REGRESSED"
				wallRegressed++
			}
			fmt.Printf("%-50s [%.0f, %.0f] -> [%.0f, %.0f] ns/op %s\n",
				name, p.MinNs, p.MaxNs, c.MinNs, c.MaxNs, status)
		}
	}
	allocPct := int((checkTolerance - 1.0) * 100.0)
	if allocRegressed > 0 || wallRegressed > 0 {
		log.Printf("check: %d benchmark(s) regressed >%d%% allocs/op, %d ns/op range(s) moved wholly above the old (%s vs %s)",
			allocRegressed, allocPct, wallRegressed, curFile, prevFile)
		return 1
	}
	fmt.Printf("check: %d shared benchmark(s) within %d%% allocs/op of %s; %d ns/op range(s) compared, none separated\n",
		len(names), allocPct, prevFile, wallCompared)
	return 0
}

// benchSeq extracts the numeric sequence of a BENCH_<n>.json filename
// (so BENCH_10 sorts after BENCH_9); non-numeric names sort first.
func benchSeq(name string) int {
	s := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(name), "BENCH_"), ".json")
	n, err := strconv.Atoi(s)
	if err != nil {
		return -1
	}
	return n
}

// statsByName loads a trajectory and returns each benchmark's latest
// entry — the file is append-only, so the last entry is the newest
// measurement.
func statsByName(path string) map[string]Entry {
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	var traj Trajectory
	if err := json.Unmarshal(raw, &traj); err != nil {
		log.Fatalf("%s is not a trajectory file: %v", path, err)
	}
	out := make(map[string]Entry, len(traj.Entries))
	for _, e := range traj.Entries {
		out[e.Name] = e
	}
	return out
}

// cpuSuffix returns the trailing "-N" GOMAXPROCS marker of a benchmark
// name, or "" if there is none.
func cpuSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return ""
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return ""
	}
	return name[i:]
}
