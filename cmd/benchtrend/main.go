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
// With -best, repeated lines for the same benchmark (a `-count N` run)
// collapse to the lowest-ns/op measurement before recording — the
// minimum is the stablest estimator of a benchmark's true cost on a
// noisy shared host.
//
// With -check, benchtrend reads no stdin: it finds the two
// highest-numbered BENCH_*.json trajectories in the current directory
// and compares every benchmark present in both — latest allocs/op
// within 10%, best-of ns/op within 25% — exiting non-zero on any
// regression. This is the post-`make bench` gate (`make benchcheck`).
//
// The output file holds one JSON object with an "entries" array; each
// run appends one entry per benchmark line parsed from stdin. See
// README.md ("Profiling and benchmarks") for how to read it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark measurement at one point in time.
type Entry struct {
	Label       string  `json:"label"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
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
	best := flag.Bool("best", false, "collapse -count repeats of a benchmark to the lowest ns/op before recording")
	check := flag.Bool("check", false, "compare the two newest BENCH_*.json and fail on >10% allocs/op (latest) or >25% ns/op (best-of) regressions")
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
	if *best {
		entries = bestOf(entries)
	}
	traj.Entries = append(traj.Entries, entries...)

	enc, err := json.MarshalIndent(&traj, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	for _, e := range entries {
		fmt.Printf("recorded %s: %.0f ns/op, %d B/op, %d allocs/op\n",
			e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}
}

// parse extracts benchmark result lines ("BenchmarkX-8  10  123 ns/op
// 45 B/op  6 allocs/op") from r. Non-benchmark lines are ignored.
func parse(label string, r *os.File) ([]Entry, error) {
	var entries []Entry
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		e := Entry{Label: label, Name: strings.TrimSuffix(f[0], cpuSuffix(f[0])), Iterations: iters}
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

// bestOf keeps, for each benchmark name, only the lowest-ns/op entry,
// preserving first-appearance order. `-count N` runs feed N lines per
// benchmark; the minimum across them filters out scheduler noise.
func bestOf(entries []Entry) []Entry {
	idx := make(map[string]int)
	var out []Entry
	for _, e := range entries {
		i, seen := idx[e.Name]
		if !seen {
			idx[e.Name] = len(out)
			out = append(out, e)
			continue
		}
		if e.NsPerOp < out[i].NsPerOp {
			out[i] = e
		}
	}
	return out
}

// runCheck compares the two highest-numbered BENCH_*.json trajectories
// in the current directory. For every benchmark present in both, two
// gates apply:
//
//   - allocs/op: the latest recorded entry of each file, tolerance
//     checkTolerance — allocation counts are deterministic, so the
//     latest measurement is the right one to compare;
//   - ns/op: the *best* (lowest) measurement of each file, tolerance
//     wallTolerance — wall time on a shared host is noisy, and `-count`
//     repeats make the per-file minimum the stablest estimator, so the
//     gate is best-of-aware and wide (25%) to stay below the noise
//     floor while still catching real slowdowns.
//
// A benchmark missing a comparable field on either side (no -benchmem
// data, a zero ns/op) is skipped for that gate rather than compared
// against zero. Returns the process exit code.
const (
	checkTolerance = 1.10
	wallTolerance  = 1.25
)

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

	allocRegressed, wallRegressed := 0, 0
	for _, name := range names {
		p, c := prev[name], cur[name]
		if p.latest.AllocsPerOp > 0 && c.latest.AllocsPerOp > 0 {
			ratio := float64(c.latest.AllocsPerOp) / float64(p.latest.AllocsPerOp)
			status := "ok"
			if ratio > checkTolerance {
				status = "REGRESSED"
				allocRegressed++
			}
			fmt.Printf("%-50s %12d -> %12d allocs/op (%+.1f%%) %s\n",
				name, p.latest.AllocsPerOp, c.latest.AllocsPerOp, (ratio-1)*100, status)
		}
		if p.bestNs > 0 && c.bestNs > 0 {
			ratio := c.bestNs / p.bestNs
			status := "ok"
			if ratio > wallTolerance {
				status = "REGRESSED"
				wallRegressed++
			}
			fmt.Printf("%-50s %12.0f -> %12.0f ns/op     (%+.1f%%) %s\n",
				name, p.bestNs, c.bestNs, (ratio-1)*100, status)
		}
	}
	allocPct := int((checkTolerance - 1.0) * 100.0)
	wallPct := int((wallTolerance - 1.0) * 100.0)
	if allocRegressed > 0 || wallRegressed > 0 {
		log.Printf("check: %d benchmark(s) regressed >%d%% allocs/op, %d regressed >%d%% ns/op (%s vs %s)",
			allocRegressed, allocPct, wallRegressed, wallPct, curFile, prevFile)
		return 1
	}
	fmt.Printf("check: %d shared benchmark(s) within %d%% allocs/op and %d%% ns/op of %s\n",
		len(names), allocPct, wallPct, prevFile)
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

// benchStat aggregates one benchmark's history inside a trajectory:
// the latest entry (for deterministic fields like allocs/op) and the
// best wall time seen across every recorded run (for the noisy ns/op
// gate).
type benchStat struct {
	latest Entry
	bestNs float64
}

// statsByName loads a trajectory and aggregates per benchmark name —
// the file is append-only, so the last entry is the newest measurement.
func statsByName(path string) map[string]benchStat {
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	var traj Trajectory
	if err := json.Unmarshal(raw, &traj); err != nil {
		log.Fatalf("%s is not a trajectory file: %v", path, err)
	}
	out := make(map[string]benchStat, len(traj.Entries))
	for _, e := range traj.Entries {
		s := out[e.Name]
		s.latest = e
		if e.NsPerOp > 0 && (s.bestNs == 0 || e.NsPerOp < s.bestNs) {
			s.bestNs = e.NsPerOp
		}
		out[e.Name] = s
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
