package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of vpnscope sees. Every workload
// reports all of these; a campaign is one study run (study-seq), one
// catalog sweep up to its analysed, sealed log (catalog-stream), or one
// daemon submission from POST to its done event (daemon-small).
//
// campaign_ms is the wall clock the user waits, less the share of it
// the hypervisor stole from this guest (measured over the same interval
// from /proc/stat), so that it sees blocking I/O, commit waits and idle
// workers but not the neighbours on a shared host. campaign_cpu_ms is
// what a campaign costs the machine (user plus system time of the
// process doing the work, as time(1) reports it).
var endToEnd = []metricDef{
	{"setup_s", "s"},          // wall time of one cold set-up, median of several
	{"campaign_ms", "ms"},     // wall time per campaign less stolen time
	{"campaign_cpu_ms", "ms"}, // CPU time per completed campaign
	{"peak_rss_mb", "MB"},     // VmHWM of the process doing the work
}

// perLayer are the traced run's metrics, named <layer>.<metric>. A
// layer a workload bypasses reads 0 there; which end-to-end metric each
// should move, on which workload, is noted per group.
var perLayer = []metricDef{
	// CPU profile of the traced phase, folded by package: each sample
	// goes to GC, to a syscall, or else to the innermost frame of a
	// listed vpnscope package. Packet and simulation layers move
	// campaign_ms and campaign_cpu_ms on study-seq; slotsched, study,
	// shardlog, analysis and syscall move them on catalog-stream; server,
	// results and syscall move them on daemon-small; runtime.gc moves them
	// and peak_rss_mb everywhere.
	{"capture.cpu_s", "s"},
	{"netsim.cpu_s", "s"},
	{"dnssim.cpu_s", "s"},
	{"tlssim.cpu_s", "s"},
	{"websim.cpu_s", "s"},
	{"vpn.cpu_s", "s"},
	{"vpntest.cpu_s", "s"},
	{"faultsim.cpu_s", "s"},
	{"arena.cpu_s", "s"},
	{"study.cpu_s", "s"},
	{"slotsched.cpu_s", "s"},
	{"shardlog.cpu_s", "s"},
	{"results.cpu_s", "s"},
	{"analysis.cpu_s", "s"},
	{"server.cpu_s", "s"},
	{"runtime.gc_cpu_s", "s"},
	{"syscall.cpu_s", "s"},
	{"pprof.other_cpu_s", "s"},
	{"pprof.total_cpu_s", "s"},
	{"pprof.folded_share", "ratio"},
	// Raw wall-clock latency and throughput of the campaigns (untraced
	// phase of the traced run), and the share of busy CPU time the
	// hypervisor stole during the run, which explains most of their
	// run-to-run spread and which campaign_ms leaves out.
	{"wall.campaign_p50_ms", "ms"},
	{"wall.campaign_p90_ms", "ms"},
	{"wall.ttfr_p50_ms", "ms"}, // campaign start to its first committed slot
	{"wall.campaigns_per_s", "1/s"},
	{"host.steal_share", "ratio"},
	// Traced minus untraced median campaign latency in the same run.
	{"trace.untraced_campaign_ms", "ms"},
	{"trace.traced_campaign_ms", "ms"},
	{"trace.overhead_ms", "ms"},

	// Slot executor, from the campaign flight recorder: slot walls move
	// campaign_ms and wall.ttfr_p50_ms; commit wait moves campaign_ms on
	// catalog-stream (about 0 on one worker); retries move study-seq.
	{"slot.wall_ms_p50", "ms"},
	{"slot.wall_ms_p90", "ms"},
	{"study.commit_wait_ms", "ms"},
	{"study.retries", "count"},

	// World build: moves setup_s, and wall.ttfr_p50_ms on daemon-small.
	{"study.build_cold_s", "s"},
	{"study.build_warm_s", "s"},

	// Persistence, timed around the public calls: shard-log numbers move
	// catalog-stream; checkpoint numbers (from the daemon's flight dumps
	// and state dir) move daemon-small.
	{"shardlog.append_us_p50", "us"},
	{"shardlog.append_us_p90", "us"},
	{"shardlog.seal_ms", "ms"},
	{"shardlog.merge_s", "s"},
	{"analysis.pass_s", "s"},
	{"results.save_ms", "ms"},
	{"results.checkpoint_ms_p50", "ms"},
	{"results.checkpoint_bytes", "bytes"},

	// Daemon stages per campaign, from the client clock and the
	// campaign's flight dump. start is admission to the first slot (queue
	// hand-off plus world build), split by template hit and miss.
	{"server.admit_ms_p50", "ms"},
	{"server.start_ms_p50", "ms"},
	{"server.start_hit_ms_p50", "ms"},
	{"server.start_miss_ms_p50", "ms"},
	{"server.first_slot_ms_p50", "ms"},
	{"server.seal_ms_p50", "ms"},
	{"server.rejected", "count"},

	// Layer ladder: a probe pass over each provider's first vantage
	// point on a freshly built world (netsim's locked path, not the
	// campaign's arena path), mean per vantage point. It moves
	// campaign_ms on study-seq but is not reconciled with it; the
	// test sum is reconciled with a RunSuite pass over the same points.
	{"vpn.connect_ms", "ms"},
	{"vpntest.geo_ms", "ms"},
	{"vpntest.ping_ms", "ms"},
	{"vpntest.dns-manipulation_ms", "ms"},
	{"vpntest.recursive-origin_ms", "ms"},
	{"vpntest.proxy-detection_ms", "ms"},
	{"vpntest.dom-collection_ms", "ms"},
	{"vpntest.tls_ms", "ms"},
	{"vpntest.leaks_ms", "ms"},
	{"vpntest.traceroute_ms", "ms"},
	{"vpntest.webrtc-leak_ms", "ms"},
	{"vpntest.p2p-detection_ms", "ms"},
	{"vpntest.tunnel-failure_ms", "ms"},
	{"vpntest.suite_ms", "ms"},
	{"vpntest.ladder_share", "ratio"},
	{"websim.get_us", "us"},
	{"dnssim.resolve_us", "us"},
	{"netsim.ping_us", "us"},

	// Work counters. All but the allocation ratios repeat exactly for a
	// given code and seed (study-seq and catalog-stream per campaign,
	// daemon-small per submitted spec); they tell more work from slower
	// work when campaign_ms moves.
	{"work.slots", "count"},
	{"work.reports", "count"},
	{"work.connect_failures", "count"},
	{"work.recoveries", "count"},
	{"work.quarantine_skips", "count"},
	{"work.outcomes", "count"},
	{"work.envelope_bytes", "bytes"},
	{"work.log_bytes", "bytes"},
	{"work.allocs_per_slot", "count"},
	{"work.alloc_bytes_per_slot", "bytes"},
}

// percentile returns the p-quantile (0..1) of xs by linear
// interpolation between order statistics; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles formats the first, second and third quartile of xs for the
// log.
func quartiles(xs []float64) string {
	return fmt.Sprintf("[%.4g %.4g %.4g]", percentile(xs, 0.25), median(xs), percentile(xs, 0.75))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// vmHWM reads a process's peak resident set size in MB from
// /proc/<pid>/status ("self" for this process).
func vmHWM(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}

// selfCPU is this process's user plus system time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is a process's user plus system time so far, from
// /proc/<pid>/stat (clock ticks, counting exited threads too).
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	_, rest, ok := strings.Cut(string(raw), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	const clockTicks = 100 // USER_HZ on Linux
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// ticks are the host's CPU time counters from the aggregate line of
// /proc/stat, summed over all CPUs: busy is every tick a CPU wanted to
// run (user, nice, system, irq, softirq and steal), steal the part of
// it the hypervisor gave to another guest.
type ticks struct{ busy, steal int64 }

func hostTicks() ticks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return ticks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	var t ticks
	for i, s := range f[1:] {
		v, _ := strconv.ParseInt(s, 10, 64)
		switch i { // user nice system idle iowait irq softirq steal
		case 0, 1, 2, 5, 6:
			t.busy += v
		case 7:
			t.busy += v
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of the busy CPU time between a and b that was
// stolen: the fraction of its wall time a process that kept a CPU busy
// over the interval spent waiting for the hypervisor.
func stealShare(a, b ticks) float64 {
	if b.busy <= a.busy {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.busy-a.busy)
}

// perWorld is the mean over worlds of the median of each world's
// samples. A run cycles its campaigns through worlds that differ in
// work, and how many campaigns land on each depends on the run's speed;
// weighting every world equally keeps that mix out of the result.
func perWorld(xs []float64, world []int) float64 {
	by := map[int][]float64{}
	for i, x := range xs {
		by[world[i]] = append(by[world[i]], x)
	}
	if len(by) == 0 {
		return 0
	}
	sum := 0.0
	for _, w := range by {
		sum += median(w)
	}
	return sum / float64(len(by))
}
