package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"vpnscope/internal/analysis"
	"vpnscope/internal/ecosystem"
	"vpnscope/internal/faultsim"
	"vpnscope/internal/flightrec"
	"vpnscope/internal/results"
	"vpnscope/internal/results/shardlog"
	"vpnscope/internal/study"
	"vpnscope/internal/vpn"
)

// paperSeed is the seed the paper's verdict set is pinned at. Under
// lossy faults other seeds can gain or lose a verdict (a transparent
// proxy missed, an extra DNS leaker), so verdicts are checked on the
// paper's world only.
const paperSeed = 2018

// paperCatalogOutcomes is the catalog sweep's outcome count at paperSeed.
const paperCatalogOutcomes = 1182

// setupRepeats is how many cold set-ups a run times; setup_s is their
// median. A set-up takes milliseconds, so it takes many to make the
// median steady.
const setupRepeats = 32

// worldsPerRun is how many worlds a study-seq or catalog-stream run
// cycles its campaigns through. Worlds differ in work (vantage points
// that fail, retries, fault draws), so a run on one world would measure
// that world rather than the workload; a run's medians are taken over
// all of them.
const worldsPerRun = 4

// worldSeeds derives a run's world seeds: the paper's world first, whose
// verdicts every run checks, then splitmix draws from the workload seed.
func worldSeeds(seed uint64) []uint64 {
	seeds := []uint64{paperSeed}
	for i := 1; i < worldsPerRun; i++ {
		seeds = append(seeds, splitmix(seed^uint64(i)*0x9e3779b97f4a7c15))
	}
	return seeds
}

// worldKey names an exact counter or digest of world j.
func worldKey(j int, name string) string { return fmt.Sprintf("world%d.%s", j, name) }

// campaignSet accumulates one phase's campaigns.
type campaignSet struct {
	lat, ttfr  []float64 // wall ms per campaign
	unstolen   []float64 // wall ms less stolen time per campaign
	cpu        []float64 // CPU ms per campaign
	world      []int     // world index per campaign
	slotWall   []float64 // ms per measured slot
	commitWait []float64 // ms per campaign
	save       []float64 // ms per campaign (study-seq serialisation)
	retries    int
	slots      int
	mallocs    uint64
	allocBytes uint64
}

func (cs *campaignSet) addFlight(ev []flightrec.Event, t0 time.Time) {
	var wait time.Duration
	first := int64(0)
	for _, e := range ev {
		switch e.Kind {
		case flightrec.SlotFinish:
			cs.slotWall = append(cs.slotWall, ms(time.Duration(e.V1)))
			cs.slots++
		case flightrec.CommitWait:
			wait += time.Duration(e.V1)
		case flightrec.Retry:
			cs.retries++
		case flightrec.Commit:
			if first == 0 {
				first = e.WallNs
			}
		}
	}
	cs.commitWait = append(cs.commitWait, ms(wait))
	cs.ttfr = append(cs.ttfr, ms(time.Duration(first-t0.UnixNano())))
}

// clock brackets a campaign on world j: the returned function, called
// when its verdicts are available, records its wall time, its wall time
// less the time stolen from the host meanwhile, and its CPU time.
func (cs *campaignSet) clock(j int) (t0 time.Time, stop func() time.Time) {
	k0, c0, t0 := hostTicks(), selfCPU(), time.Now()
	return t0, func() time.Time {
		end := time.Now()
		cpu, k1 := selfCPU(), hostTicks()
		wall := ms(end.Sub(t0))
		cs.world = append(cs.world, j)
		cs.cpu = append(cs.cpu, ms(cpu-c0))
		cs.lat = append(cs.lat, wall)
		cs.unstolen = append(cs.unstolen, wall*(1-stealShare(k0, k1)))
		return end
	}
}

// ring returns a flight recorder large enough that a campaign over
// world never overwrites it (checked after the run).
func ring(w *study.World) *flightrec.Ring {
	vps := 0
	for _, p := range w.Providers {
		vps += len(p.VPs)
	}
	return flightrec.NewRing(16*vps + 256)
}

func checkRing(rg *flightrec.Ring) error {
	st := rg.Stats()
	return expect(st.Dropped == 0, "flight recorder overwrote %d of %d events", st.Dropped, st.Events)
}

// setupSampler times cold builds (template cache cleared, as every CLI
// invocation pays) and as many warm ones, cycling through the run's
// worlds, each from a collected heap. A build takes milliseconds, so a
// batch of them reads the host's speed at one moment; a run takes its
// set-ups in batches spread between its campaigns instead.
type setupSampler struct {
	worlds              []study.Options
	cold, coldCPU, warm []float64
}

// batch times up to n more set-ups, stopping at setupRepeats.
func (s *setupSampler) batch(n int) error {
	for ; n > 0 && len(s.cold) < setupRepeats; n-- {
		opts := s.worlds[len(s.cold)%len(s.worlds)]
		study.ClearWorldTemplates()
		runtime.GC()
		c, t := selfCPU(), time.Now()
		if _, err := study.Build(opts); err != nil {
			return fmt.Errorf("cold build: %w", err)
		}
		s.cold = append(s.cold, time.Since(t).Seconds())
		s.coldCPU = append(s.coldCPU, (selfCPU() - c).Seconds())
		runtime.GC()
		t = time.Now()
		if _, err := study.Build(opts); err != nil {
			return fmt.Errorf("warm build: %w", err)
		}
		s.warm = append(s.warm, time.Since(t).Seconds())
	}
	return nil
}

// setupBatch is how many set-ups are timed after each untraced
// campaign; a quarter of setupRepeats is timed before the first.
const setupBatch = 4

// phases runs campaign until the budget is spent, at least twice, and
// times the set-ups between the untraced campaigns. n numbers the
// campaigns of the run; campaign n runs on world n mod worldsPerRun.
// The traced variant spends the first half untraced and the second half
// under a CPU profile, so the two medians give the tracing overhead.
func (r *run) phases(worlds []study.Options, campaign func(cs *campaignSet, n int) error) (untraced, traced *campaignSet, profile string, err error) {
	setup := &setupSampler{worlds: worlds}
	if err := setup.batch(setupRepeats / 4); err != nil {
		return nil, nil, "", err
	}
	// One unmeasured campaign first, so heap growth and first-touch page
	// faults are not charged to the measured ones. Its checks still count.
	n := 0
	r.op(campaign(&campaignSet{}, n))
	loop := func(budget time.Duration, between int) (*campaignSet, error) {
		cs := &campaignSet{}
		end := time.Now().Add(budget)
		for i := 0; i < 2 || time.Now().Before(end); i++ {
			n++
			r.op(campaign(cs, n))
			if err := setup.batch(between); err != nil {
				return nil, err
			}
		}
		return cs, nil
	}
	if !r.trace {
		untraced, err = loop(r.seconds, setupBatch)
	} else if untraced, err = loop(r.seconds/2, setupBatch); err == nil {
		profile = filepath.Join(r.work, "cpu.pprof")
		stop, perr := startCPUProfile(profile)
		if perr != nil {
			return nil, nil, "", perr
		}
		traced, err = loop(r.seconds/2, 0)
		if perr := stop(); perr != nil {
			return nil, nil, "", perr
		}
	}
	if err == nil {
		err = setup.batch(setupRepeats) // the rest, if the run was short
	}
	if err != nil {
		return nil, nil, "", err
	}
	r.e2e["setup_s"] = median(setup.cold)
	r.layer["study.build_cold_s"] = median(setup.cold)
	r.layer["study.build_warm_s"] = median(setup.warm)
	log.Printf("set-up: cold build wall %v cpu %v", quartiles(setup.cold), quartiles(setup.coldCPU))
	return untraced, traced, profile, nil
}

// report fills the end-to-end metrics (untraced run) or the per-layer
// ones (traced run) from the measured phases.
func (r *run) report(untraced, traced *campaignSet, profile string) error {
	if len(untraced.lat) == 0 || (traced != nil && len(traced.lat) == 0) {
		return errors.New("no campaign completed")
	}
	total := 0.0
	for _, l := range untraced.lat {
		total += l
	}
	r.setWall(median(untraced.lat), percentile(untraced.lat, 0.9), median(untraced.ttfr),
		float64(len(untraced.lat))/(total/1000))
	if !r.trace {
		r.e2e["campaign_ms"] = perWorld(untraced.unstolen, untraced.world)
		r.e2e["campaign_cpu_ms"] = perWorld(untraced.cpu, untraced.world)
		rss, err := vmHWM("self")
		if err != nil {
			return err
		}
		r.e2e["peak_rss_mb"] = rss
		return nil
	}
	all := &campaignSet{}
	for _, cs := range []*campaignSet{untraced, traced} {
		all.slotWall = append(all.slotWall, cs.slotWall...)
		all.commitWait = append(all.commitWait, cs.commitWait...)
		all.save = append(all.save, cs.save...)
		all.slots += cs.slots
		all.mallocs += cs.mallocs
		all.allocBytes += cs.allocBytes
	}
	campaigns := float64(len(untraced.lat) + len(traced.lat))
	r.layer["trace.untraced_campaign_ms"] = median(untraced.lat)
	r.layer["trace.traced_campaign_ms"] = median(traced.lat)
	r.layer["trace.overhead_ms"] = median(traced.lat) - median(untraced.lat)
	r.layer["slot.wall_ms_p50"] = median(all.slotWall)
	r.layer["slot.wall_ms_p90"] = percentile(all.slotWall, 0.9)
	r.layer["study.commit_wait_ms"] = median(all.commitWait)
	r.layer["study.retries"] = float64(untraced.retries+traced.retries) / campaigns
	r.layer["results.save_ms"] = median(all.save)
	if all.slots > 0 {
		r.layer["work.allocs_per_slot"] = float64(all.mallocs) / float64(all.slots)
		r.layer["work.alloc_bytes_per_slot"] = float64(all.allocBytes) / float64(all.slots)
	}
	return r.foldProfile(profile)
}

// memDelta brackets a campaign with allocation counters. It first
// collects the previous campaign's garbage, so every campaign starts
// from a collected heap as a fresh CLI process does, instead of paying
// for whatever collection its predecessor left running.
func memDelta(cs *campaignSet) func() {
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	return func() {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		cs.mallocs += m1.Mallocs - m0.Mallocs
		cs.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	}
}

// hashCounter is an io.Writer that hashes and counts what it is given.
type hashCounter struct {
	h hash.Hash
	n int64
}

func newHashCounter() *hashCounter { return &hashCounter{h: sha256.New()} }

func (c *hashCounter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return c.h.Write(p)
}

func (c *hashCounter) digest() string { return hex.EncodeToString(c.h.Sum(nil)) }

// runStudySeq is the study-seq workload (see workloads in main.go).
func runStudySeq(r *run) error {
	var worlds []study.Options
	for _, seed := range worldSeeds(r.seed) {
		worlds = append(worlds, study.Options{Seed: seed})
	}
	checked := false
	campaign := func(cs *campaignSet, n int) error {
		j := n % len(worlds)
		opts := worlds[j]
		w, err := study.Build(opts)
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		w.EnableFaults(faultsim.Lossy)
		rg := ring(w)
		mem := memDelta(cs)
		t0, stop := cs.clock(j)
		res, err := w.RunWith(study.RunConfig{Parallel: 1, Flight: rg})
		if err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		tSave := time.Now()
		env := newHashCounter()
		if err := results.Save(env, res, results.WithSeed(opts.Seed), results.WithFaultProfile(faultsim.Lossy.Name)); err != nil {
			return fmt.Errorf("saving envelope: %w", err)
		}
		end := stop()
		mem()
		cs.save = append(cs.save, ms(end.Sub(tSave)))
		cs.addFlight(rg.Snapshot(), t0)

		errs := []error{checkRing(rg), checkHealth(res)}
		if opts.Seed == paperSeed && !checked {
			// Later campaigns on the world must serialise to the same
			// digest, so its verdicts are checked once per run.
			errs = append(errs, checkHeadline(w, res))
			checked = true
		}
		skips := 0
		for _, q := range res.Quarantines {
			skips += len(q.SkippedVPs)
		}
		errs = append(errs,
			r.setExact(worldKey(j, "envelope_sha256"), env.digest()),
			r.setExact(worldKey(j, "work.envelope_bytes"), env.n),
			r.setExact(worldKey(j, "work.reports"), len(res.Reports)),
			r.setExact(worldKey(j, "work.connect_failures"), len(res.ConnectFailures)),
			r.setExact(worldKey(j, "work.recoveries"), len(res.Recoveries)),
			r.setExact(worldKey(j, "work.quarantine_skips"), skips),
			r.setExact(worldKey(j, "work.outcomes"), res.VPsAttempted),
			r.setExact(worldKey(j, "work.slots"), countKind(rg, flightrec.SlotFinish)),
			r.setExact(worldKey(j, "study.retries"), countKind(rg, flightrec.Retry)),
		)
		return errors.Join(errs...)
	}
	untraced, traced, profile, err := r.phases(worlds, campaign)
	if err != nil {
		return err
	}
	r.exactLayers()
	if r.trace {
		if err := r.probeLadder(worlds[0]); err != nil {
			return err
		}
	}
	return r.report(untraced, traced, profile)
}

// exactLayers reports each exact work counter as its sum over one
// campaign on every world of the run.
func (r *run) exactLayers() {
	for _, d := range perLayer {
		for j := 0; j < worldsPerRun; j++ {
			if v, ok := r.exact[worldKey(j, d.name)]; ok {
				var f float64
				if _, err := fmt.Sscan(v, &f); err == nil {
					r.layer[d.name] += f
				}
			}
		}
	}
}

func countKind(rg *flightrec.Ring, k flightrec.Kind) int {
	n := 0
	for _, e := range rg.Snapshot() {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// checkHealth is the collection-health identity: every attempted
// vantage point was measured, failed, or quarantine-skipped.
func checkHealth(res *study.Result) error {
	skips := 0
	for _, q := range res.Quarantines {
		skips += len(q.SkippedVPs)
	}
	n := len(res.Reports) + len(res.ConnectFailures) + skips
	return expect(n == res.VPsAttempted, "measured+failed+skipped = %d, attempted %d", n, res.VPsAttempted)
}

// checkHeadline checks the paper's headline verdicts on its world: only
// Seed4.me injects, 5 transparent proxies, 6 virtual-VP providers, DNS
// leakers Freedome VPN and WorldVPN, 12 IPv6 leakers, fail-open 25/43.
func checkHeadline(w *study.World, res *study.Result) error {
	rs := analysis.Slice(res.Reports)
	inj := analysis.Injections(rs)
	proxies := analysis.TransparentProxies(rs)
	lk := analysis.Leaks(rs)
	vv := analysis.DetectVirtualVPs(rs, w.Config)
	return errors.Join(
		expect(len(inj) == 1 && inj[0].Provider == "Seed4.me", "injecting providers %+v, want only Seed4.me", inj),
		expect(len(proxies) == 5, "transparent proxies %v, want 5", proxies),
		expect(len(vv.Providers) == 6, "virtual-VP providers %v, want 6", vv.Providers),
		expect(slices.Equal(lk.DNSLeakers, []string{"Freedome VPN", "WorldVPN"}),
			"DNS leakers %v, want Freedome VPN and WorldVPN", lk.DNSLeakers),
		expect(len(lk.IPv6Leakers) == 12, "IPv6 leakers %v, want 12", lk.IPv6Leakers),
		expect(len(lk.FailOpen) == 25 && lk.Applicable == 43, "fail-open %d/%d, want 25/43", len(lk.FailOpen), lk.Applicable),
	)
}

// runCatalogStream is the catalog-stream workload (see workloads in
// main.go).
func runCatalogStream(r *run) error {
	var worlds []study.Options
	var wants []int // outcomes per campaign on each world
	for _, seed := range worldSeeds(r.seed) {
		specs := ecosystem.CatalogSpecs(seed, ecosystem.BuildCatalog(seed), 0, 0)
		worlds = append(worlds, study.Options{Seed: seed, Providers: specs})
		want := 0
		for _, s := range specs {
			if s.Client != vpn.BrowserExtension {
				want += len(s.VantagePoints)
			}
		}
		wants = append(wants, want)
	}
	if wants[0] != paperCatalogOutcomes {
		return fmt.Errorf("catalog at seed %d has %d outcomes, want %d", paperSeed, wants[0], paperCatalogOutcomes)
	}
	var appends []float64
	var seal, merge, pass []float64
	campaign := func(cs *campaignSet, n int) error {
		j := n % len(worlds)
		opts, want := worlds[j], wants[j]
		dir := filepath.Join(r.work, fmt.Sprintf("outcomes-%d", n))
		defer os.RemoveAll(dir)
		lg, err := shardlog.Open(dir, shardlog.Meta{Seed: opts.Seed})
		if err != nil {
			return err
		}
		defer lg.Close()
		w, err := study.Build(opts)
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		rg := ring(w)
		reports := 0
		mem := memDelta(cs)
		t0, stop := cs.clock(j)
		stream := func(o study.Outcome) error {
			t := time.Now()
			err := lg.Append(o)
			appends = append(appends, float64(time.Since(t))/float64(time.Microsecond))
			if o.Report != nil {
				reports++
			}
			return err
		}
		res, err := w.RunWith(study.RunConfig{Parallel: runtime.NumCPU(), Stream: stream, Flight: rg})
		if err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		tSeal := time.Now()
		if err := lg.MarkComplete(); err != nil {
			return err
		}
		tMerge := time.Now()
		merged := 0
		if err := lg.Scan(func(study.Outcome) error { merged++; return nil }); err != nil {
			return fmt.Errorf("merged scan: %w", err)
		}
		tPass := time.Now()
		var scanErr error
		verdicts := analysis.VerdictSnapshot(lg.Reports(&scanErr))
		end := stop()
		mem()
		seal = append(seal, ms(tMerge.Sub(tSeal)))
		merge = append(merge, tPass.Sub(tMerge).Seconds())
		pass = append(pass, end.Sub(tPass).Seconds())
		cs.addFlight(rg.Snapshot(), t0)

		digest := newHashCounter()
		if err := lg.WriteMergedNDJSON(digest); err != nil {
			return fmt.Errorf("merged digest: %w", err)
		}
		skips := 0
		for _, q := range res.Quarantines {
			skips += len(q.SkippedVPs)
		}
		return errors.Join(
			checkRing(rg),
			expect(scanErr == nil, "analysis pass: %v", scanErr),
			expect(merged == res.VPsAttempted && merged == want,
				"merged %d outcomes, campaign attempted %d, catalog has %d", merged, res.VPsAttempted, want),
			expect(len(verdicts) > 0, "analysis pass saw no providers"),
			r.setExact(worldKey(j, "merged_sha256"), digest.digest()),
			r.setExact(worldKey(j, "work.log_bytes"), digest.n),
			r.setExact(worldKey(j, "work.outcomes"), merged),
			r.setExact(worldKey(j, "work.reports"), reports),
			r.setExact(worldKey(j, "work.connect_failures"), len(res.ConnectFailures)),
			r.setExact(worldKey(j, "work.recoveries"), len(res.Recoveries)),
			r.setExact(worldKey(j, "work.quarantine_skips"), skips),
			r.setExact(worldKey(j, "work.slots"), countKind(rg, flightrec.SlotFinish)),
		)
	}
	untraced, traced, profile, err := r.phases(worlds, campaign)
	if err != nil {
		return err
	}
	log.Printf("catalog: %v outcomes per campaign on the run's worlds", wants)
	r.exactLayers()
	if r.trace {
		r.layer["shardlog.append_us_p50"] = median(appends)
		r.layer["shardlog.append_us_p90"] = percentile(appends, 0.9)
		r.layer["shardlog.seal_ms"] = median(seal)
		r.layer["shardlog.merge_s"] = median(merge)
		r.layer["analysis.pass_s"] = median(pass)
		if err := r.probeLadder(worlds[0]); err != nil {
			return err
		}
	}
	return r.report(untraced, traced, profile)
}
