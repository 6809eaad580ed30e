package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vpnscope/internal/server"
)

const (
	daemonClients = 2  // closed-loop clients, one campaign in flight each
	daemonQueue   = 16 // vpnscoped -queue
	// daemonFlightEvents is vpnscoped -flightrec-events: a small campaign
	// records a few dozen events, and the daemon keeps every campaign's
	// ring, so the default 4096-event rings would make a run of a few
	// thousand campaigns hold gigabytes. The dumps are checked for drops.
	daemonFlightEvents = 256
	// rssAtCampaign is the completed-campaign count at which the daemon's
	// VmHWM is read: the daemon keeps every campaign's state, so its peak
	// grows with campaigns served and is compared at a fixed count. A run
	// that completes fewer fails. A 25 s run on 2 vCPUs completes 900 to
	// 3100, depending on how much CPU the hypervisor steals.
	rssAtCampaign = 500
	// statsCampaigns is the prefix of the spec schedule whose work
	// counters are reported; every run completes it.
	statsCampaigns = 20
)

// daemonProviders are the tested providers the small campaigns cycle
// through: custom clients with every test applicable, so each campaign
// runs the full suite on its two vantage points.
var daemonProviders = []string{"ExpressVPN", "NordVPN", "ProtonVPN", "Windscribe"}

// daemonSpec is campaign i of the schedule derived from seed. Even
// campaigns (and campaign 1) draw a fresh world seed, so their world
// build misses the daemon's template cache; every other odd campaign
// repeats the spec of campaign i-3, which has finished by then in a
// two-client closed loop, and hits it.
func daemonSpec(seed uint64, i int) server.CampaignSpec {
	if i%2 == 1 && i >= 3 {
		return daemonSpec(seed, i-3)
	}
	return server.CampaignSpec{
		Seed:           splitmix(seed ^ uint64(i)*0x9e3779b97f4a7c15),
		Providers:      []string{daemonProviders[(i/2)%len(daemonProviders)]},
		FaultProfile:   "lossy",
		Workers:        1,
		VPsPerProvider: 2,
		ExtraTLSHosts:  5,
		LandmarkCount:  10,
	}
}

func templateHit(i int) bool { return i%2 == 1 && i >= 3 }

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return (x ^ (x >> 31)) >> 11 // keep seeds exact in any JSON reader
}

// daemonProc is a running daemon subprocess.
type daemonProc struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	startup time.Duration // wall time from exec to the listening line
	waited  chan error
}

// startDaemon execs a daemon over a fresh state dir and waits for its
// "listening on" line.
func startDaemon(name string, args []string) (*daemonProc, error) {
	cmd := exec.Command(name, args...)
	cmd.Stdout = os.Stderr
	// A vpnbench that dies before stop must not leave its daemon behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemonProc{cmd: cmd, waited: make(chan error, 1)}
	ready := make(chan string, 1)
	var copied sync.WaitGroup
	copied.Add(1)
	go func() {
		defer copied.Done()
		sc := bufio.NewScanner(pipe)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok && !announced {
				addr, _, _ := strings.Cut(rest, " ")
				ready <- addr
				announced = true
				continue
			}
			if strings.Contains(line, "FAIL") || strings.Contains(line, "panic") || strings.Contains(line, "watchdog") {
				log.Printf("daemon: %s", line)
			}
		}
	}()
	go func() {
		copied.Wait() // the pipe must be drained before Wait closes it
		d.waited <- cmd.Wait()
	}()
	select {
	case addr := <-ready:
		d.startup = time.Since(t0)
		d.base = "http://" + addr
		return d, nil
	case err := <-d.waited:
		return nil, fmt.Errorf("daemon exited before listening: %v", err)
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		<-d.waited
		return nil, errors.New("daemon did not report listening within 60s")
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemonProc) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-d.waited:
		return err
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.waited
		return errors.New("daemon did not drain within 60s")
	}
}

// serveProfiled runs the daemon in this process exactly as vpnscoped
// does with the flags daemon-small passes, with a CPU profile over its
// whole life and its allocation counters written at exit. The traced
// daemon-small run execs vpnbench in this mode instead of vpnscoped.
func serveProfiled(state, profile, memPath string) error {
	log.SetPrefix("vpnscoped: ")
	stop, err := startCPUProfile(profile)
	if err != nil {
		return err
	}
	serveErr := server.Serve(server.ServeConfig{
		Config: server.Config{
			StateDir:     state,
			QueueBound:   daemonQueue,
			FlightEvents: daemonFlightEvents,
			DrainGrace:   2 * time.Second,
			RetryAfter:   2 * time.Second,
			Logf:         log.Printf,
		},
		Addr: "127.0.0.1:0",
	})
	if err := stop(); err != nil {
		return err
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	raw, err := json.Marshal(map[string]uint64{"mallocs": m.Mallocs, "total_alloc": m.TotalAlloc})
	if err != nil {
		return err
	}
	if err := os.WriteFile(memPath, raw, 0o644); err != nil {
		return err
	}
	return serveErr
}

// submission is one closed-loop campaign as the client saw it.
type submission struct {
	i                     int
	spec                  server.CampaignSpec
	id                    string
	post, admitted, first time.Time // POST sent, 202 received, first committed slot
	done                  time.Time
	rejected              bool // admission answered 429
	err                   error
}

// daemonArgs returns the command that starts a daemon over state:
// vpnscoped itself, or in the traced run vpnbench in serve mode with
// a CPU profile.
func (r *run) daemonArgs(state string) (string, []string, error) {
	if r.trace {
		self, err := os.Executable()
		if err != nil {
			return "", nil, err
		}
		return self, []string{"-serve-state", state,
			"-serve-cpuprofile", state + ".pprof",
			"-serve-memstats", state + ".mem.json"}, nil
	}
	if r.daemonBin == "" {
		return "", nil, errors.New("the daemon needs -daemon-bin")
	}
	return r.daemonBin, []string{"-state", state, "-addr", "127.0.0.1:0",
		"-queue", strconv.Itoa(daemonQueue), "-flightrec-events", strconv.Itoa(daemonFlightEvents)}, nil
}

// timeStarts times n daemon starts, each over a fresh state dir, from
// exec to the listening line, and appends them to startups in seconds.
func (r *run) timeStarts(startups []float64, n int) ([]float64, error) {
	for i := 0; i < n; i++ {
		state := filepath.Join(r.work, fmt.Sprintf("state-setup-%d", len(startups)))
		name, args, err := r.daemonArgs(state)
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(name, args)
		if err != nil {
			return nil, err
		}
		startups = append(startups, d.startup.Seconds())
		if err := d.stop(); err != nil {
			return nil, fmt.Errorf("stopping set-up daemon: %w", err)
		}
		os.RemoveAll(state)
	}
	return startups, nil
}

// runDaemonSmall is the daemon-small workload (see workloads in
// main.go).
func runDaemonSmall(r *run) error {
	// Set-up: half the daemon starts are timed before the load and half
	// after it, so that setup_s is not one moment's reading of the host.
	startups, err := r.timeStarts(nil, setupRepeats/2)
	if err != nil {
		return err
	}
	dl, err := r.daemonLoad()
	if err != nil {
		return err
	}
	if startups, err = r.timeStarts(startups, setupRepeats/2); err != nil {
		return err
	}
	r.e2e["setup_s"] = median(startups)
	log.Printf("set-up: daemon start wall %v", quartiles(startups))

	r.e2e["campaign_ms"] = median(dl.lat) * (1 - dl.steal)
	r.e2e["campaign_cpu_ms"] = dl.cpuPerCampaign
	r.e2e["peak_rss_mb"] = dl.rss
	r.setWall(median(dl.lat), percentile(dl.lat, 0.9), median(dl.ttfr), dl.perSecond)
	if !r.trace {
		return nil
	}
	r.layer["server.admit_ms_p50"] = median(dl.admit)
	r.layer["server.start_ms_p50"] = median(dl.start)
	r.layer["server.start_hit_ms_p50"] = median(dl.startHit)
	r.layer["server.start_miss_ms_p50"] = median(dl.startMiss)
	r.layer["server.first_slot_ms_p50"] = median(dl.firstSlot)
	r.layer["server.seal_ms_p50"] = median(dl.seal)
	r.layer["server.rejected"] = float64(dl.rejected)
	r.layer["results.checkpoint_ms_p50"] = median(dl.ckptMs)
	r.layer["results.checkpoint_bytes"] = median(dl.ckptBytes)
	// Exact because each spec's slots and envelope are gated in
	// daemonLoad.
	r.layer["work.slots"] = float64(dl.work.slots)
	r.layer["work.reports"] = float64(dl.work.reports)
	r.layer["work.connect_failures"] = float64(dl.work.failures)
	r.layer["work.recoveries"] = float64(dl.work.recoveries)
	r.layer["work.quarantine_skips"] = float64(dl.work.skips)
	r.layer["work.outcomes"] = float64(dl.work.outcomes)
	r.layer["work.envelope_bytes"] = float64(dl.work.envelopeBytes)
	r.layer["slot.wall_ms_p50"] = median(dl.slotWall)
	r.layer["slot.wall_ms_p90"] = percentile(dl.slotWall, 0.9)
	r.layer["study.retries"] = float64(dl.retries) / float64(len(dl.lat))
	if raw, err := os.ReadFile(filepath.Join(r.work, "state.mem.json")); err == nil && dl.slots > 0 {
		var m map[string]uint64
		if err := json.Unmarshal(raw, &m); err == nil {
			r.layer["work.allocs_per_slot"] = float64(m["mallocs"]) / float64(dl.slots)
			r.layer["work.alloc_bytes_per_slot"] = float64(m["total_alloc"]) / float64(dl.slots)
		}
	}
	return r.foldProfile(filepath.Join(r.work, "state.pprof"))
}

// loadPhase is one closed-loop phase against a fresh daemon: the
// latencies the clients saw, the stages and checkpoints from each
// campaign's flight dump, and the exact work of the schedule prefix.
type loadPhase struct {
	lat, ttfr, admit                  []float64 // ms per campaign
	start, startHit, startMiss        []float64 // ms per campaign
	firstSlot, seal, ckptMs, slotWall []float64 // ms
	ckptBytes                         []float64
	perSecond, rss                    float64
	cpuPerCampaign                    float64 // daemon CPU ms per completed campaign
	steal                             float64 // stolen share of busy host CPU over the load
	retries, slots, rejected          int
	work                              workCounts
}

// daemonLoad starts a daemon, drives it with the closed loop for the
// run's budget, checks every sealed result against its one-shot
// reference, and stops the daemon.
func (r *run) daemonLoad() (*loadPhase, error) {
	r.binaries = append(r.binaries, r.daemonBin)
	state := filepath.Join(r.work, "state")
	defer os.RemoveAll(state)
	name, args, err := r.daemonArgs(state)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(name, args)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: daemonClients, DisableCompression: true}}
	defer hc.CloseIdleConnections()

	// The closed loop: each client submits, follows the event stream to
	// done, and submits again until the budget is spent.
	var (
		mu       sync.Mutex
		subs     []*submission
		next     int
		rss      float64
		rssErr   error
		finished int
	)
	pid := strconv.Itoa(d.cmd.Process.Pid)
	cpu0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	ticks0 := hostTicks()
	loadStart := time.Now()
	deadline := loadStart.Add(r.seconds)
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				s := &submission{i: i, spec: daemonSpec(r.seed, i)}
				s.err = submit(hc, d.base, s)
				mu.Lock()
				subs = append(subs, s)
				if s.err == nil {
					finished++
					if finished == rssAtCampaign {
						rss, rssErr = vmHWM(pid)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	steal := stealShare(ticks0, hostTicks())
	cpu1, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	if finished < rssAtCampaign {
		// A peak read earlier would compare a smaller daemon state.
		r.op(fmt.Errorf("only %d campaigns completed, fewer than the %d peak_rss_mb is read at", finished, rssAtCampaign))
		rss, rssErr = vmHWM(pid)
	}
	if rssErr != nil {
		return nil, rssErr
	}

	// Outside timing: fetch every sealed result and flight dump.
	dl := &loadPhase{rss: rss, steal: steal}
	if finished > 0 {
		dl.cpuPerCampaign = ms(cpu1-cpu0) / float64(finished)
	}
	envelopes := map[int][32]byte{} // sha256 of each sealed result
	flights := map[int][]flightLine{}
	var lastDone time.Time
	for _, s := range subs {
		if s.err == nil {
			var body []byte
			body, s.err = httpGet(hc, d.base+"/campaigns/"+s.id+"/result")
			envelopes[s.i] = sha256.Sum256(body)
		}
		if s.err == nil {
			var fl []flightLine
			fl, s.err = fetchFlight(hc, d.base, s.id)
			flights[s.i] = fl
		}
		if s.rejected {
			dl.rejected++
		}
		if s.err != nil {
			continue
		}
		if s.done.After(lastDone) {
			lastDone = s.done
		}
		dl.lat = append(dl.lat, ms(s.done.Sub(s.post)))
		dl.ttfr = append(dl.ttfr, ms(s.first.Sub(s.post)))
		dl.admit = append(dl.admit, ms(s.admitted.Sub(s.post)))
		st := stagesOf(flights[s.i])
		dl.slots += st.slots
		dl.retries += st.retries
		dl.slotWall = append(dl.slotWall, st.slotWall...)
		dl.ckptMs = append(dl.ckptMs, st.checkpoints...)
		if st.firstStart > 0 && st.firstCommit > 0 && st.done > 0 && st.lastCkpt > 0 {
			sMs := ms(time.Duration(st.firstStart - s.admitted.UnixNano()))
			dl.start = append(dl.start, sMs)
			if templateHit(s.i) {
				dl.startHit = append(dl.startHit, sMs)
			} else {
				dl.startMiss = append(dl.startMiss, sMs)
			}
			dl.firstSlot = append(dl.firstSlot, ms(time.Duration(st.firstCommit-st.firstStart)))
			dl.seal = append(dl.seal, ms(time.Duration(st.done-st.lastCkpt)))
		}
		if fi, err := os.Stat(filepath.Join(state, s.id+".ckpt.json")); err == nil {
			dl.ckptBytes = append(dl.ckptBytes, float64(fi.Size()))
		}
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping daemon: %w", err)
	}
	if len(dl.lat) == 0 {
		return nil, errors.New("no campaign completed")
	}
	dl.perSecond = float64(len(dl.lat)) / lastDone.Sub(loadStart).Seconds()
	log.Printf("daemon: %d campaigns submitted, %d completed in %.1fs, %.1f%% of busy host CPU stolen", len(subs), len(dl.lat), lastDone.Sub(loadStart).Seconds(), 100*steal)

	// Correctness: every sealed result equals the one-shot reference of
	// its spec, computed once per distinct spec, outside timing.
	var specs []server.CampaignSpec
	for _, s := range subs {
		if s.err == nil {
			specs = append(specs, s.spec)
		}
	}
	refs := oneShots(specs)
	for _, s := range subs {
		if s.err == nil {
			key := specKey(s.spec)
			ref := refs[key]
			s.err = errors.Join(ref.err,
				expect(ref.err != nil || envelopes[s.i] == ref.sha,
					"campaign %s (spec %d) result differs from its one-shot reference", s.id, s.i),
				r.setExact("spec-"+key+".envelope_sha256", hex.EncodeToString(ref.sha[:])),
				r.setExact("spec-"+key+".slots", stagesOf(flights[s.i]).slots))
			if s.i < statsCampaigns && ref.err == nil {
				dl.work.add(ref, stagesOf(flights[s.i]).slots)
			}
		}
		r.op(s.err)
	}
	if next < statsCampaigns {
		r.op(fmt.Errorf("only %d campaigns submitted, fewer than the %d whose work is reported", next, statsCampaigns))
	}
	return dl, nil
}

// submit runs one campaign through the daemon: POST the spec, then
// follow its event stream until the done event.
func submit(hc *http.Client, base string, s *submission) error {
	body, err := json.Marshal(s.spec)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	s.post = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/campaigns", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.admitted = time.Now()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		s.rejected = resp.StatusCode == http.StatusTooManyRequests
		return fmt.Errorf("submit %d: status %d: %s", s.i, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var acc struct{ ID string }
	if err := json.Unmarshal(raw, &acc); err != nil || acc.ID == "" {
		return fmt.Errorf("submit %d: bad 202 body %q", s.i, raw)
	}
	s.id = acc.ID

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/campaigns/"+s.id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err = hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var ev server.Event
		if err := dec.Decode(&ev); err != nil {
			return fmt.Errorf("campaign %s: event stream ended without done: %v", s.id, err)
		}
		switch ev.Type {
		case "progress":
			if s.first.IsZero() {
				s.first = time.Now()
			}
		case "done":
			s.done = time.Now()
			if s.first.IsZero() {
				return fmt.Errorf("campaign %s: done without a committed slot", s.id)
			}
			// The stream ends right after done; reading it to EOF lets the
			// client reuse its one connection for the next campaign.
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		case "failed", "interrupted":
			return fmt.Errorf("campaign %s: %s: %s", s.id, ev.Type, ev.Detail)
		}
	}
}

func httpGet(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// flightLine is one event of a flight-recorder NDJSON dump.
type flightLine struct {
	WallNs int64  `json:"wall_ns"`
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
	V1     int64  `json:"v1"`
}

func fetchFlight(hc *http.Client, base, id string) ([]flightLine, error) {
	body, err := httpGet(hc, base+"/debugz/flightrec?campaign="+id)
	if err != nil {
		return nil, err
	}
	var out []flightLine
	dec := json.NewDecoder(bytes.NewReader(body))
	var hdr struct{ Dropped uint64 }
	if err := dec.Decode(&hdr); err != nil {
		return nil, err
	}
	if hdr.Dropped > 0 {
		return nil, fmt.Errorf("campaign %s: flight recorder dropped %d events", id, hdr.Dropped)
	}
	for dec.More() {
		var l flightLine
		if err := dec.Decode(&l); err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	return out, nil
}

// stages are a daemon campaign's stage stamps from its flight dump.
type stages struct {
	firstStart, firstCommit, lastCkpt, done int64 // wall ns
	checkpoints, slotWall                   []float64
	slots, retries                          int
}

func stagesOf(fl []flightLine) stages {
	var st stages
	for _, l := range fl {
		switch l.Kind {
		case "slot_start":
			if st.firstStart == 0 {
				st.firstStart = l.WallNs
			}
		case "slot_finish":
			st.slots++
			st.slotWall = append(st.slotWall, ms(time.Duration(l.V1)))
		case "retry":
			st.retries++
		case "commit":
			if st.firstCommit == 0 {
				st.firstCommit = l.WallNs
			}
		case "checkpoint":
			st.lastCkpt = l.WallNs
			st.checkpoints = append(st.checkpoints, ms(time.Duration(l.V1)))
		case "state":
			if l.Detail == string(server.StateDone) {
				st.done = l.WallNs
			}
		}
	}
	return st
}

// reference is a spec's one-shot result, the daemon's correctness
// currency.
type reference struct {
	sha    [32]byte
	counts workCounts
	err    error
}

func specKey(s server.CampaignSpec) string {
	raw, _ := json.Marshal(s)
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:6])
}

// oneShots computes the reference of every distinct spec of specs, keyed
// by specKey, on nproc workers.
func oneShots(specs []server.CampaignSpec) map[string]*reference {
	refs := map[string]*reference{}
	var distinct []server.CampaignSpec
	for _, s := range specs {
		if key := specKey(s); refs[key] == nil {
			refs[key] = &reference{}
			distinct = append(distinct, s)
		}
	}
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(distinct) {
					return
				}
				ref := oneShot(distinct[i])
				mu.Lock()
				refs[specKey(distinct[i])] = ref
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return refs
}

func oneShot(spec server.CampaignSpec) *reference {
	res, err := server.RunOneShot(context.Background(), spec)
	if err != nil {
		return &reference{err: fmt.Errorf("one-shot reference: %w", err)}
	}
	env, err := server.EnvelopeBytes(spec, res)
	if err != nil {
		return &reference{err: fmt.Errorf("one-shot envelope: %w", err)}
	}
	ref := &reference{sha: sha256.Sum256(env)}
	ref.counts.reports = len(res.Reports)
	ref.counts.failures = len(res.ConnectFailures)
	ref.counts.recoveries = len(res.Recoveries)
	for _, q := range res.Quarantines {
		ref.counts.skips += len(q.SkippedVPs)
	}
	ref.counts.outcomes = res.VPsAttempted
	ref.counts.envelopeBytes = len(env)
	return ref
}

// workCounts sums exact work over the fixed schedule prefix.
type workCounts struct {
	slots, reports, failures, recoveries, skips, outcomes, envelopeBytes int
}

func (w *workCounts) add(ref *reference, slots int) {
	w.slots += slots
	w.reports += ref.counts.reports
	w.failures += ref.counts.failures
	w.recoveries += ref.counts.recoveries
	w.skips += ref.counts.skips
	w.outcomes += ref.counts.outcomes
	w.envelopeBytes += ref.counts.envelopeBytes
}
