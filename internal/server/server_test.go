// In-process tests for the daemon's admission, backpressure, quota,
// isolation, cancellation, drain, and recovery behavior. These swap the
// buildWorldFn/runStudyFn seams for deterministic stand-ins; the real
// measurement engine is exercised end-to-end by chaos_test.go and
// TestDaemonRealCampaign* below.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"vpnscope/internal/netsim"
	"vpnscope/internal/results/shardlog"
	"vpnscope/internal/study"
)

// withSeams swaps the world-build and study-run seams for the duration
// of the test. Tests using seams must not run in parallel.
func withSeams(t *testing.T, build func(*CampaignSpec, int) (*study.World, error), run func(*study.World, study.RunConfig) (*study.Result, error)) {
	t.Helper()
	origBuild, origRun := buildWorldFn, runStudyFn
	if build != nil {
		buildWorldFn = build
	}
	if run != nil {
		runStudyFn = run
	}
	t.Cleanup(func() { buildWorldFn, runStudyFn = origBuild, origRun })
}

// instantWorld is a build seam returning an empty world (zero slots).
func instantWorld(*CampaignSpec, int) (*study.World, error) { return &study.World{}, nil }

// blockingRun returns a run seam that parks until release is closed or
// the campaign context is canceled — the deterministic way to hold
// fleet tokens while admission behavior is probed.
func blockingRun(release <-chan struct{}) func(*study.World, study.RunConfig) (*study.Result, error) {
	return func(_ *study.World, cfg study.RunConfig) (*study.Result, error) {
		select {
		case <-release:
			return &study.Result{}, nil
		case <-cfg.Ctx.Done():
			return nil, fmt.Errorf("%w: %w", study.ErrCanceled, cfg.Ctx.Err())
		}
	}
}

func newTestDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	t.Cleanup(d.Drain)
	return d
}

// waitState polls until the campaign reaches want (or fails the test).
func waitState(t *testing.T, c *campaign, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		got, errText := c.state, c.errText
		c.mu.Unlock()
		if got == want {
			return
		}
		if got.terminal() && !want.terminal() {
			t.Fatalf("campaign %s reached terminal state %s (err %q) waiting for %s", c.id, got, errText, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached state %s", c.id, want)
}

func submitOK(t *testing.T, d *Daemon, spec CampaignSpec) *campaign {
	t.Helper()
	c, err := d.Submit(spec)
	if err != nil {
		t.Fatalf("Submit(%+v): %v", spec, err)
	}
	return c
}

func TestSubmitValidation(t *testing.T) {
	d := newTestDaemon(t, Config{})
	cases := []CampaignSpec{
		{Providers: []string{"NoSuchProvider"}},
		{FaultProfile: "apocalyptic"},
		{TimeoutSec: -1},
	}
	for _, spec := range cases {
		_, err := d.Submit(spec)
		var se *SubmitError
		if !errors.As(err, &se) || se.Status != 400 {
			t.Errorf("Submit(%+v) = %v, want 400 SubmitError", spec, err)
		}
	}
}

func TestBackpressureQueueBound(t *testing.T) {
	release := make(chan struct{})
	withSeams(t, instantWorld, blockingRun(release))
	d := newTestDaemon(t, Config{QueueBound: 2, FleetWorkers: 1, RetryAfter: 3 * time.Second})

	// One campaign occupies the whole fleet; two more fill the queue.
	running := submitOK(t, d, CampaignSpec{Seed: 1, Workers: 1})
	waitState(t, running, StateRunning)
	q1 := submitOK(t, d, CampaignSpec{Seed: 2, Workers: 1})
	q2 := submitOK(t, d, CampaignSpec{Seed: 3, Workers: 1})

	// The next submission must be refused with 429 + Retry-After, both
	// at the library and the HTTP surface.
	_, err := d.Submit(CampaignSpec{Seed: 4})
	var se *SubmitError
	if !errors.As(err, &se) || se.Status != 429 || se.RetryAfter != 3*time.Second {
		t.Fatalf("Submit over bound = %v, want 429 with Retry-After 3s", err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/campaigns", "application/json", strings.NewReader(`{"seed":4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("POST over bound = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", got)
	}

	// Releasing the fleet drains the queue FIFO and reopens admission.
	close(release)
	for _, c := range []*campaign{running, q1, q2} {
		waitState(t, c, StateDone)
	}
	late := submitOK(t, d, CampaignSpec{Seed: 5})
	waitState(t, late, StateDone)
}

func TestTenantQuota(t *testing.T) {
	release := make(chan struct{})
	withSeams(t, instantWorld, blockingRun(release))
	d := newTestDaemon(t, Config{FleetWorkers: 4, MaxPerTenant: 1})

	a1 := submitOK(t, d, CampaignSpec{Seed: 1, Tenant: "alpha"})
	_, err := d.Submit(CampaignSpec{Seed: 2, Tenant: "alpha"})
	var se *SubmitError
	if !errors.As(err, &se) || se.Status != 429 {
		t.Fatalf("second alpha campaign = %v, want 429", err)
	}
	b1 := submitOK(t, d, CampaignSpec{Seed: 3, Tenant: "beta"})

	// Quota frees up once the tenant's campaign finishes.
	close(release)
	waitState(t, a1, StateDone)
	waitState(t, b1, StateDone)
	a2 := submitOK(t, d, CampaignSpec{Seed: 4, Tenant: "alpha"})
	waitState(t, a2, StateDone)
}

func TestPanicIsolation(t *testing.T) {
	withSeams(t, instantWorld, func(_ *study.World, cfg study.RunConfig) (*study.Result, error) {
		panic("poisoned campaign")
	})
	d := newTestDaemon(t, Config{FleetWorkers: 2})
	poison := submitOK(t, d, CampaignSpec{Seed: 1})
	waitState(t, poison, StateFailed)
	poison.mu.Lock()
	errText := poison.errText
	poison.mu.Unlock()
	if !strings.Contains(errText, "panic: poisoned campaign") {
		t.Fatalf("errText = %q, want panic detail", errText)
	}
	// The failure is durable: recovery must never resurrect it.
	if _, err := os.Stat(d.errorPath(poison.id)); err != nil {
		t.Fatalf("error marker missing: %v", err)
	}

	// The daemon survives: the fleet tokens came back and a healthy
	// campaign completes.
	withSeams(t, instantWorld, func(*study.World, study.RunConfig) (*study.Result, error) {
		return &study.Result{}, nil
	})
	healthy := submitOK(t, d, CampaignSpec{Seed: 2})
	waitState(t, healthy, StateDone)
}

func TestClientCancelRunning(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	withSeams(t, instantWorld, blockingRun(release))
	d := newTestDaemon(t, Config{FleetWorkers: 1})
	c := submitOK(t, d, CampaignSpec{Seed: 1})
	waitState(t, c, StateRunning)
	if err := d.Cancel(c.id); err != nil {
		t.Fatal(err)
	}
	waitState(t, c, StateFailed)
	c.mu.Lock()
	errText := c.errText
	c.mu.Unlock()
	if !strings.Contains(errText, "canceled by client") {
		t.Fatalf("errText = %q, want client cancellation", errText)
	}
}

func TestClientCancelQueued(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	withSeams(t, instantWorld, blockingRun(release))
	d := newTestDaemon(t, Config{FleetWorkers: 1})
	running := submitOK(t, d, CampaignSpec{Seed: 1})
	waitState(t, running, StateRunning)
	queued := submitOK(t, d, CampaignSpec{Seed: 2})
	if err := d.Cancel(queued.id); err != nil {
		t.Fatal(err)
	}
	waitState(t, queued, StateFailed)
	// A canceled queued campaign must never reach the scheduler.
	select {
	case <-queued.done:
		t.Fatal("queued campaign's runner ran despite cancellation")
	default:
	}
}

func TestDeadlineExceeded(t *testing.T) {
	never := make(chan struct{})
	defer close(never)
	withSeams(t, instantWorld, blockingRun(never))
	d := newTestDaemon(t, Config{FleetWorkers: 1})
	c := submitOK(t, d, CampaignSpec{Seed: 1, TimeoutSec: 0.05})
	waitState(t, c, StateFailed)
	c.mu.Lock()
	errText := c.errText
	c.mu.Unlock()
	if !strings.Contains(errText, "deadline exceeded") {
		t.Fatalf("errText = %q, want deadline exceeded", errText)
	}
}

func TestDrainInterruptsAndRecoveryRequeues(t *testing.T) {
	release := make(chan struct{})
	withSeams(t, instantWorld, blockingRun(release))
	stateDir := t.TempDir()
	d := newTestDaemon(t, Config{StateDir: stateDir, FleetWorkers: 1})
	running := submitOK(t, d, CampaignSpec{Seed: 1})
	waitState(t, running, StateRunning)
	queued := submitOK(t, d, CampaignSpec{Seed: 2})

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	drained := make(chan struct{})
	go func() {
		d.Drain()
		close(drained)
	}()
	// Admission closes as soon as draining is set.
	deadline := time.Now().Add(5 * time.Second)
	for !d.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("daemon never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	_, err := d.Submit(CampaignSpec{Seed: 3})
	var se *SubmitError
	if !errors.As(err, &se) || se.Status != 503 {
		t.Fatalf("Submit while draining = %v, want 503", err)
	}
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz while draining = %d, want 200", resp.StatusCode)
	}

	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("drain never finished")
	}
	waitState(t, running, StateInterrupted)
	if got := queued.status().State; got != StateQueued {
		t.Fatalf("queued campaign after drain = %s, want still queued", got)
	}

	// A fresh daemon over the same state dir re-queues both in-flight
	// campaigns — in admission order — and finishes them.
	withSeams(t, instantWorld, func(*study.World, study.RunConfig) (*study.Result, error) {
		return &study.Result{}, nil
	})
	d2 := newTestDaemon(t, Config{StateDir: stateDir, FleetWorkers: 1})
	r1, ok := d2.Campaign(running.id)
	if !ok {
		t.Fatalf("campaign %s not recovered", running.id)
	}
	r2, ok := d2.Campaign(queued.id)
	if !ok {
		t.Fatalf("campaign %s not recovered", queued.id)
	}
	waitState(t, r1, StateDone)
	waitState(t, r2, StateDone)
	close(release)
}

func TestRecoveryPreservesTerminalStates(t *testing.T) {
	withSeams(t, instantWorld, func(_ *study.World, cfg study.RunConfig) (*study.Result, error) {
		return &study.Result{}, nil
	})
	stateDir := t.TempDir()
	d := newTestDaemon(t, Config{StateDir: stateDir, FleetWorkers: 1})
	done := submitOK(t, d, CampaignSpec{Seed: 1})
	waitState(t, done, StateDone)

	withSeams(t, instantWorld, func(*study.World, study.RunConfig) (*study.Result, error) {
		return nil, errors.New("synthetic run failure")
	})
	failed := submitOK(t, d, CampaignSpec{Seed: 2})
	waitState(t, failed, StateFailed)
	d.Drain()

	d2 := newTestDaemon(t, Config{StateDir: stateDir, FleetWorkers: 1})
	if c, ok := d2.Campaign(done.id); !ok || c.status().State != StateDone {
		t.Fatalf("done campaign not recovered as done")
	}
	c, ok := d2.Campaign(failed.id)
	if !ok || c.status().State != StateFailed {
		t.Fatalf("failed campaign not recovered as failed")
	}
	if !strings.Contains(c.status().Error, "synthetic run failure") {
		t.Fatalf("recovered error = %q, want original detail", c.status().Error)
	}
}

func TestEventsStreamAndResultEndpoint(t *testing.T) {
	cf := study.ConnectFailure{Provider: "P", VPLabel: "p-1 (US)", Err: "refused", Attempts: 3}
	withSeams(t, instantWorld, func(_ *study.World, cfg study.RunConfig) (*study.Result, error) {
		if err := cfg.Stream(study.Outcome{Rank: 0, Failure: &cf}); err != nil {
			return nil, err
		}
		return &study.Result{VPsAttempted: 1}, nil
	})
	d := newTestDaemon(t, Config{FleetWorkers: 1})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/campaigns", "application/json", strings.NewReader(`{"seed":9}`))
	if err != nil {
		t.Fatal(err)
	}
	var accepted map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	c, ok := d.Campaign(accepted["id"])
	if !ok {
		t.Fatalf("unknown id %q", accepted["id"])
	}
	waitState(t, c, StateDone)

	// The event stream replays the full lifecycle and terminates.
	resp, err = http.Get(srv.URL + accepted["events"])
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var types []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		types = append(types, ev.Type)
	}
	want := []string{"queued", "started", "progress", "done"}
	if fmt.Sprint(types) != fmt.Sprint(want) {
		t.Fatalf("event types = %v, want %v", types, want)
	}

	// The result endpoint serves exactly the envelope bytes the spec
	// would produce anywhere else.
	resp, err = http.Get(srv.URL + accepted["result"])
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("result = %d, want 200", resp.StatusCode)
	}
	wantEnv, err := EnvelopeBytes(CampaignSpec{Seed: 9},
		&study.Result{VPsAttempted: 1, ConnectFailures: []study.ConnectFailure{cf}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body.Bytes(), wantEnv) {
		t.Fatalf("result bytes differ from envelope (%d vs %d bytes)", body.Len(), len(wantEnv))
	}

	// Every campaign has an outcome log, so the outcomes endpoint serves
	// this one's single streamed outcome.
	resp, err = http.Get(srv.URL + accepted["outcomes"])
	if err != nil {
		t.Fatal(err)
	}
	var o study.Outcome
	err = json.NewDecoder(resp.Body).Decode(&o)
	resp.Body.Close()
	if resp.StatusCode != 200 || err != nil || o.Failure == nil || *o.Failure != cf {
		t.Fatalf("outcomes = %d %+v (%v), want 200 with the streamed failure", resp.StatusCode, o, err)
	}
}

// TestDaemonRealCampaignDrainResumeByteIdentical runs the real engine:
// a campaign is interrupted mid-run by a drain, a second daemon resumes
// its outcome log, and the final envelope is byte-identical to the same
// spec run uninterrupted in one shot.
func TestDaemonRealCampaignDrainResumeByteIdentical(t *testing.T) {
	spec := CampaignSpec{
		Seed:           11,
		Providers:      []string{"Mullvad", "NordVPN"},
		FaultProfile:   "lossy",
		Workers:        2,
		VPsPerProvider: 3,
		ExtraTLSHosts:  10,
		LandmarkCount:  20,
	}
	stateDir := t.TempDir()
	d := newTestDaemon(t, Config{StateDir: stateDir, FleetWorkers: 2})
	c := submitOK(t, d, spec)

	// Wait for at least one committed slot so the drain interrupts a
	// campaign with a real outcome log to resume.
	deadline := time.Now().Add(30 * time.Second)
	for c.status().SlotsDone < 1 {
		if time.Now().After(deadline) {
			t.Fatal("campaign never committed a slot")
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.Drain()
	st := c.status()
	if st.State != StateInterrupted && st.State != StateDone {
		t.Fatalf("after drain: state = %s, want interrupted (or done if it outran us)", st.State)
	}
	if st.State == StateInterrupted {
		lg, err := shardlog.OpenExisting(d.outcomesDir(c.id))
		if err != nil {
			t.Fatalf("interrupted campaign has no outcome log: %v", err)
		}
		if lg.NextRank() < 1 || lg.Complete() {
			t.Fatalf("interrupted log holds %d outcomes (sealed %v), want an unsealed prefix", lg.NextRank(), lg.Complete())
		}
		lg.Close()
	}

	d2 := newTestDaemon(t, Config{StateDir: stateDir, FleetWorkers: 2})
	c2, ok := d2.Campaign(c.id)
	if !ok {
		t.Fatalf("campaign %s not recovered", c.id)
	}
	waitState(t, c2, StateDone)

	got, err := os.ReadFile(d2.resultPath(c.id))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunOneShot(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EnvelopeBytes(spec, ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("drain-resumed result differs from one-shot run (%d vs %d bytes)", len(got), len(want))
	}
}

// smallSpec is a quick real single-provider campaign.
func smallSpec(seed uint64) CampaignSpec {
	return CampaignSpec{
		Seed:           seed,
		Providers:      []string{"Mullvad"},
		FaultProfile:   "lossy",
		Workers:        1,
		VPsPerProvider: 2,
		ExtraTLSHosts:  10,
		LandmarkCount:  20,
	}
}

// oneShotEnvelope is the uninterrupted reference envelope of spec.
func oneShotEnvelope(t *testing.T, spec CampaignSpec) []byte {
	t.Helper()
	ref, err := RunOneShot(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EnvelopeBytes(spec, ref)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestLegacyCheckpointIgnored: a state dir written before outcome logs
// holds a spec plus a whole-envelope <id>.ckpt.json. The restarted
// daemon ignores the stale file (it would poison the result: it claims
// a connect failure the real campaign never sees), re-runs the campaign
// from a fresh outcome log, and seals the one-shot envelope.
func TestLegacyCheckpointIgnored(t *testing.T) {
	spec := smallSpec(11)
	stateDir := t.TempDir()
	const id = "c00000001"
	raw, err := json.Marshal(specFile{ID: id, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stateDir+"/"+id+".spec.json", raw, 0o644); err != nil {
		t.Fatal(err)
	}
	stale := []byte(`{"schema":2,"seed":11,"vps_attempted":1,"complete":false,"fault_profile":"lossy",` +
		`"connect_failures":[{"Provider":"Mullvad","VPLabel":"stale","Err":"refused","Attempts":3}],"reports":null}`)
	if err := os.WriteFile(stateDir+"/"+id+".ckpt.json", stale, 0o644); err != nil {
		t.Fatal(err)
	}

	d := newTestDaemon(t, Config{StateDir: stateDir, FleetWorkers: 1})
	c, ok := d.Campaign(id)
	if !ok {
		t.Fatalf("campaign %s not recovered", id)
	}
	waitState(t, c, StateDone)
	got, err := os.ReadFile(d.resultPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, oneShotEnvelope(t, spec)) {
		t.Fatal("result after a legacy checkpoint differs from the one-shot envelope")
	}
	if !shardlog.Sealed(d.outcomesDir(id)) {
		t.Fatal("campaign result was not sealed from an outcome log")
	}
	if left, err := os.ReadFile(stateDir + "/" + id + ".ckpt.json"); err != nil || !bytes.Equal(left, stale) {
		t.Fatalf("stale checkpoint was touched (err %v)", err)
	}
}

// TestCampaignFDsReturnToBaseline: every campaign opens, appends to,
// seals, and folds its own outcome log; after 50 single-provider
// campaigns the daemon holds exactly the descriptors it held before.
func TestCampaignFDsReturnToBaseline(t *testing.T) {
	fds := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open descriptors: %v", err)
		}
		return len(entries)
	}
	d := newTestDaemon(t, Config{FleetWorkers: 1})
	spec := smallSpec(5)
	spec.VPsPerProvider = 1
	// One warm-up campaign, so lazily created runtime descriptors are
	// part of the baseline.
	waitState(t, submitOK(t, d, spec), StateDone)
	before := fds()
	for i := 0; i < 50; i++ {
		waitState(t, submitOK(t, d, spec), StateDone)
	}
	if after := fds(); after != before {
		t.Fatalf("open descriptors %d after 50 campaigns, want baseline %d", after, before)
	}
}

// TestCampaignScratchReturnsToPool: every campaign world — sequential,
// and each worker replica of a two-worker campaign — hands its scratch
// bundle back to the process pool when its campaign ends, and the pool
// keeps at most GOMAXPROCS idle. After 50 campaigns, two in flight at a
// time, and a drain, no world still holds a bundle.
func TestCampaignScratchReturnsToPool(t *testing.T) {
	_, held0 := netsim.ScratchPoolStats()
	d := newTestDaemon(t, Config{FleetWorkers: 2})
	for i := 0; i < 50; i += 2 {
		seq, par := smallSpec(uint64(5+i%3)), smallSpec(uint64(5+i%3))
		seq.VPsPerProvider, par.VPsPerProvider = 1, 1
		par.Providers, par.Workers = []string{"Mullvad", "Windscribe"}, 2
		a, b := submitOK(t, d, seq), submitOK(t, d, par)
		waitState(t, a, StateDone)
		waitState(t, b, StateDone)
	}
	d.Drain()
	idle, held := netsim.ScratchPoolStats()
	if max := runtime.GOMAXPROCS(0); idle > max {
		t.Errorf("pool holds %d idle scratch bundles, bound is GOMAXPROCS=%d", idle, max)
	}
	if held != held0 {
		t.Errorf("%d scratch bundles still held by worlds after the drain, want 0", held-held0)
	}
}

// TestGoroutinesReturnToBaseline: campaign runners, worker pools, and
// the scheduler all exit with their campaigns. After mixed one- and
// two-worker campaigns, one multi-provider campaign canceled mid-run,
// and a drain, the goroutine count settles back to its pre-daemon
// value.
func TestGoroutinesReturnToBaseline(t *testing.T) {
	before := runtime.NumGoroutine()
	d := newTestDaemon(t, Config{FleetWorkers: 2})

	victim := smallSpec(9)
	victim.Providers, victim.Workers, victim.VPsPerProvider = []string{"Mullvad", "NordVPN"}, 2, 3
	c := submitOK(t, d, victim)
	deadline := time.Now().Add(30 * time.Second)
	for c.status().SlotsDone < 1 {
		if time.Now().After(deadline) {
			t.Fatal("campaign never committed a slot")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := d.Cancel(c.id); err != nil && c.status().State != StateDone {
		t.Fatal(err)
	}
	for !c.status().State.terminal() {
		if time.Now().After(deadline) {
			t.Fatal("canceled campaign never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}

	for i := 0; i < 6; i++ {
		seq, par := smallSpec(uint64(5+i%3)), smallSpec(uint64(5+i%3))
		seq.VPsPerProvider, par.VPsPerProvider = 1, 1
		par.Providers, par.Workers = []string{"Mullvad", "Windscribe"}, 2
		a, b := submitOK(t, d, seq), submitOK(t, d, par)
		waitState(t, a, StateDone)
		waitState(t, b, StateDone)
	}
	d.Drain()

	after := runtime.NumGoroutine()
	for settle := time.Now().Add(5 * time.Second); after > before && time.Now().Before(settle); after = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	if after > before {
		t.Fatalf("%d goroutines after the drain, want the pre-daemon %d", after, before)
	}
}
