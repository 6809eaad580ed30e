// Tests for the operable metrics surface: the /metricsz registry (JSON
// and Prometheus exposition), the per-campaign scope, the on-demand
// flight-recorder dump, and the stall watchdog's three detections.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"vpnscope/internal/flightrec"
	"vpnscope/internal/study"
)

// get issues a GET against the daemon's handler and returns the
// recorder.
func get(t *testing.T, d *Daemon, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rr := httptest.NewRecorder()
	d.Handler().ServeHTTP(rr, req)
	return rr
}

// promLine matches one sample line of text exposition format 0.0.4.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*,?\})? [-+]?([0-9.eE+-]+|Inf|NaN)$`)

// checkPromFormat validates every line of a scrape and returns the set
// of family names seen on sample lines.
func checkPromFormat(t *testing.T, body string) map[string]bool {
	t.Helper()
	families := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		families[name] = true
	}
	return families
}

// TestMetricsEndpoint drives a daemon through an admission, a
// quota rejection, and a queue-full rejection, then checks both the
// JSON and the Prometheus views of /metricsz.
func TestMetricsEndpoint(t *testing.T) {
	release := make(chan struct{})
	withSeams(t, instantWorld, blockingRun(release))
	d := newTestDaemon(t, Config{QueueBound: 1, FleetWorkers: 1, MaxPerTenant: 1})

	running := submitOK(t, d, CampaignSpec{Seed: 1, Workers: 1, Tenant: "alpha"})
	waitState(t, running, StateRunning)
	submitOK(t, d, CampaignSpec{Seed: 2, Workers: 1, Tenant: "beta"}) // queued
	// The quota gate precedes the queue gate: alpha (already running)
	// trips quota; gamma (fresh) passes quota and hits the full queue.
	if _, err := d.Submit(CampaignSpec{Seed: 4, Tenant: "alpha"}); err == nil {
		t.Fatal("over-quota submission succeeded")
	}
	if _, err := d.Submit(CampaignSpec{Seed: 3, Tenant: "gamma"}); err == nil {
		t.Fatal("queue-full submission succeeded")
	}

	rr := get(t, d, "/metricsz")
	if rr.Code != 200 {
		t.Fatalf("/metricsz = %d: %s", rr.Code, rr.Body)
	}
	var doc struct {
		Schema string `json:"schema"`
		Daemon struct {
			QueueDepth   int                   `json:"queue_depth"`
			FleetWorkers int                   `json:"fleet_workers"`
			Campaigns    map[string]int        `json:"campaigns"`
			Tenants      map[string]tenantView `json:"tenants"`
			Flightrec    struct {
				Enabled bool `json:"enabled"`
			} `json:"flightrec"`
		} `json:"daemon"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("decoding /metricsz: %v", err)
	}
	if doc.Schema != MetricsSchemaVersion {
		t.Errorf("schema = %q, want %q", doc.Schema, MetricsSchemaVersion)
	}
	if doc.Daemon.QueueDepth != 1 || doc.Daemon.Campaigns["running"] != 1 || doc.Daemon.Campaigns["queued"] != 1 {
		t.Errorf("daemon section = %+v", doc.Daemon)
	}
	if !doc.Daemon.Flightrec.Enabled {
		t.Error("flight recorder reported disabled on a default daemon")
	}
	alpha, gamma := doc.Daemon.Tenants["alpha"], doc.Daemon.Tenants["gamma"]
	if alpha.Admitted != 1 || alpha.RejectedQuota != 1 {
		t.Errorf("tenant alpha = %+v, want admitted=1 rejected_quota=1", alpha)
	}
	if gamma.Admitted != 0 || gamma.RejectedQueueFull != 1 {
		t.Errorf("tenant gamma = %+v, want admitted=0 rejected_queue_full=1", gamma)
	}

	rr = get(t, d, "/metricsz?format=prom")
	if rr.Code != 200 {
		t.Fatalf("/metricsz?format=prom = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prom Content-Type = %q", ct)
	}
	fams := checkPromFormat(t, rr.Body.String())
	for _, want := range []string{
		"vpnscoped_queue_depth", "vpnscoped_fleet_workers", "vpnscoped_fleet_free",
		"vpnscoped_draining", "vpnscoped_campaigns",
		"vpnscoped_tenant_admitted_total", "vpnscoped_tenant_rejected_total",
		"vpnscoped_watchdog_fires_total", "vpnscoped_flightrec_dumps_total",
	} {
		if !fams[want] {
			t.Errorf("prom exposition missing family %s", want)
		}
	}
	if !strings.Contains(rr.Body.String(), `vpnscoped_tenant_rejected_total{tenant="gamma",reason="queue_full"} 1`) {
		t.Error("prom exposition missing gamma queue_full rejection sample")
	}
	if !strings.Contains(rr.Body.String(), "vpnscoped_queue_depth 1") {
		t.Error("prom exposition missing queue depth sample")
	}

	close(release)
}

// seededRun is a run seam that records a plausible slot trail into the
// campaign's flight recorder and succeeds — enough activity for the
// campaign-scoped views to have content.
func seededRun(slots int, wall time.Duration) func(*study.World, study.RunConfig) (*study.Result, error) {
	return func(_ *study.World, cfg study.RunConfig) (*study.Result, error) {
		for i := 0; i < slots; i++ {
			cfg.Flight.Record(flightrec.Event{Kind: flightrec.SlotStart, Worker: 0, Slot: i, Provider: "Mullvad", VP: fmt.Sprintf("vp-%d", i)})
			cfg.Flight.Record(flightrec.Event{Kind: flightrec.SlotFinish, Worker: 0, Slot: i, Detail: "measured", V1: int64(wall), V2: 1})
			cfg.Flight.Record(flightrec.Event{Kind: flightrec.Commit, Worker: -1, Slot: i, Detail: "measured"})
		}
		return &study.Result{}, nil
	}
}

// TestCampaignMetricsEndpoint: the per-campaign scope serves ring
// stats, the slot wall histogram, and its p99 in both formats.
func TestCampaignMetricsEndpoint(t *testing.T) {
	withSeams(t, instantWorld, seededRun(10, 4*time.Millisecond))
	d := newTestDaemon(t, Config{FleetWorkers: 1})
	c := submitOK(t, d, CampaignSpec{Seed: 1, Workers: 1})
	waitState(t, c, StateDone)

	rr := get(t, d, "/campaigns/"+c.id+"/metricsz")
	if rr.Code != 200 {
		t.Fatalf("campaign metricsz = %d: %s", rr.Code, rr.Body)
	}
	var v struct {
		Schema    string `json:"schema"`
		ID        string `json:"id"`
		State     string `json:"state"`
		Flightrec struct {
			Events uint64 `json:"events"`
		} `json:"flightrec"`
		SlotWall *struct {
			Count int64 `json:"count"`
		} `json:"slot_wall_ms"`
		P99 float64 `json:"slot_wall_p99_ms"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.ID != c.id || v.State != string(StateDone) || v.Schema != MetricsSchemaVersion {
		t.Errorf("campaign view = %+v", v)
	}
	if v.Flightrec.Events == 0 {
		t.Error("campaign ring recorded nothing")
	}
	if v.SlotWall == nil || v.SlotWall.Count != 10 {
		t.Errorf("slot wall histogram = %+v, want count 10", v.SlotWall)
	}
	if v.P99 != 5 { // 4ms observations land in the 5ms bucket
		t.Errorf("slot wall p99 = %v ms, want 5", v.P99)
	}

	rr = get(t, d, "/campaigns/"+c.id+"/metricsz?format=prom")
	fams := checkPromFormat(t, rr.Body.String())
	for _, want := range []string{
		"vpnscoped_campaign_state", "vpnscoped_campaign_flightrec_events_total",
		"vpnscoped_campaign_slot_wall_seconds_bucket", "vpnscoped_campaign_slot_wall_p99_seconds",
	} {
		if !fams[want] {
			t.Errorf("campaign prom exposition missing %s", want)
		}
	}
	if rr := get(t, d, "/campaigns/nope/metricsz"); rr.Code != 404 {
		t.Errorf("unknown campaign metricsz = %d, want 404", rr.Code)
	}
}

// TestCampaignMetricsAttribution: two campaigns running at once on one
// daemon, with different seeds and worker counts, each see exactly
// their own slots. A campaign's metricsz campaign section is
// byte-identical to a one-shot run of its spec on a ring of its own,
// and the daemon-wide /metricsz campaign section is their sum.
func TestCampaignMetricsAttribution(t *testing.T) {
	specs := []CampaignSpec{
		{Seed: 31, Providers: []string{"Mullvad", "NordVPN"}, FaultProfile: "lossy", Workers: 2,
			VPsPerProvider: 3, ExtraTLSHosts: 10, LandmarkCount: 20},
		{Seed: 32, Providers: []string{"Seed4.me", "Windscribe"}, FaultProfile: "lossy", Workers: 1,
			VPsPerProvider: 3, ExtraTLSHosts: 10, LandmarkCount: 20},
	}
	d := newTestDaemon(t, Config{FleetWorkers: 3})
	var cs []*campaign
	for _, spec := range specs {
		cs = append(cs, submitOK(t, d, spec))
	}
	// Both fit the fleet at once, so they run concurrently.
	for _, c := range cs {
		waitState(t, c, StateDone)
	}

	// campaignSection extracts the served campaign section, compacted.
	campaignSection := func(path string, body []byte) []byte {
		t.Helper()
		var doc struct {
			Telemetry *struct {
				Campaign json.RawMessage `json:"campaign"`
			} `json:"telemetry"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("decoding %s: %v", path, err)
		}
		if doc.Telemetry == nil {
			t.Fatalf("%s has no telemetry section", path)
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, doc.Telemetry.Campaign); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var refs []*flightrec.Ring
	for i, spec := range specs {
		w, err := buildWorldFn(&spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		ring := flightrec.NewRing(0)
		cfg := spec.runConfig(context.Background(), spec.Workers)
		cfg.Flight = ring
		cfg.Stream = func(study.Outcome) error { return nil }
		if _, err := w.RunWith(cfg); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ring)
		want, err := json.Marshal(ring.Metrics().Campaign)
		if err != nil {
			t.Fatal(err)
		}
		path := "/campaigns/" + cs[i].id + "/metricsz"
		if got := campaignSection(path, get(t, d, path).Body.Bytes()); !bytes.Equal(got, want) {
			t.Errorf("campaign %d (seed %d, %d workers): served campaign section differs from its one-shot run:\n%s\nvs\n%s",
				i, spec.Seed, spec.Workers, got, want)
		}
	}
	want, err := json.Marshal(flightrec.Sum(refs...).Campaign)
	if err != nil {
		t.Fatal(err)
	}
	if got := campaignSection("/metricsz", get(t, d, "/metricsz").Body.Bytes()); !bytes.Equal(got, want) {
		t.Errorf("/metricsz campaign section is not the sum of the campaigns:\n%s\nvs\n%s", got, want)
	}
}

// TestFlightrecEndpoint: on-demand dumps for the daemon ring and one
// campaign's ring; 404 for unknown campaigns and disabled recorders.
func TestFlightrecEndpoint(t *testing.T) {
	withSeams(t, instantWorld, seededRun(3, time.Millisecond))
	d := newTestDaemon(t, Config{FleetWorkers: 1})
	c := submitOK(t, d, CampaignSpec{Seed: 1, Workers: 1})
	waitState(t, c, StateDone)

	checkDump := func(path, wantCampaign string, wantEvents bool) {
		t.Helper()
		rr := get(t, d, path)
		if rr.Code != 200 {
			t.Fatalf("%s = %d: %s", path, rr.Code, rr.Body)
		}
		sc := bufio.NewScanner(rr.Body)
		if !sc.Scan() {
			t.Fatalf("%s: empty dump", path)
		}
		var hdr struct {
			Schema   string `json:"schema"`
			Campaign string `json:"campaign"`
			Reason   string `json:"reason"`
			Events   uint64 `json:"events"`
		}
		if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
			t.Fatalf("%s header: %v", path, err)
		}
		if hdr.Schema != flightrec.SchemaVersion || hdr.Campaign != wantCampaign || hdr.Reason != "on-demand" {
			t.Errorf("%s header = %+v", path, hdr)
		}
		if wantEvents && hdr.Events == 0 {
			t.Errorf("%s: dump has no events", path)
		}
		for sc.Scan() {
			if !json.Valid(sc.Bytes()) {
				t.Fatalf("%s: invalid NDJSON line %q", path, sc.Text())
			}
		}
	}
	checkDump("/debugz/flightrec", "daemon", true) // admission events at least
	checkDump("/debugz/flightrec?campaign="+c.id, c.id, true)

	if rr := get(t, d, "/debugz/flightrec?campaign=nope"); rr.Code != 404 {
		t.Errorf("unknown campaign dump = %d, want 404", rr.Code)
	}

	off := newTestDaemon(t, Config{FleetWorkers: 1, FlightEvents: -1})
	if rr := get(t, off, "/debugz/flightrec"); rr.Code != 404 {
		t.Errorf("disabled recorder dump = %d, want 404", rr.Code)
	}
}

// stalledCampaign force-installs a running campaign with a given ring,
// bypassing the scheduler — the watchdog only looks at state + ring.
func stalledCampaign(d *Daemon, id string, r *flightrec.Ring) *campaign {
	c := newCampaign(id, 0, CampaignSpec{})
	c.state = StateRunning
	c.flight = r
	d.mu.Lock()
	d.campaigns[id] = c
	d.order = append(d.order, c)
	d.mu.Unlock()
	return c
}

// TestWatchdogSlotStall: an active slot older than the threshold fires
// exactly once and leaves an NDJSON dump plus goroutine stacks in the
// state dir.
func TestWatchdogSlotStall(t *testing.T) {
	d := newTestDaemon(t, Config{FleetWorkers: 1, StallFloor: 50 * time.Millisecond, WatchdogInterval: -1})
	r := flightrec.NewRing(64)
	stalledCampaign(d, "cstall", r)
	r.Record(flightrec.Event{Kind: flightrec.SlotStart, Worker: 0, Slot: 3, Provider: "Avira", VP: "de-1"})

	d.watchdogSweep(time.Now()) // under the floor: quiet
	if n := d.metrics.watchdogSlotStalls.Load(); n != 0 {
		t.Fatalf("watchdog fired early: %d", n)
	}
	future := time.Now().Add(time.Second)
	d.watchdogSweep(future)
	d.watchdogSweep(future) // dedup: the same stalled slot fires once
	if n := d.metrics.watchdogSlotStalls.Load(); n != 1 {
		t.Fatalf("slot stall fires = %d, want 1", n)
	}
	dump, err := os.ReadFile(d.flightPath("cstall"))
	if err != nil {
		t.Fatalf("no flight dump after watchdog fire: %v", err)
	}
	if !strings.Contains(string(dump), `"reason":"watchdog-slot_stall"`) {
		t.Errorf("dump reason wrong: %s", dump[:120])
	}
	stacks, err := os.ReadFile(d.stacksPath("cstall"))
	if err != nil || !strings.Contains(string(stacks), "goroutine") {
		t.Errorf("goroutine stacks missing or empty: %v", err)
	}
	// The fire itself is on the ring.
	sawWatchdog := false
	for _, ev := range r.Snapshot() {
		if ev.Kind == flightrec.Watchdog {
			sawWatchdog = true
		}
	}
	if !sawWatchdog {
		t.Error("watchdog event not recorded on the stalled ring")
	}
}

// TestWatchdogForgetsFinishedCampaigns: the slot-stall dedup state of a
// campaign is dropped once it stops running, so the watchdog's memory
// does not grow with the daemon's lifetime.
func TestWatchdogForgetsFinishedCampaigns(t *testing.T) {
	d := newTestDaemon(t, Config{FleetWorkers: 1, StallFloor: 50 * time.Millisecond, WatchdogInterval: -1})
	r := flightrec.NewRing(64)
	c := stalledCampaign(d, "cfinished", r)
	r.Record(flightrec.Event{Kind: flightrec.SlotStart, Worker: 0, Slot: 3, Provider: "Avira", VP: "de-1"})
	d.watchdogSweep(time.Now().Add(time.Second))
	if n := d.metrics.watchdogSlotStalls.Load(); n != 1 {
		t.Fatalf("slot stall fires = %d, want 1", n)
	}
	c.mu.Lock()
	c.state = StateDone
	c.mu.Unlock()
	d.watchdogSweep(time.Now().Add(2 * time.Second))
	if n := len(d.wd.slotFired); n != 0 {
		t.Fatalf("watchdog still holds slot-stall state for %d finished campaigns", n)
	}
}

// TestWatchdogCommitStall: slots finished but no committer action →
// fire; committer action after the fire re-arms the detection.
func TestWatchdogCommitStall(t *testing.T) {
	d := newTestDaemon(t, Config{FleetWorkers: 1, StallFloor: 50 * time.Millisecond, WatchdogInterval: -1})
	r := flightrec.NewRing(64)
	stalledCampaign(d, "ccommit", r)
	r.Record(flightrec.Event{Kind: flightrec.SlotFinish, Worker: 0, Slot: 0, V1: int64(time.Millisecond)})

	future := time.Now().Add(time.Second)
	d.watchdogSweep(future)
	d.watchdogSweep(future)
	if n := d.metrics.watchdogCommitStalls.Load(); n != 1 {
		t.Fatalf("commit stall fires = %d, want 1", n)
	}
	// The committer moves: detection clears and re-arms.
	r.Record(flightrec.Event{Kind: flightrec.Commit, Worker: -1, Slot: 0})
	d.watchdogSweep(future.Add(time.Millisecond))
	r.Record(flightrec.Event{Kind: flightrec.SlotFinish, Worker: 0, Slot: 1, V1: int64(time.Millisecond)})
	d.watchdogSweep(future.Add(2 * time.Second))
	if n := d.metrics.watchdogCommitStalls.Load(); n != 2 {
		t.Fatalf("re-armed commit stall fires = %d, want 2", n)
	}
}

// TestWatchdogDrainStall: a drain outliving DrainGrace + StallFloor
// fires once on the daemon ring.
func TestWatchdogDrainStall(t *testing.T) {
	d := newTestDaemon(t, Config{FleetWorkers: 1, DrainGrace: 10 * time.Millisecond,
		StallFloor: 10 * time.Millisecond, WatchdogInterval: -1})
	d.drainStartNs.Store(time.Now().Add(-time.Second).UnixNano())
	d.watchdogSweep(time.Now())
	d.watchdogSweep(time.Now())
	if n := d.metrics.watchdogDrainStalls.Load(); n != 1 {
		t.Fatalf("drain stall fires = %d, want 1", n)
	}
	if _, err := os.Stat(d.flightPath("daemon")); err != nil {
		t.Errorf("daemon ring dump missing after drain stall: %v", err)
	}
}

// TestWatchdogAdaptiveThreshold: with enough samples the threshold
// scales off the ring's p99 instead of the floor.
func TestWatchdogAdaptiveThreshold(t *testing.T) {
	d := newTestDaemon(t, Config{FleetWorkers: 1, StallFloor: time.Millisecond,
		StallMultiple: 10, WatchdogInterval: -1})
	r := flightrec.NewRing(64)
	if got := d.stallThreshold(r); got != time.Millisecond {
		t.Fatalf("empty-histogram threshold = %v, want the floor", got)
	}
	for i := 0; i < 20; i++ {
		r.Record(flightrec.Event{Kind: flightrec.SlotFinish, Worker: 0, V1: int64(40 * time.Millisecond)})
	}
	// 40ms observations land in the 50ms bucket; 10 × 50ms = 500ms.
	if got := d.stallThreshold(r); got != 500*time.Millisecond {
		t.Fatalf("adaptive threshold = %v, want 500ms", got)
	}
}
