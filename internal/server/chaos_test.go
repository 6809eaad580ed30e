// Chaos tests: the daemon as a real process, killed for real.
//
// The parent test re-execs its own test binary as a vpnscoped daemon
// (TestChaosDaemonProcess, gated by VPNSCOPED_CHAOS_STATE), drives it
// over HTTP with concurrent fault-profiled campaigns, SIGKILLs it at a
// random in-flight point, restarts it over the same state directory,
// and requires every campaign's final envelope to be byte-identical to
// the same spec run uninterrupted in one shot. SIGTERM gets the same
// treatment with the graceful path: drain, exit 0, resume.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"vpnscope/internal/study"
)

// TestChaosDaemonProcess is the subprocess half of the chaos tests: it
// runs the full Serve lifecycle (recover, schedule, HTTP, signal-drain)
// and is killed or SIGTERMed by the parent. It skips unless the parent
// set the state-dir env var.
//
// Optional chaos knobs, all env-driven so the parent controls them
// across the exec boundary:
//
//	VPNSCOPED_CHAOS_SLOT_HOOK=panic:<seed>:<slot>  panic mid-measurement
//	VPNSCOPED_CHAOS_SLOT_HOOK=stall:<seed>:<slot>  wedge the worker forever
//	VPNSCOPED_CHAOS_WATCHDOG_INTERVAL=<dur>        fast watchdog sweeps
//	VPNSCOPED_CHAOS_STALL_FLOOR=<dur>              low stall threshold
func TestChaosDaemonProcess(t *testing.T) {
	stateDir := os.Getenv("VPNSCOPED_CHAOS_STATE")
	if stateDir == "" {
		t.Skip("chaos subprocess helper; driven by the other TestChaos* tests")
	}
	if hook := os.Getenv("VPNSCOPED_CHAOS_SLOT_HOOK"); hook != "" {
		parts := strings.Split(hook, ":")
		if len(parts) != 3 {
			t.Fatalf("bad VPNSCOPED_CHAOS_SLOT_HOOK %q", hook)
		}
		mode := parts[0]
		seed, err1 := strconv.ParseUint(parts[1], 10, 64)
		slot, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			t.Fatalf("bad VPNSCOPED_CHAOS_SLOT_HOOK %q", hook)
		}
		study.SlotHook = func(s uint64, order int) {
			if s != seed || order != slot {
				return
			}
			switch mode {
			case "panic":
				panic(fmt.Sprintf("chaos: injected panic at seed %d slot %d", s, order))
			case "stall":
				select {} // wedge this worker until the parent kills us
			}
		}
	}
	cfg := Config{
		StateDir:     stateDir,
		FleetWorkers: 2,
		QueueBound:   16,
		Logf:         log.New(os.Stderr, "[vpnscoped] ", 0).Printf,
	}
	if s := os.Getenv("VPNSCOPED_CHAOS_WATCHDOG_INTERVAL"); s != "" {
		iv, err := time.ParseDuration(s)
		if err != nil {
			t.Fatal(err)
		}
		cfg.WatchdogInterval = iv
	}
	if s := os.Getenv("VPNSCOPED_CHAOS_STALL_FLOOR"); s != "" {
		fl, err := time.ParseDuration(s)
		if err != nil {
			t.Fatal(err)
		}
		cfg.StallFloor = fl
	}
	err := Serve(ServeConfig{
		Config: cfg,
		Addr:   "127.0.0.1:0",
		Ready:  func(addr string) { fmt.Printf("DAEMON_READY %s\n", addr) },
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

type daemonProc struct {
	cmd  *exec.Cmd
	base string
}

// startChaosDaemon re-execs the test binary as a daemon over stateDir
// and waits for its ready line. extraEnv entries ("K=V") configure the
// subprocess's chaos knobs.
func startChaosDaemon(t *testing.T, stateDir string, extraEnv ...string) *daemonProc {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestChaosDaemonProcess$", "-test.timeout=600s")
	cmd.Env = append(os.Environ(), "VPNSCOPED_CHAOS_STATE="+stateDir)
	cmd.Env = append(cmd.Env, extraEnv...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		// Keep draining stdout after the ready line so the subprocess
		// never blocks on a full pipe.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "DAEMON_READY "); ok {
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &daemonProc{cmd: cmd, base: "http://" + addr}
	case <-time.After(60 * time.Second):
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatal("daemon subprocess never printed its ready line")
		return nil
	}
}

func (p *daemonProc) kill9(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = p.cmd.Wait() // exits non-zero by definition of SIGKILL
}

// sigtermWait sends SIGTERM and requires a clean drain: exit code 0.
func (p *daemonProc) sigtermWait(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("daemon did not exit 0 after SIGTERM: %v", err)
	}
}

func (p *daemonProc) submit(t *testing.T, spec CampaignSpec) string {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(p.base+"/campaigns", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var accepted map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d (%v), want 202", resp.StatusCode, accepted)
	}
	return accepted["id"]
}

// statuses fetches the daemon's campaign list keyed by id.
func (p *daemonProc) statuses(t *testing.T) map[string]statusView {
	t.Helper()
	resp, err := http.Get(p.base + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Campaigns []statusView `json:"campaigns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	out := map[string]statusView{}
	for _, v := range list.Campaigns {
		out[v.ID] = v
	}
	return out
}

func (p *daemonProc) resultBytes(t *testing.T, id string) []byte {
	t.Helper()
	resp, err := http.Get(p.base + "/campaigns/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("result %s = %d: %s", id, resp.StatusCode, body)
	}
	return body
}

// waitAllDone polls until every tracked campaign is done (failed is a
// test failure).
func (p *daemonProc) waitAllDone(t *testing.T, ids []string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := p.statuses(t)
		allDone := true
		for _, id := range ids {
			v, ok := st[id]
			if !ok {
				t.Fatalf("campaign %s missing from daemon after restart", id)
			}
			switch v.State {
			case StateDone:
			case StateFailed:
				t.Fatalf("campaign %s failed: %s", id, v.Error)
			default:
				allDone = false
			}
		}
		if allDone {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaigns never finished; statuses: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// referenceEnvelopes computes EnvelopeBytes(RunOneShot(spec)) for every
// spec concurrently, in-process.
func referenceEnvelopes(t *testing.T, specs []CampaignSpec) [][]byte {
	t.Helper()
	out := make([][]byte, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec CampaignSpec) {
			defer wg.Done()
			res, err := RunOneShot(context.Background(), spec)
			if err != nil {
				errs[i] = err
				return
			}
			out[i], errs[i] = EnvelopeBytes(spec, res)
		}(i, spec)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reference run %d: %v", i, err)
		}
	}
	return out
}

// TestChaosKillResumeByteIdentical is the headline robustness proof:
// four concurrent fault-profiled campaigns, SIGKILL at an arbitrary
// in-flight point, restart over the same state dir — every final
// envelope byte-identical to an uninterrupted one-shot run.
func TestChaosKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	specs := []CampaignSpec{
		{Seed: 101, Providers: []string{"Mullvad", "NordVPN"}, FaultProfile: "lossy", Workers: 1, VPsPerProvider: 3, ExtraTLSHosts: 10, LandmarkCount: 20},
		{Seed: 202, Providers: []string{"CyberGhost", "Windscribe"}, FaultProfile: "hostile", Workers: 1, VPsPerProvider: 3, ExtraTLSHosts: 10, LandmarkCount: 20},
		{Seed: 303, Providers: []string{"Seed4.me", "WorldVPN"}, FaultProfile: "mild", Workers: 2, VPsPerProvider: 3, ExtraTLSHosts: 10, LandmarkCount: 20},
		{Seed: 404, Providers: []string{"Avira"}, FaultProfile: "lossy", Workers: 1, VPsPerProvider: 4, ExtraTLSHosts: 10, LandmarkCount: 20},
	}

	// Reference envelopes run in-process while the daemon works.
	refCh := make(chan [][]byte, 1)
	go func() { refCh <- referenceEnvelopes(t, specs) }()

	stateDir := t.TempDir()
	p := startChaosDaemon(t, stateDir)
	ids := make([]string, len(specs))
	for i, spec := range specs {
		ids[i] = p.submit(t, spec)
	}

	// Kill -9 once real in-flight progress exists. The exact kill point
	// is whatever the scheduler happened to commit by then — arbitrary
	// by construction.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := p.statuses(t)
		total, terminal := 0, 0
		for _, id := range ids {
			total += st[id].SlotsDone
			if st[id].State.terminal() {
				terminal++
			}
		}
		if total >= 3 || terminal == len(ids) {
			t.Logf("killing daemon at %d committed slots (%d campaigns already terminal)", total, terminal)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaigns never made progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.kill9(t)

	// Restart over the same state dir: recovery re-queues every
	// in-flight campaign and resumes its outcome log.
	p2 := startChaosDaemon(t, stateDir)
	p2.waitAllDone(t, ids, 120*time.Second)

	refs := <-refCh
	for i, id := range ids {
		got := p2.resultBytes(t, id)
		if !bytes.Equal(got, refs[i]) {
			t.Errorf("campaign %s (seed %d): resumed envelope differs from one-shot (%d vs %d bytes)",
				id, specs[i].Seed, len(got), len(refs[i]))
		}
	}
	p2.sigtermWait(t)
}

// waitForStatus polls one campaign's daemon-reported state.
func (p *daemonProc) waitForStatus(t *testing.T, id string, want State, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := p.statuses(t)
		if st[id].State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s never reached %s; status %+v", id, want, st[id])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkFlightDumpFile asserts path holds a well-formed flight dump:
// a header line with the wanted reason, then valid NDJSON events
// including at least one of each wanted kind.
func checkFlightDumpFile(t *testing.T, path, wantReason string, wantKinds ...string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("flight dump missing: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("%s: empty dump", path)
	}
	var hdr struct {
		Schema string `json:"schema"`
		Reason string `json:"reason"`
		Events uint64 `json:"events"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("%s header: %v", path, err)
	}
	if hdr.Reason != wantReason || hdr.Events == 0 {
		t.Fatalf("%s header = %+v, want reason %q with events", path, hdr, wantReason)
	}
	kinds := map[string]bool{}
	for sc.Scan() {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("%s: bad NDJSON line %q: %v", path, sc.Text(), err)
		}
		kinds[ev.Kind] = true
	}
	for _, k := range wantKinds {
		if !kinds[k] {
			t.Errorf("%s: dump has no %q event; kinds seen: %v", path, k, kinds)
		}
	}
}

// TestChaosFlightDumpOnPanic: a panic in the middle of a real
// measurement must leave a well-formed NDJSON flight dump and goroutine
// stacks in the state dir, mark the campaign failed, and both the
// verdict and the dump must survive a kill -9 restart.
func TestChaosFlightDumpOnPanic(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	spec := CampaignSpec{
		Seed: 777, Providers: []string{"Mullvad"}, FaultProfile: "lossy",
		Workers: 1, VPsPerProvider: 4, ExtraTLSHosts: 10, LandmarkCount: 20,
	}
	stateDir := t.TempDir()
	p := startChaosDaemon(t, stateDir, "VPNSCOPED_CHAOS_SLOT_HOOK=panic:777:2")
	id := p.submit(t, spec)
	p.waitForStatus(t, id, StateFailed, 60*time.Second)

	dumpPath := stateDir + "/" + id + ".flightrec.ndjson"
	checkFlightDumpFile(t, dumpPath, "panic", "slot_start", "panic")
	stacks, err := os.ReadFile(stateDir + "/" + id + ".stacks.txt")
	if err != nil || !bytes.Contains(stacks, []byte("goroutine")) {
		t.Errorf("panic stacks missing or empty: %v", err)
	}
	dumpBefore, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatal(err)
	}

	// Crash-restart (no hook this time): recovery must keep the failed
	// verdict and leave the dump untouched.
	p.kill9(t)
	p2 := startChaosDaemon(t, stateDir)
	p2.waitForStatus(t, id, StateFailed, 30*time.Second)
	dumpAfter, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatalf("flight dump vanished across restart: %v", err)
	}
	if !bytes.Equal(dumpBefore, dumpAfter) {
		t.Error("flight dump changed across restart")
	}
	p2.sigtermWait(t)
}

// TestChaosWatchdogStallDump: a worker wedged mid-slot must be caught
// by the stall watchdog — flight dump with reason watchdog-slot_stall
// plus all-goroutine stacks — and after kill -9 and a clean restart the
// campaign must still finish byte-identical to a one-shot run.
func TestChaosWatchdogStallDump(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	spec := CampaignSpec{
		Seed: 888, Providers: []string{"Seed4.me", "WorldVPN"}, FaultProfile: "lossy",
		Workers: 1, VPsPerProvider: 3, ExtraTLSHosts: 10, LandmarkCount: 20,
	}
	refCh := make(chan [][]byte, 1)
	go func() { refCh <- referenceEnvelopes(t, []CampaignSpec{spec}) }()

	stateDir := t.TempDir()
	p := startChaosDaemon(t, stateDir,
		"VPNSCOPED_CHAOS_SLOT_HOOK=stall:888:3",
		"VPNSCOPED_CHAOS_WATCHDOG_INTERVAL=25ms",
		"VPNSCOPED_CHAOS_STALL_FLOOR=250ms",
	)
	id := p.submit(t, spec)

	dumpPath := stateDir + "/" + id + ".flightrec.ndjson"
	deadline := time.Now().Add(60 * time.Second)
	for {
		if raw, err := os.ReadFile(dumpPath); err == nil &&
			bytes.Contains(raw, []byte(`"reason":"watchdog-slot_stall"`)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watchdog never dumped the stalled campaign")
		}
		time.Sleep(10 * time.Millisecond)
	}
	checkFlightDumpFile(t, dumpPath, "watchdog-slot_stall", "slot_start", "commit", "watchdog")
	stacks, err := os.ReadFile(stateDir + "/" + id + ".stacks.txt")
	if err != nil || !bytes.Contains(stacks, []byte("goroutine")) {
		t.Errorf("watchdog stacks missing or empty: %v", err)
	}

	// The wedged worker never returns: kill -9 and restart clean.
	p.kill9(t)
	p2 := startChaosDaemon(t, stateDir)
	p2.waitAllDone(t, []string{id}, 120*time.Second)
	got := p2.resultBytes(t, id)
	refs := <-refCh
	if !bytes.Equal(got, refs[0]) {
		t.Fatalf("stall-recovered envelope differs from one-shot (%d vs %d bytes)", len(got), len(refs[0]))
	}
	p2.sigtermWait(t)
}

// TestChaosSigtermDrainResume: SIGTERM mid-campaign must drain (exit
// 0) with the in-flight campaign's outcome log durable, and a restarted
// daemon must finish it byte-identically to a one-shot run.
func TestChaosSigtermDrainResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	spec := CampaignSpec{
		Seed: 2018, Providers: []string{"Mullvad", "NordVPN"}, FaultProfile: "lossy",
		Workers: 1, VPsPerProvider: 4, ExtraTLSHosts: 10, LandmarkCount: 20,
	}
	refCh := make(chan [][]byte, 1)
	go func() { refCh <- referenceEnvelopes(t, []CampaignSpec{spec}) }()

	stateDir := t.TempDir()
	p := startChaosDaemon(t, stateDir)
	id := p.submit(t, spec)

	deadline := time.Now().Add(60 * time.Second)
	for p.statuses(t)[id].SlotsDone < 2 {
		if time.Now().After(deadline) {
			t.Fatal("campaign never made progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.sigtermWait(t)

	// The drain left the campaign's outcome log (or its result) durable.
	if !exists(stateDir+"/"+id+".outcomes/meta.json") && !exists(stateDir+"/"+id+".result.json") {
		t.Fatal("drained daemon left neither outcome log nor result on disk")
	}

	p2 := startChaosDaemon(t, stateDir)
	p2.waitAllDone(t, []string{id}, 120*time.Second)
	got := p2.resultBytes(t, id)
	refs := <-refCh
	if !bytes.Equal(got, refs[0]) {
		t.Fatalf("drain-resumed envelope differs from one-shot (%d vs %d bytes)", len(got), len(refs[0]))
	}
	p2.sigtermWait(t)
}
