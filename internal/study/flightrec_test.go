// Flight-recorder golden tests: attaching a Ring to RunConfig must
// never perturb campaign bytes, and its event trail must cover the
// campaign — the derived state (active slots, slot wall histogram,
// resume events) the watchdog and the metrics views read. Its metrics
// snapshot is held to the same bar in telemetry_test.go.
package study_test

import (
	"bytes"
	"testing"

	"vpnscope/internal/faultsim"
	"vpnscope/internal/flightrec"
	"vpnscope/internal/study"
)

// TestFlightRecorderDoesNotPerturbResults: the recorder-off sequential
// envelope is the baseline; recorder-on runs at every worker count must
// match it byte for byte, while actually recording a full event trail.
func TestFlightRecorderDoesNotPerturbResults(t *testing.T) {
	baseline := envelope(t, runLossySubset(t, 1, nil))
	for _, workers := range []int{1, 2, 4, 8} {
		r := flightrec.NewRing(1 << 14)
		res := runLossySubset(t, workers, r)
		if got := envelope(t, res); !bytes.Equal(got, baseline) {
			t.Errorf("Parallel=%d with flight recorder diverges from recorder-off sequential run", workers)
		}
		st := r.Stats()
		if st.Events == 0 {
			t.Fatalf("Parallel=%d: recorder saw no events", workers)
		}
		// The trail must cover the campaign: a start, a finish, and a
		// commit per measured slot at minimum.
		var starts, finishes, commits int
		for _, ev := range r.Snapshot() {
			switch ev.Kind {
			case flightrec.SlotStart:
				starts++
			case flightrec.SlotFinish:
				finishes++
			case flightrec.Commit:
				commits++
			}
		}
		if starts == 0 || finishes != starts || commits == 0 {
			t.Errorf("Parallel=%d: trail starts=%d finishes=%d commits=%d", workers, starts, finishes, commits)
		}
		// Every finish fed the rolling wall histogram the watchdog
		// thresholds on.
		if n := r.SlotWall().Count(); int(n) != finishes {
			t.Errorf("Parallel=%d: slot wall count %d != finishes %d", workers, n, finishes)
		}
		// After a clean run nothing is left in flight.
		if active := r.ActiveSlots(nil); len(active) != 0 {
			t.Errorf("Parallel=%d: %d slots still active after the run", workers, len(active))
		}
	}
}

// TestFlightRecorderResume: a resumed run records SlotResume for
// log-absorbed slots and still matches the uninterrupted bytes.
func TestFlightRecorderResume(t *testing.T) {
	full := envelope(t, runLossySubset(t, 2, nil))

	r := flightrec.NewRing(1 << 14)
	build := func() *study.World {
		w := buildSubset(t, 2018, "Seed4.me", "WorldVPN", "Windscribe")
		w.EnableFaults(faultsim.Lossy)
		return w
	}
	dir := t.TempDir()
	mustInterrupt(t, interruptIntoLog(t, build, dir, 3, 2, false), false)
	if got := resumeLog(t, build, dir, 2, r); !bytes.Equal(got, full) {
		t.Error("resumed run with flight recorder diverges from uninterrupted run")
	}
	resumes := 0
	for _, ev := range r.Snapshot() {
		if ev.Kind == flightrec.SlotResume {
			resumes++
		}
	}
	if resumes == 0 {
		t.Error("resumed run recorded no SlotResume events")
	}
}
