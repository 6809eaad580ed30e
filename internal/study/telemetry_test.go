// Telemetry golden tests: attaching a flight recorder — the source of
// the metrics snapshot, the trace, and the progress line — must never
// perturb the byte-identical-to-sequential guarantee, and the
// deterministic ("campaign") section of its metrics snapshot must
// itself be reproducible — identical across worker counts and across
// repeat runs at the same seed. These are the acceptance criteria of
// the observability layer (DESIGN.md, "Observability").
package study_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"vpnscope/internal/faultsim"
	"vpnscope/internal/flightrec"
	"vpnscope/internal/study"
)

// runLossySubset runs the standard 3-provider lossy campaign used by
// the parallel byte-identity suite, recording into r (nil: no
// recorder).
func runLossySubset(t *testing.T, workers int, r *flightrec.Ring) *study.Result {
	t.Helper()
	w := buildSubset(t, 2018, "Seed4.me", "WorldVPN", "Windscribe")
	w.EnableFaults(faultsim.Lossy)
	res, err := w.RunWith(study.RunConfig{Parallel: workers, Flight: r})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// campaignJSON extracts the deterministic section of a ring's metrics
// snapshot.
func campaignJSON(t *testing.T, r *flightrec.Ring) []byte {
	t.Helper()
	b, err := json.MarshalIndent(r.Metrics().Campaign, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTelemetryDoesNotPerturbResults is the golden invariant: a faulty
// parallel run with a recorder attached serializes byte-identically to
// a recorder-off sequential run, at every worker count — and the
// campaign section of the snapshot is identical across worker counts.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	baseline := envelope(t, runLossySubset(t, 1, nil))

	var campaigns [][]byte
	workerCounts := []int{1, 2, 4, 8}
	for _, workers := range workerCounts {
		tel := flightrec.NewRing(1 << 14)
		res := runLossySubset(t, workers, tel)

		if got := envelope(t, res); !bytes.Equal(got, baseline) {
			t.Errorf("Parallel=%d with telemetry enabled diverges from telemetry-off sequential run", workers)
		}
		campaigns = append(campaigns, campaignJSON(t, tel))

		// The exporters must work on a real campaign's ring.
		var metrics, trace bytes.Buffer
		if err := tel.WriteMetricsTo(&metrics); err != nil {
			t.Fatalf("Parallel=%d: WriteMetricsTo: %v", workers, err)
		}
		if err := tel.WriteTraceTo(&trace); err != nil {
			t.Fatalf("Parallel=%d: WriteTraceTo: %v", workers, err)
		}
		if !json.Valid(metrics.Bytes()) || !json.Valid(trace.Bytes()) {
			t.Fatalf("Parallel=%d: exporter emitted invalid JSON", workers)
		}

		snap := tel.Metrics()
		if snap.Campaign.SlotsDone != snap.Campaign.SlotsTotal || snap.Campaign.SlotsTotal == 0 {
			t.Fatalf("Parallel=%d: campaign incomplete: %d/%d slots",
				workers, snap.Campaign.SlotsDone, snap.Campaign.SlotsTotal)
		}
	}
	for i, c := range campaigns[1:] {
		if !bytes.Equal(c, campaigns[0]) {
			t.Errorf("campaign snapshot at Parallel=%d differs from Parallel=%d:\n%s\nvs\n%s",
				workerCounts[i+1], workerCounts[0], c, campaigns[0])
		}
	}
}

// TestTelemetryCampaignSnapshotReproducible: two identical-seed runs
// emit identical campaign sections — the snapshot is as deterministic
// as the results it describes. (Runtime and wall sections are exempt:
// steals, pool traffic, and latencies are execution-shape.)
func TestTelemetryCampaignSnapshotReproducible(t *testing.T) {
	run := func() []byte {
		tel := flightrec.NewRing(1 << 14)
		runLossySubset(t, 4, tel)
		return campaignJSON(t, tel)
	}
	first, second := run(), run()
	if !bytes.Equal(first, second) {
		t.Errorf("identical-seed runs emitted different campaign snapshots:\n%s\nvs\n%s", first, second)
	}
}

// TestTelemetryResumeAccounting: a kill/resume run records resumed
// slots as resumed, not recommitted, and total accounting still covers
// every slot.
func TestTelemetryResumeAccounting(t *testing.T) {
	build := func() *study.World {
		w := buildSubset(t, 2018, "Seed4.me", "WorldVPN")
		w.EnableFaults(faultsim.Lossy)
		return w
	}
	// First half: kill the campaign once 3 outcomes are in its log.
	dir := t.TempDir()
	mustInterrupt(t, interruptIntoLog(t, build, dir, 3, 2, false), false)

	tel := flightrec.NewRing(1 << 14)
	resumeLog(t, build, dir, 2, tel)

	snap := tel.Metrics()
	c := snap.Campaign
	if c.SlotsResumed == 0 {
		t.Error("resumed run recorded no resumed slots")
	}
	if c.SlotsDone != c.SlotsTotal {
		t.Errorf("resumed run incomplete: %d/%d slots", c.SlotsDone, c.SlotsTotal)
	}
	if c.SlotsCommitted+c.SlotsResumed+c.QuarantineSkipped != c.SlotsDone {
		t.Errorf("slot accounting leak: committed %d + resumed %d + skipped %d != done %d",
			c.SlotsCommitted, c.SlotsResumed, c.QuarantineSkipped, c.SlotsDone)
	}
}
