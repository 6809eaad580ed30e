// Recovery and result tests: the sealed outcome log is a campaign's
// only result, so recovery reads "done" off the seal and the result
// endpoint folds the log on request.
package server

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	runner "vpnscope/internal/campaign"
	"vpnscope/internal/study"
)

// sealedState writes a state dir holding spec as campaign id with its
// outcome log run to the seal: what a daemon killed after MarkComplete
// but before publishing done leaves behind.
func sealedState(t *testing.T, id string, spec CampaignSpec) string {
	t.Helper()
	stateDir := t.TempDir()
	raw, err := json.Marshal(specFile{ID: id, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stateDir, id+".spec.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	audits, err := runner.Run(context.Background(), runner.Spec(spec), filepath.Join(stateDir, id+".outcomes"), runner.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range audits {
		a.Log.Close()
	}
	return stateDir
}

// noRerun makes any world build or measurement fail the test.
func noRerun(t *testing.T) {
	withSeams(t, func(*CampaignSpec, int) (*study.World, error) {
		t.Error("recovery rebuilt a world")
		return &study.World{}, nil
	}, func(*study.World, study.RunConfig) (*study.Result, error) {
		t.Error("recovery measured a slot")
		return &study.Result{}, nil
	})
}

// TestRecoverySealedIsDone: a daemon killed after sealing a campaign's
// log but before its done event restarts with the campaign done,
// measures nothing, and serves the one-shot envelope.
func TestRecoverySealedIsDone(t *testing.T) {
	spec := smallSpec(13)
	want := oneShotEnvelope(t, spec)
	const id = "c00000001"
	stateDir := sealedState(t, id, spec)

	noRerun(t)
	d := newTestDaemon(t, Config{StateDir: stateDir, FleetWorkers: 1})
	c, ok := d.Campaign(id)
	if !ok || c.status().State != StateDone {
		t.Fatalf("sealed campaign not recovered as done (found %v)", ok)
	}
	rr := get(t, d, "/campaigns/"+id+"/result")
	if rr.Code != 200 || rr.Body.String() != string(want) {
		t.Fatalf("result = %d, %d bytes; want 200 with the %d-byte one-shot envelope", rr.Code, rr.Body.Len(), len(want))
	}
}

// TestRecoveryErrorMarkerWinsOverSeal: a campaign with both a sealed
// log and an error marker failed; recovery says so.
func TestRecoveryErrorMarkerWinsOverSeal(t *testing.T) {
	const id = "c00000001"
	stateDir := sealedState(t, id, smallSpec(13))
	if err := os.WriteFile(filepath.Join(stateDir, id+".error"), []byte("panic: after the seal"), 0o644); err != nil {
		t.Fatal(err)
	}
	noRerun(t)
	d := newTestDaemon(t, Config{StateDir: stateDir, FleetWorkers: 1})
	c, ok := d.Campaign(id)
	if !ok {
		t.Fatalf("campaign %s not recovered", id)
	}
	if st := c.status(); st.State != StateFailed || st.Error != "panic: after the seal" {
		t.Fatalf("recovered %s (%q), want failed with the marker's detail", st.State, st.Error)
	}
	if rr := get(t, d, "/campaigns/"+id+"/result"); rr.Code != 409 {
		t.Fatalf("result of a failed campaign = %d, want 409", rr.Code)
	}
}

// catalogMonthsSummary is the summary file an earlier daemon wrote for
// the spec in TestCatalogResultMatchesSummaryFile, byte for byte.
const catalogMonthsSummary = `{
  "catalog": 3,
  "months": 1,
  "providers": 3,
  "audits": [
    {
      "month": 0,
      "outcomes": 13,
      "reports": 13,
      "failures": 0,
      "quarantined": 0
    },
    {
      "month": 1,
      "outcomes": 13,
      "reports": 13,
      "failures": 0,
      "quarantined": 0
    }
  ]
}
`

// TestCatalogResultMatchesSummaryFile: the result folded from a catalog
// campaign's month logs is byte-identical to the summary file the
// daemon used to write, for a fresh run and after a restart.
func TestCatalogResultMatchesSummaryFile(t *testing.T) {
	spec := CampaignSpec{Seed: 2018, Catalog: 3, Months: 1, Shards: 2, Workers: 2,
		VPsPerProvider: 2, ExtraTLSHosts: 10, LandmarkCount: 20}
	stateDir := t.TempDir()
	d := newTestDaemon(t, Config{StateDir: stateDir, FleetWorkers: 2})
	c := submitOK(t, d, spec)
	waitState(t, c, StateDone)
	if got := get(t, d, "/campaigns/"+c.id+"/result").Body.String(); got != catalogMonthsSummary {
		t.Fatalf("catalog result:\n%s\nwant:\n%s", got, catalogMonthsSummary)
	}
	d.Drain()

	noRerun(t)
	d2 := newTestDaemon(t, Config{StateDir: stateDir, FleetWorkers: 2})
	if got := get(t, d2, "/campaigns/"+c.id+"/result").Body.String(); got != catalogMonthsSummary {
		t.Fatalf("recovered catalog result:\n%s\nwant:\n%s", got, catalogMonthsSummary)
	}
}
