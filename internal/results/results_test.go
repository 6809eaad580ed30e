package results_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"vpnscope/internal/analysis"
	"vpnscope/internal/capture"
	"vpnscope/internal/ecosystem"
	"vpnscope/internal/results"
	"vpnscope/internal/results/shardlog"
	"vpnscope/internal/study"
	"vpnscope/internal/vpn"
)

// smallStudy runs one leaky provider with captures on.
func smallStudy(t *testing.T) *study.Result {
	t.Helper()
	all := ecosystem.TestedSpecs(5, 5)
	var specs []vpn.ProviderSpec
	for _, s := range all {
		if s.Name == "WorldVPN" || s.Name == "CyberGhost" {
			for i := range s.VantagePoints {
				s.VantagePoints[i].Reliability = 1
			}
			specs = append(specs, s)
		}
	}
	w, err := study.Build(study.Options{
		Seed: 5, ExtraTLSHosts: 5, Providers: specs, LandmarkCount: 8,
		CollectCaptures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSaveLoadRoundTrip(t *testing.T) {
	res := smallStudy(t)
	var buf bytes.Buffer
	if err := results.Save(&buf, res, results.WithSeed(5)); err != nil {
		t.Fatal(err)
	}
	back, env, err := results.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if env.Schema != results.SchemaVersion || env.Seed != 5 {
		t.Errorf("envelope = %+v", env)
	}
	if len(back.Reports) != len(res.Reports) || back.VPsAttempted != res.VPsAttempted {
		t.Fatalf("shape changed: %d/%d reports", len(back.Reports), len(res.Reports))
	}
	// The loaded reports drive the same analyses to the same verdicts.
	origLeaks := analysis.Leaks(analysis.Slice(res.Reports))
	backLeaks := analysis.Leaks(analysis.Slice(back.Reports))
	if strings.Join(origLeaks.DNSLeakers, ",") != strings.Join(backLeaks.DNSLeakers, ",") {
		t.Errorf("DNS leakers diverged: %v vs %v", origLeaks.DNSLeakers, backLeaks.DNSLeakers)
	}
	if strings.Join(origLeaks.IPv6Leakers, ",") != strings.Join(backLeaks.IPv6Leakers, ",") {
		t.Errorf("IPv6 leakers diverged: %v vs %v", origLeaks.IPv6Leakers, backLeaks.IPv6Leakers)
	}
	origProx := analysis.TransparentProxies(analysis.Slice(res.Reports))
	backProx := analysis.TransparentProxies(analysis.Slice(back.Reports))
	if strings.Join(origProx, ",") != strings.Join(backProx, ",") {
		t.Errorf("proxies diverged: %v vs %v", origProx, backProx)
	}
	// Per-report scalar fields survive.
	for i := range res.Reports {
		if res.Reports[i].Provider != back.Reports[i].Provider ||
			res.Reports[i].VPLabel != back.Reports[i].VPLabel ||
			res.Reports[i].ClaimedCountry != back.Reports[i].ClaimedCountry {
			t.Fatalf("report %d identity changed", i)
		}
		if res.Reports[i].EgressIP() != back.Reports[i].EgressIP() {
			t.Errorf("report %d egress changed", i)
		}
	}
}

func TestCapturesExcludedByDefault(t *testing.T) {
	res := smallStudy(t)
	hasCaptures := false
	for _, r := range res.Reports {
		if len(r.Captures) > 0 {
			hasCaptures = true
		}
	}
	if !hasCaptures {
		t.Fatal("study should have collected captures")
	}
	var lean, fat bytes.Buffer
	if err := results.Save(&lean, res); err != nil {
		t.Fatal(err)
	}
	if err := results.Save(&fat, res, results.IncludeCaptures()); err != nil {
		t.Fatal(err)
	}
	if lean.Len() >= fat.Len() {
		t.Errorf("lean %d bytes should be smaller than fat %d", lean.Len(), fat.Len())
	}
	// Saving must not mutate the in-memory reports.
	still := false
	for _, r := range res.Reports {
		if len(r.Captures) > 0 {
			still = true
		}
	}
	if !still {
		t.Error("Save stripped captures from the live result")
	}
	// Captures survive the fat round trip.
	back, _, err := results.Load(&fat)
	if err != nil {
		t.Fatal(err)
	}
	var rec []capture.Record
	for _, r := range back.Reports {
		rec = append(rec, r.Captures...)
	}
	if len(rec) == 0 {
		t.Error("captures lost in IncludeCaptures round trip")
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	if _, _, err := results.Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage must fail")
	}
	if _, _, err := results.Load(strings.NewReader(`{"schema": 99}`)); err == nil {
		t.Error("future schema must fail")
	}
}

func TestLoadV1BackwardCompat(t *testing.T) {
	// A literal v1 envelope, as written before schema v2 existed.
	v1 := `{
	  "schema": 1,
	  "seed": 11,
	  "vps_attempted": 2,
	  "connect_failures": [
	    {"Provider": "GhostNet", "VPLabel": "ghostnet-1 (US)", "Err": "refused"}
	  ],
	  "reports": [
	    {"Provider": "GhostNet", "VPLabel": "ghostnet-2 (DE)", "ClaimedCountry": "DE"}
	  ]
	}`
	res, env, err := results.Load(strings.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if env.Schema != 1 || env.Seed != 11 {
		t.Errorf("envelope = %+v", env)
	}
	if !env.Complete {
		t.Error("v1 envelopes predate checkpointing and must load as complete")
	}
	if len(res.Reports) != 1 || len(res.ConnectFailures) != 1 || res.VPsAttempted != 2 {
		t.Errorf("result shape = %d reports, %d failures, %d attempted",
			len(res.Reports), len(res.ConnectFailures), res.VPsAttempted)
	}
	if len(res.Recoveries) != 0 || len(res.Quarantines) != 0 {
		t.Error("v1 envelope must load with an empty resilience record")
	}
}

func TestV2ResilienceRoundTrip(t *testing.T) {
	res := &study.Result{
		VPsAttempted: 5,
		ConnectFailures: []study.ConnectFailure{
			{Provider: "GhostNet", VPLabel: "ghostnet-1 (US)", Err: "refused", Attempts: 3},
		},
		Recoveries: []study.Recovery{
			{Provider: "GhostNet", VPLabel: "ghostnet-2 (DE)", Attempts: 2},
		},
		Quarantines: []study.Quarantine{
			{Provider: "DeadNet", TrippedAfter: 2, SkippedVPs: []string{"deadnet-3 (FR)", "deadnet-4 (JP)"}},
		},
	}
	var buf bytes.Buffer
	err := results.Save(&buf, res, results.WithSeed(9), results.WithFaultProfile("lossy"))
	if err != nil {
		t.Fatal(err)
	}
	back, env, err := results.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !env.Complete {
		t.Error("a saved envelope must load as complete")
	}
	if env.FaultProfile != "lossy" {
		t.Errorf("fault profile = %q", env.FaultProfile)
	}
	if !reflect.DeepEqual(back, res) {
		t.Errorf("resilience record diverged:\n got %+v\nwant %+v", back, res)
	}
}

// TestOutcomeLogResume is the crash-recovery acceptance test: a
// campaign killed mid-run and resumed from its outcome log on a freshly
// built world (same seed) must fold into an envelope byte-identical to
// an uninterrupted campaign's.
func TestOutcomeLogResume(t *testing.T) {
	build := func() *study.World {
		all := ecosystem.TestedSpecs(7, 5)
		var specs []vpn.ProviderSpec
		for _, s := range all {
			switch s.Name {
			case "WorldVPN", "CyberGhost", "Windscribe":
				specs = append(specs, s)
			}
		}
		if len(specs) != 3 {
			t.Fatalf("resolved %d of 3 providers", len(specs))
		}
		w, err := study.Build(study.Options{
			Seed: 7, ExtraTLSHosts: 5, Providers: specs, LandmarkCount: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	ref, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}
	var refBuf bytes.Buffer
	if err := results.Save(&refBuf, ref, results.WithSeed(7)); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: every outcome appended to the log, die after the
	// third.
	dir := t.TempDir()
	meta := shardlog.Meta{Seed: 7, Shards: 1}
	lg, err := shardlog.Open(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	killed := errors.New("campaign killed")
	_, err = build().RunWith(study.RunConfig{
		Stream: func(o study.Outcome) error {
			if err := lg.Append(o); err != nil {
				return err
			}
			if lg.NextRank() == 3 {
				return killed
			}
			return nil
		},
	})
	if !errors.Is(err, killed) {
		t.Fatalf("interrupted run error = %v", err)
	}
	lg.Close()

	lg, err = shardlog.Open(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if lg.NextRank() != 3 || lg.Complete() {
		t.Fatalf("recovered log holds %d outcomes (sealed %v), want 3 unsealed", lg.NextRank(), lg.Complete())
	}
	if _, err := build().RunWith(study.RunConfig{Resume: lg.Scan, Stream: lg.Append}); err != nil {
		t.Fatal(err)
	}
	if err := lg.MarkComplete(); err != nil {
		t.Fatal(err)
	}
	resumed, err := lg.Result()
	if err != nil {
		t.Fatal(err)
	}
	var resBuf bytes.Buffer
	if err := results.Save(&resBuf, resumed, results.WithSeed(7)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refBuf.Bytes(), resBuf.Bytes()) {
		t.Error("resumed campaign is not byte-identical to the uninterrupted run")
	}
}
