// Resume-input validation and the quarantine breaker across
// kill/resume: a log resumes only the campaign it came from, and a
// breaker tripped before the kill keeps skipping after it.
package study_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vpnscope/internal/faultsim"
	"vpnscope/internal/results/shardlog"
	"vpnscope/internal/study"
)

// TestResumeForeignLogRefused: a log whose outcomes name other vantage
// points than the campaign's slots is refused before anything is
// measured or streamed, with an error naming the first mismatched rank
// and both vantage points.
func TestResumeForeignLogRefused(t *testing.T) {
	dir := t.TempDir()
	build := func() *study.World { return streamWorld(t) }
	mustInterrupt(t, interruptIntoLog(t, build, dir, 3, 1, false), false)

	lg, err := shardlog.Open(dir, lossyLog)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	w := buildSubset(t, 2018, "WorldVPN", "Windscribe")
	w.EnableFaults(faultsim.Lossy)
	streamed := 0
	_, err = w.RunWith(study.RunConfig{
		Parallel: 1,
		Resume:   lg.Scan,
		Stream:   func(study.Outcome) error { streamed++; return nil },
	})
	if streamed != 0 {
		t.Errorf("foreign resume streamed %d outcomes, want 0", streamed)
	}
	if err == nil {
		t.Fatal("foreign log resumed without error")
	}
	for _, want := range []string{"rank 0", "Seed4.me#0 (AU)", "WorldVPN#0 (NL)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestQuarantineKillResumeFuzz kills a campaign whose every provider
// trips its breaker at every outcome boundary, under 1 and 2 workers,
// and resumes each log under 1, 2, and 4 workers. A resumed skip must
// keep the provider quarantined with its original TrippedAfter, so
// every sealed log holds the uninterrupted log's bytes and its
// envelope equals the uninterrupted in-memory run's.
func TestQuarantineKillResumeFuzz(t *testing.T) {
	dead := faultsim.Profile{Name: "dead", ConnectRefusalRate: 1}
	build := func() *study.World {
		w := buildSubset(t, 2018, "Seed4.me", "WorldVPN", "Windscribe")
		w.EnableFaults(dead)
		return w
	}
	meta := shardlog.Meta{Seed: 2018, Shards: 1, FaultProfile: dead.Name}
	ref, err := build().RunWith(study.RunConfig{QuarantineAfter: 2, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Quarantines) != 3 {
		t.Fatalf("reference quarantines = %d, want all 3 dead providers tripped", len(ref.Quarantines))
	}
	refBytes := envelope(t, ref)

	// run streams the campaign into the log at dir on par workers,
	// resuming whatever the log holds; it stops with errKilled once
	// kill outcomes are durable, and seals the log if it finishes.
	run := func(dir string, par, kill int) error {
		lg, err := shardlog.Open(dir, meta)
		if err != nil {
			t.Fatal(err)
		}
		defer lg.Close()
		cfg := study.RunConfig{QuarantineAfter: 2, Parallel: par, Stream: func(o study.Outcome) error {
			if err := lg.Append(o); err != nil {
				return err
			}
			if lg.NextRank() == kill {
				return errKilled
			}
			return nil
		}}
		if lg.NextRank() > 0 {
			cfg.Resume = lg.Scan
		}
		if _, err := build().RunWith(cfg); err != nil {
			return err
		}
		return lg.MarkComplete()
	}

	shard := func(dir string) []byte {
		raw, err := os.ReadFile(filepath.Join(dir, "shard-000.ndjson"))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	golden := t.TempDir()
	if err := run(golden, 1, -1); err != nil {
		t.Fatal(err)
	}
	goldenBytes := shard(golden)

	for k := 1; k <= ref.VPsAttempted; k++ {
		for _, killPar := range []int{1, 2} {
			dir := t.TempDir()
			if err := run(dir, killPar, k); !errors.Is(err, errKilled) {
				t.Fatalf("k=%d: interrupted run error = %v", k, err)
			}
			for _, resumePar := range []int{1, 2, 4} {
				resumed := copyLog(t, dir)
				if err := run(resumed, resumePar, -1); err != nil {
					t.Fatalf("k=%d: resume on %d workers: %v", k, resumePar, err)
				}
				lg, err := shardlog.Open(resumed, meta)
				if err != nil {
					t.Fatal(err)
				}
				res, err := lg.Result()
				lg.Close()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(goldenBytes, shard(resumed)) {
					t.Errorf("k=%d (killed under Parallel=%d, resumed under Parallel=%d): shard bytes differ from the uninterrupted log's",
						k, killPar, resumePar)
				}
				if !bytes.Equal(refBytes, envelope(t, res)) {
					t.Errorf("k=%d (killed under Parallel=%d, resumed under Parallel=%d): envelope differs from reference",
						k, killPar, resumePar)
				}
			}
		}
	}
}
