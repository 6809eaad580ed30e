// Shared kill/resume harness: every durable campaign streams into a
// shard log, so every kill/resume suite interrupts a campaign at an
// outcome boundary, resumes it from the recovered log, and compares the
// envelope of the sealed log's fold against the uninterrupted run's.
package study_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"vpnscope/internal/flightrec"
	"vpnscope/internal/results/shardlog"
	"vpnscope/internal/study"
)

// lossyLog pins the one-shard log of the lossy subset campaigns.
var lossyLog = shardlog.Meta{Seed: 2018, Shards: 1, FaultProfile: "lossy"}

// interruptIntoLog streams build()'s campaign on par workers into the
// log at dir and stops it once k outcomes are durable: with cancel,
// through RunConfig.Ctx (the daemon's drain path); otherwise the sink
// fails right after the k-th append, as a killed process stops
// appending. It returns the interrupted run's error.
func interruptIntoLog(t *testing.T, build func() *study.World, dir string, k, par int, cancel bool) error {
	t.Helper()
	lg, err := shardlog.Open(dir, lossyLog)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	_, err = build().RunWith(study.RunConfig{
		Parallel: par,
		Ctx:      ctx,
		Stream: func(o study.Outcome) error {
			if err := lg.Append(o); err != nil {
				return err
			}
			if lg.NextRank() == k {
				if !cancel {
					return errKilled
				}
				stop()
			}
			return nil
		},
	})
	return err
}

// resumeLog recovers the log at dir, resumes build()'s campaign from it
// on par workers recording into r (nil: no recorder), seals the log,
// and returns the envelope of its fold.
func resumeLog(t *testing.T, build func() *study.World, dir string, par int, r *flightrec.Ring) []byte {
	t.Helper()
	lg, err := shardlog.Open(dir, lossyLog)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	cfg := study.RunConfig{Parallel: par, Stream: lg.Append, Flight: r}
	if lg.NextRank() > 0 {
		cfg.Resume = lg.Scan
	}
	if _, err := build().RunWith(cfg); err != nil {
		t.Fatalf("resume from %d outcomes on %d workers: %v", lg.NextRank(), par, err)
	}
	if err := lg.MarkComplete(); err != nil {
		t.Fatal(err)
	}
	res, err := lg.Result()
	if err != nil {
		t.Fatal(err)
	}
	return envelope(t, res)
}

// durable reports how many outcomes the log at dir holds.
func durable(t *testing.T, dir string) int {
	t.Helper()
	lg, err := shardlog.Open(dir, lossyLog)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	return lg.NextRank()
}

// copyLog duplicates the log at src into a fresh directory, so one
// interruption can be resumed several ways.
func copyLog(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// mustInterrupt fails the test unless err is the interruption
// interruptIntoLog asked for.
func mustInterrupt(t *testing.T, err error, cancel bool) {
	t.Helper()
	want := errKilled
	if cancel {
		want = study.ErrCanceled
	}
	if !errors.Is(err, want) {
		t.Fatalf("interrupted run error = %v, want %v", err, want)
	}
}
