// Streaming-mode validation: RunConfig.Stream must hand the committer's
// canonical outcome sequence to the sink exactly once, in rank order,
// without retaining reports in the returned Result — and a campaign
// streamed into a sharded outcome log must survive kill -9 at any
// outcome boundary (including torn tail writes) and resume to shard
// files byte-identical to an uninterrupted run's, whose fold is the
// in-memory run's envelope.
package study_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vpnscope/internal/faultsim"
	"vpnscope/internal/results/shardlog"
	"vpnscope/internal/study"
)

func streamWorld(t testing.TB) *study.World {
	w := buildSubset(t, 2018, "Seed4.me", "WorldVPN", "Windscribe")
	w.EnableFaults(faultsim.Lossy)
	return w
}

// TestStreamMatchesRetainedRun: the streamed outcome sequence must carry
// exactly the reports, failures, and recoveries a retained-mode run
// accumulates, in canonical rank order, while the streaming run's own
// Result stays lean.
func TestStreamMatchesRetainedRun(t *testing.T) {
	ref, err := streamWorld(t).RunWith(study.RunConfig{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}

	var outs []study.Outcome
	lean, err := streamWorld(t).RunWith(study.RunConfig{
		Parallel: 1,
		Stream:   func(o study.Outcome) error { outs = append(outs, o); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(lean.Reports) != 0 {
		t.Fatalf("streaming Result retained %d reports, want 0", len(lean.Reports))
	}
	if lean.VPsAttempted != ref.VPsAttempted {
		t.Fatalf("VPsAttempted = %d, want %d", lean.VPsAttempted, ref.VPsAttempted)
	}
	if len(outs) != ref.VPsAttempted {
		t.Fatalf("streamed %d outcomes, want %d", len(outs), ref.VPsAttempted)
	}
	var reps, fails, recs, skips int
	for i, o := range outs {
		if o.Rank != i {
			t.Fatalf("outcome %d carries rank %d", i, o.Rank)
		}
		switch {
		case o.Report != nil:
			if !bytes.Equal(mustJSON(t, o.Report), mustJSON(t, ref.Reports[reps])) {
				t.Fatalf("rank %d: streamed report differs from retained report %d", i, reps)
			}
			reps++
			if o.Recovery != nil {
				recs++
			}
		case o.Failure != nil:
			fails++
		case o.Skip != nil:
			skips++
		default:
			t.Fatalf("rank %d carries no outcome", i)
		}
	}
	if reps != len(ref.Reports) || fails != len(ref.ConnectFailures) || recs != len(ref.Recoveries) {
		t.Fatalf("streamed %d/%d/%d reports/failures/recoveries, want %d/%d/%d",
			reps, fails, recs, len(ref.Reports), len(ref.ConnectFailures), len(ref.Recoveries))
	}
	wantSkips := 0
	for _, q := range ref.Quarantines {
		wantSkips += len(q.SkippedVPs)
	}
	if skips != wantSkips {
		t.Fatalf("streamed %d skips, want %d", skips, wantSkips)
	}
}

// TestResumeRequiresStream: resuming is continuing a campaign's outcome
// log, so a Resume without a Stream sink is a configuration error.
func TestResumeRequiresStream(t *testing.T) {
	_, err := streamWorld(t).RunWith(study.RunConfig{
		Parallel: 1,
		Resume:   func(func(study.Outcome) error) error { return nil },
	})
	if err == nil {
		t.Fatal("Resume without Stream accepted")
	}
}

// streamGolden runs the campaign uninterrupted into a shard log and
// returns the concatenated shard bytes.
func streamGolden(t *testing.T, dir string, meta shardlog.Meta) []byte {
	t.Helper()
	l, err := shardlog.Open(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := streamWorld(t).RunWith(study.RunConfig{Parallel: 1, Stream: l.Append}); err != nil {
		t.Fatal(err)
	}
	if err := l.MarkComplete(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return studyShardBytes(t, dir, meta.Shards)
}

func studyShardBytes(t *testing.T, dir string, shards int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := 0; i < shards; i++ {
		raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("shard-%03d.ndjson", i)))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "== shard %d ==\n", i)
		buf.Write(raw)
	}
	return buf.Bytes()
}

var errKilled = errors.New("simulated kill")

// streamKilledAt streams the campaign into dir, aborting after k
// outcomes reach the log (optionally leaving a torn half-written line,
// as a real kill -9 mid-write would), then recovers the log, rebuilds
// the lean Result from it, and resumes to completion. Returns the final
// shard bytes and the envelope of the sealed log's fold.
func streamKilledAt(t *testing.T, dir string, meta shardlog.Meta, k, killPar, resumePar int, torn bool) (shards, env []byte) {
	t.Helper()
	l, err := shardlog.Open(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	_, err = streamWorld(t).RunWith(study.RunConfig{
		Parallel: killPar,
		Stream: func(o study.Outcome) error {
			if n == k {
				return errKilled
			}
			n++
			return l.Append(o)
		},
	})
	if !errors.Is(err, errKilled) {
		t.Fatalf("kill at %d: err = %v, want simulated kill", k, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if torn {
		path := filepath.Join(dir, fmt.Sprintf("shard-%03d.ndjson", k%meta.Shards))
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(f, `{"Rank":%d,"Report":{"Provider":"torn`, k)
		f.Close()
	}

	re, err := shardlog.Open(dir, meta)
	if err != nil {
		t.Fatalf("kill at %d: recovery: %v", k, err)
	}
	if re.NextRank() != k {
		t.Fatalf("kill at %d: recovered NextRank = %d", k, re.NextRank())
	}
	res, err := streamWorld(t).RunWith(study.RunConfig{
		Parallel: resumePar,
		Resume:   re.Scan,
		Stream:   re.Append,
	})
	if err != nil {
		t.Fatalf("kill at %d: resumed run: %v", k, err)
	}
	if re.NextRank() != res.VPsAttempted {
		t.Fatalf("kill at %d: log holds %d outcomes, campaign counted %d", k, re.NextRank(), res.VPsAttempted)
	}
	if err := re.MarkComplete(); err != nil {
		t.Fatal(err)
	}
	full, err := re.Result()
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	return studyShardBytes(t, dir, meta.Shards), envelope(t, full)
}

// TestStreamKillResumeByteIdentical is the quick form: kill a
// sequential and a parallel streaming campaign mid-run (one with a torn
// tail write), resume each from its recovered shard log, and require
// shard files byte-identical to the uninterrupted run's, folding to the
// in-memory run's envelope.
func TestStreamKillResumeByteIdentical(t *testing.T) {
	meta := shardlog.Meta{Seed: 2018, Shards: 3, FaultProfile: "lossy"}
	golden := streamGolden(t, t.TempDir(), meta)
	ref, err := streamWorld(t).RunWith(study.RunConfig{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	refEnv := envelope(t, ref)
	got, env := streamKilledAt(t, t.TempDir(), meta, 2, 1, 8, false)
	if !bytes.Equal(got, golden) {
		t.Error("sequential kill at 2: resumed shard bytes differ from uninterrupted run")
	}
	if !bytes.Equal(env, refEnv) {
		t.Error("sequential kill at 2: folded envelope differs from the in-memory run's")
	}
	got, env = streamKilledAt(t, t.TempDir(), meta, 3, 8, 1, true)
	if !bytes.Equal(got, golden) {
		t.Error("parallel kill at 3 with torn tail: resumed shard bytes differ")
	}
	if !bytes.Equal(env, refEnv) {
		t.Error("parallel kill at 3 with torn tail: folded envelope differs from the in-memory run's")
	}
}

// TestStreamKillResumeFuzz kills at every outcome boundary, alternating
// sequential and parallel execution and torn/clean tails. Whatever the
// kill point, the recovered-and-resumed shard log must be byte-identical
// to the uninterrupted reference.
func TestStreamKillResumeFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("stream kill/resume fuzz in -short mode")
	}
	meta := shardlog.Meta{Seed: 2018, Shards: 3, FaultProfile: "lossy"}
	golden := streamGolden(t, t.TempDir(), meta)
	ref, err := streamWorld(t).RunWith(study.RunConfig{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	refEnv := envelope(t, ref)
	for k := 0; k < ref.VPsAttempted; k++ {
		killPar, resumePar := 1, 8
		if k%2 == 1 {
			killPar, resumePar = 8, 1
		}
		got, env := streamKilledAt(t, t.TempDir(), meta, k, killPar, resumePar, k%3 == 1)
		if !bytes.Equal(got, golden) {
			t.Errorf("kill at %d (par %d->%d): resumed shard bytes differ from uninterrupted run", k, killPar, resumePar)
		}
		if !bytes.Equal(env, refEnv) {
			t.Errorf("kill at %d (par %d->%d): folded envelope differs from the in-memory run's", k, killPar, resumePar)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
