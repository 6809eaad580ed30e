package shardlog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vpnscope/internal/capture"
	"vpnscope/internal/study"
	"vpnscope/internal/vpntest"
)

// fakeOutcomes fabricates a deterministic outcome sequence exercising
// every record kind: reports (some with recoveries), failures, and a
// quarantined provider's skip run.
func fakeOutcomes(n int) []study.Outcome {
	out := make([]study.Outcome, 0, n)
	for i := 0; i < n; i++ {
		prov := fmt.Sprintf("Provider%d", i/5)
		label := fmt.Sprintf("%s#%d (US)", prov, i%5)
		o := study.Outcome{Rank: i}
		switch {
		case i%11 == 3:
			o.Failure = &study.ConnectFailure{Provider: prov, VPLabel: label, Err: "refused", Attempts: 3}
		case i%17 == 5:
			o.Skip = &study.SkippedVP{Provider: prov, VPLabel: label, TrippedAfter: 2}
		default:
			o.Report = &vpntest.VPReport{Provider: prov, VPLabel: label, ClaimedCountry: "US"}
			if i%7 == 1 {
				o.Recovery = &study.Recovery{Provider: prov, VPLabel: label, Attempts: 2}
			}
		}
		out = append(out, o)
	}
	return out
}

func writeAll(t *testing.T, dir string, meta Meta, outs []study.Outcome, seal bool) {
	t.Helper()
	l, err := Open(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if err := l.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	if seal {
		if err := l.MarkComplete(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// shardBytes concatenates every shard file, keyed by name, for
// byte-identity comparisons.
func shardBytes(t *testing.T, dir string, shards int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := 0; i < shards; i++ {
		raw, err := os.ReadFile(filepath.Join(dir, shardName(i)))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "== shard %d ==\n", i)
		buf.Write(raw)
	}
	return buf.Bytes()
}

func TestAppendScanRoundtrip(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{Seed: 42, Shards: 3}
	outs := fakeOutcomes(40)
	writeAll(t, dir, meta, outs, true)

	l, err := OpenExisting(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !l.Complete() || l.NextRank() != 40 {
		t.Fatalf("complete=%v next=%d, want sealed 40", l.Complete(), l.NextRank())
	}
	i := 0
	err = l.Scan(func(o study.Outcome) error {
		want := outs[i]
		if o.Rank != want.Rank {
			t.Fatalf("rank %d, want %d", o.Rank, want.Rank)
		}
		switch {
		case want.Report != nil:
			if o.Report == nil || o.Report.VPLabel != want.Report.VPLabel {
				t.Fatalf("rank %d: report mismatch", i)
			}
		case want.Failure != nil:
			if o.Failure == nil || o.Failure.Err != want.Failure.Err {
				t.Fatalf("rank %d: failure mismatch", i)
			}
		case want.Skip != nil:
			if o.Skip == nil || o.Skip.TrippedAfter != want.Skip.TrippedAfter {
				t.Fatalf("rank %d: skip mismatch", i)
			}
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != 40 {
		t.Fatalf("scanned %d outcomes, want 40", i)
	}
}

func TestReportsSeqIsReIterable(t *testing.T) {
	dir := t.TempDir()
	outs := fakeOutcomes(30)
	writeAll(t, dir, Meta{Seed: 1, Shards: 4}, outs, true)
	l, err := OpenExisting(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var scanErr error
	count := func() int {
		n := 0
		for range l.Reports(&scanErr) {
			n++
		}
		return n
	}
	a, b := count(), count()
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	want := 0
	for _, o := range outs {
		if o.Report != nil {
			want++
		}
	}
	if a != want || b != want {
		t.Fatalf("iterations saw %d then %d reports, want %d both times", a, b, want)
	}
	// Early break must not poison the error slot.
	for range l.Reports(&scanErr) {
		break
	}
	if scanErr != nil {
		t.Fatalf("early break reported error: %v", scanErr)
	}
}

// TestRecoveryIsByteIdentical is the kill/resume fuzz pass: for every
// kill point — including torn half-written tail lines — recovering the
// log and appending the remaining outcomes must reproduce an
// uninterrupted run's shard files byte for byte.
func TestRecoveryIsByteIdentical(t *testing.T) {
	const n, shards = 24, 3
	meta := Meta{Seed: 7, Shards: shards}
	outs := fakeOutcomes(n)
	golden := t.TempDir()
	writeAll(t, golden, meta, outs, true)
	want := shardBytes(t, golden, shards)

	for kill := 0; kill <= n; kill++ {
		for _, torn := range []bool{false, true} {
			dir := t.TempDir()
			l, err := Open(dir, meta)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range outs[:kill] {
				if err := l.Append(o); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
			if torn {
				// Simulate a kill -9 mid-write: a partial JSON line with
				// no newline on the shard the next rank would land on.
				path := filepath.Join(dir, shardName(kill%shards))
				f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(f, `{"Rank":%d,"Report":{"Prov`, kill)
				f.Close()
			}
			re, err := Open(dir, meta)
			if err != nil {
				t.Fatalf("kill=%d torn=%v: %v", kill, torn, err)
			}
			if re.NextRank() != kill {
				t.Fatalf("kill=%d torn=%v: NextRank=%d", kill, torn, re.NextRank())
			}
			for _, o := range outs[kill:] {
				if err := re.Append(o); err != nil {
					t.Fatal(err)
				}
			}
			if err := re.MarkComplete(); err != nil {
				t.Fatal(err)
			}
			re.Close()
			if got := shardBytes(t, dir, shards); !bytes.Equal(got, want) {
				t.Fatalf("kill=%d torn=%v: shard bytes differ from uninterrupted run", kill, torn)
			}
		}
	}
}

// TestRecoveryTruncatesPastPrefix: records beyond the maximal
// contiguous rank prefix (a later shard surviving a crash that lost an
// earlier shard's write) are discarded.
func TestRecoveryTruncatesPastPrefix(t *testing.T) {
	const shards = 3
	meta := Meta{Seed: 9, Shards: shards}
	dir := t.TempDir()
	outs := fakeOutcomes(10)
	writeAll(t, dir, meta, outs, false)
	// Drop the LAST record of shard 1 (rank 7): ranks 8, 9 in shards 2, 0
	// are now past the contiguous prefix and must go too.
	path := filepath.Join(dir, shardName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if err := os.WriteFile(path, bytes.Join(lines[:len(lines)-2], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.NextRank() != 7 {
		t.Fatalf("NextRank = %d, want 7", l.NextRank())
	}
	n := 0
	if err := l.Scan(func(o study.Outcome) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("scanned %d, want 7", n)
	}
}

func TestResumeLeanResult(t *testing.T) {
	dir := t.TempDir()
	outs := fakeOutcomes(40)
	writeAll(t, dir, Meta{Seed: 3, Shards: 5}, outs, false)
	l, err := OpenExisting(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	res, err := l.Lean()
	if err != nil {
		t.Fatal(err)
	}
	if res.VPsAttempted != 40 {
		t.Fatalf("VPsAttempted = %d, want 40", res.VPsAttempted)
	}
	wantReports, wantFails, wantRecs, wantSkips := 0, 0, 0, 0
	for _, o := range outs {
		switch {
		case o.Failure != nil:
			wantFails++
		case o.Skip != nil:
			wantSkips++
		default:
			wantReports++
			if o.Recovery != nil {
				wantRecs++
			}
		}
	}
	if len(res.Reports) != wantReports || len(res.ConnectFailures) != wantFails || len(res.Recoveries) != wantRecs {
		t.Fatalf("lean result %d/%d/%d, want %d/%d/%d",
			len(res.Reports), len(res.ConnectFailures), len(res.Recoveries),
			wantReports, wantFails, wantRecs)
	}
	gotSkips := 0
	for _, q := range res.Quarantines {
		if q.TrippedAfter != 2 {
			t.Fatalf("quarantine TrippedAfter = %d, want 2", q.TrippedAfter)
		}
		gotSkips += len(q.SkippedVPs)
	}
	if gotSkips != wantSkips {
		t.Fatalf("quarantine skips %d, want %d", gotSkips, wantSkips)
	}
	for _, rep := range res.Reports {
		if rep.Provider == "" || rep.VPLabel == "" {
			t.Fatal("lean report stub missing identity")
		}
	}
}

func TestMetaMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	writeAll(t, dir, Meta{Seed: 5, Shards: 2}, fakeOutcomes(4), false)
	if _, err := Open(dir, Meta{Seed: 6, Shards: 2}); err == nil {
		t.Fatal("different seed accepted")
	}
	if _, err := Open(dir, Meta{Seed: 5, Shards: 4}); err == nil {
		t.Fatal("different shard count accepted")
	}
	if _, err := Open(dir, Meta{Seed: 5, Shards: 2, FaultProfile: "lossy"}); err == nil {
		t.Fatal("different fault profile accepted")
	}
}

func TestAppendRankGap(t *testing.T) {
	l, err := Open(t.TempDir(), Meta{Seed: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(study.Outcome{Rank: 1, Report: &vpntest.VPReport{Provider: "P", VPLabel: "P#0"}}); err == nil {
		t.Fatal("rank gap accepted")
	}
}

func TestAppendStripsCaptures(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Meta{Seed: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := &vpntest.VPReport{Provider: "P", VPLabel: "P#0"}
	rep.Captures = []capture.Record{{Interface: "tun0", Data: []byte{1, 2, 3}}}
	if err := l.Append(study.Outcome{Rank: 0, Report: rep}); err != nil {
		t.Fatal(err)
	}
	if rep.Captures == nil {
		t.Fatal("Append mutated the caller's report")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenExisting(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Scan(func(o study.Outcome) error {
		if len(o.Report.Captures) != 0 {
			t.Fatal("captures survived the round trip")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkShardedOutcomes gates the bounded-memory merge: allocations
// per scanned outcome must stay constant regardless of campaign size,
// so figures generation over a 200-provider sweep cannot silently
// regress into materializing the result set. The ceiling is per
// outcome, enforced even at -benchtime 1x.
func BenchmarkShardedOutcomes(b *testing.B) {
	const n = 400
	dir := b.TempDir()
	outs := fakeOutcomes(n)
	l, err := Open(dir, Meta{Seed: 11, Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range outs {
		if err := l.Append(o); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.MarkComplete(); err != nil {
		b.Fatal(err)
	}
	defer l.Close()

	count := 0
	allocs := testing.AllocsPerRun(3, func() {
		count = 0
		if err := l.Scan(func(o study.Outcome) error { count++; return nil }); err != nil {
			b.Fatal(err)
		}
	})
	if count != n {
		b.Fatalf("scanned %d outcomes, want %d", count, n)
	}
	perOutcome := allocs / float64(n)
	b.ReportMetric(perOutcome, "allocs/outcome")
	// JSON-decoding one outcome costs ~30-60 allocations; triple-digit
	// per-outcome counts would mean the scan started accumulating.
	const ceiling = 100
	if perOutcome > ceiling {
		b.Fatalf("Scan allocates %.1f allocs/outcome, ceiling %d", perOutcome, ceiling)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Scan(func(o study.Outcome) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
