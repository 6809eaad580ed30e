package shardlog

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"vpnscope/internal/study"
	"vpnscope/internal/vpntest"
)

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open descriptors: %v", err)
	}
	return len(entries)
}

// TestRefusedOpenReleasesFDs: an Open refused because the seal marker
// disagrees with the recovered outcome count must close every shard
// descriptor it opened.
func TestRefusedOpenReleasesFDs(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{Seed: 4, Shards: 5}
	writeAll(t, dir, meta, fakeOutcomes(12), true)
	if err := os.WriteFile(filepath.Join(dir, completeName), []byte("13\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := openFDs(t)
	for i := 0; i < 10; i++ {
		if _, err := Open(dir, meta); err == nil {
			t.Fatal("log sealed at 13 outcomes but holding 12 was accepted")
		}
	}
	if after := openFDs(t); after != before {
		t.Fatalf("open descriptors %d after refused opens, want %d", after, before)
	}
}

// TestInterruptedSealReopensUnsealed: a crash inside MarkComplete leaves
// at most an orphaned temp file, never a half-written seal marker, so
// the log reopens unsealed and resumes to the uninterrupted bytes.
func TestInterruptedSealReopensUnsealed(t *testing.T) {
	const n, shards = 14, 3
	meta := Meta{Seed: 8, Shards: shards}
	outs := fakeOutcomes(n)
	golden := t.TempDir()
	writeAll(t, golden, meta, outs, true)

	dir := t.TempDir()
	writeAll(t, dir, meta, outs[:9], false)
	// What an interrupted atomic write of complete.json leaves behind.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-1234567"), []byte("9"), 0o644); err != nil {
		t.Fatal(err)
	}
	if Sealed(dir) {
		t.Fatal("interrupted seal reads as sealed")
	}
	l, err := Open(dir, meta)
	if err != nil {
		t.Fatalf("reopening after an interrupted seal: %v", err)
	}
	if l.Complete() || l.NextRank() != 9 {
		t.Fatalf("reopened log: complete=%v next=%d, want unsealed at 9", l.Complete(), l.NextRank())
	}
	for _, o := range outs[9:] {
		if err := l.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.MarkComplete(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if !bytes.Equal(shardBytes(t, dir, shards), shardBytes(t, golden, shards)) {
		t.Fatal("resumed shard bytes differ from the uninterrupted run")
	}
	re, err := Open(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Complete() || re.NextRank() != n {
		t.Fatalf("sealed log reopened as complete=%v next=%d, want sealed %d", re.Complete(), re.NextRank(), n)
	}
}

// TestResultFoldsSealedLog: Result materializes every record of a
// sealed log in rank order and refuses an unsealed one.
func TestResultFoldsSealedLog(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{Seed: 6, Shards: 1}
	outs := fakeOutcomes(30)
	writeAll(t, dir, meta, outs, false)
	l, err := Open(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Result(); err == nil {
		t.Fatal("unsealed log folded into a result")
	}
	if err := l.MarkComplete(); err != nil {
		t.Fatal(err)
	}
	res, err := l.Result()
	if err != nil {
		t.Fatal(err)
	}
	var reports []*vpntest.VPReport
	for _, o := range outs {
		if o.Report != nil {
			reports = append(reports, o.Report)
		}
	}
	if res.VPsAttempted != len(outs) || len(res.Reports) != len(reports) {
		t.Fatalf("folded %d outcomes / %d reports, want %d / %d",
			res.VPsAttempted, len(res.Reports), len(outs), len(reports))
	}
	for i, rep := range res.Reports {
		if rep.VPLabel != reports[i].VPLabel || rep.ClaimedCountry != reports[i].ClaimedCountry {
			t.Fatalf("report %d = %s/%s, want %s/%s", i,
				rep.VPLabel, rep.ClaimedCountry, reports[i].VPLabel, reports[i].ClaimedCountry)
		}
	}
}

// recordLine is one valid shard-log line for rank.
func recordLine(rank int) []byte {
	line, err := json.Marshal(fakeOutcomes(rank + 1)[rank])
	if err != nil {
		panic(err)
	}
	return append(line, '\n')
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// FuzzShardlogRecover writes arbitrary bytes into one or two shard files
// of a K∈{1,3} log holding a valid prefix (appending after it, or
// replacing the file), then checks recovery: Open never panics or
// fails, it keeps a contiguous rank prefix (never losing the records
// that preceded the damage), a second Open changes nothing, and a fresh
// Append lands right after the recovered prefix.
func FuzzShardlogRecover(f *testing.F) {
	// Torn tails.
	f.Add(false, uint8(3), uint8(0), []byte(`{"Rank":3,"Report":{"Prov`), false, uint8(0), []byte(nil))
	f.Add(true, uint8(4), uint8(1), []byte(`{"Rank":4,"Rep`), false, uint8(2), []byte(`{"Ra`))
	// Duplicated ranks.
	f.Add(false, uint8(2), uint8(0), cat(recordLine(1), recordLine(2)), false, uint8(0), []byte(nil))
	f.Add(true, uint8(6), uint8(0), cat(recordLine(6), recordLine(6)), false, uint8(1), recordLine(4))
	// Ranks in the wrong shard.
	f.Add(true, uint8(6), uint8(0), recordLine(7), false, uint8(1), recordLine(6))
	f.Add(true, uint8(0), uint8(2), recordLine(0), true, uint8(0), recordLine(1))
	// Records that carry the right rank but no outcome, or one Scan
	// cannot decode, and a shard rewritten with a valid record in front
	// of garbage.
	f.Add(false, uint8(1), uint8(0), []byte("{\"Rank\":1}\nnull\n"), false, uint8(0), []byte(nil))
	f.Add(true, uint8(3), uint8(0), []byte("{\"Rank\":3,\"Report\":5}\n"), false, uint8(0), []byte(nil))
	f.Add(true, uint8(5), uint8(1), cat(recordLine(1), []byte("\x00garbage\n")), true, uint8(0), []byte("{}\n"))

	f.Fuzz(func(t *testing.T, threeShards bool, prefix, shardA uint8, dataA []byte, replaceB bool, shardB uint8, dataB []byte) {
		k := 1
		if threeShards {
			k = 3
		}
		meta := Meta{Seed: 1, Shards: k}
		dir := t.TempDir()
		n := int(prefix % 16)
		writeAll(t, dir, meta, fakeOutcomes(n), false)
		damage := func(shard uint8, data []byte, replace bool) {
			path := filepath.Join(dir, shardName(int(shard)%k))
			flags := os.O_APPEND | os.O_WRONLY
			if replace {
				flags = os.O_TRUNC | os.O_WRONLY
			}
			fh, err := os.OpenFile(path, flags, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fh.Write(data); err != nil {
				t.Fatal(err)
			}
			fh.Close()
		}
		damage(shardA, dataA, false)
		if len(dataB) > 0 || replaceB {
			damage(shardB, dataB, replaceB)
		}

		l, err := Open(dir, meta)
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		next := l.NextRank()
		if !replaceB && next < n {
			t.Fatalf("appending bytes lost durable records: NextRank %d < prefix %d", next, n)
		}
		scanRanks(t, l, next)
		recovered := shardBytes(t, dir, k)
		l.Close()

		l, err = Open(dir, meta)
		if err != nil {
			t.Fatalf("second recovery failed: %v", err)
		}
		defer l.Close()
		if l.NextRank() != next {
			t.Fatalf("second Open: NextRank %d, first %d", l.NextRank(), next)
		}
		if !bytes.Equal(shardBytes(t, dir, k), recovered) {
			t.Fatal("second Open changed the recovered shard files")
		}
		fresh := study.Outcome{Rank: next, Report: &vpntest.VPReport{Provider: "Fresh", VPLabel: "fresh (US)"}}
		if err := l.Append(fresh); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		scanRanks(t, l, next+1)
	})
}

// scanRanks requires Scan to yield exactly ranks 0..n-1.
func scanRanks(t *testing.T, l *Log, n int) {
	t.Helper()
	want := 0
	if err := l.Scan(func(o study.Outcome) error {
		if o.Rank != want {
			t.Fatalf("scan yielded rank %d, want %d", o.Rank, want)
		}
		want++
		return nil
	}); err != nil {
		t.Fatalf("scan after recovery: %v", err)
	}
	if want != n {
		t.Fatalf("scan yielded %d outcomes, want %d", want, n)
	}
}
