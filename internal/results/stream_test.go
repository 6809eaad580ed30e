package results_test

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"sync"
	"testing"

	"vpnscope/internal/capture"
	"vpnscope/internal/faultsim"
	"vpnscope/internal/results"
	"vpnscope/internal/study"
	"vpnscope/internal/vpntest"
)

// wholeEnvelope is the reference encoding Save must reproduce: the
// whole envelope built in memory and encoded in one call.
func wholeEnvelope(t testing.TB, res *study.Result, seed uint64, faultProfile string, includeCaptures bool) []byte {
	t.Helper()
	env := results.Envelope{
		Schema:          results.SchemaVersion,
		Seed:            seed,
		VPsAttempted:    res.VPsAttempted,
		Complete:        true,
		FaultProfile:    faultProfile,
		ConnectFailures: res.ConnectFailures,
		Recoveries:      res.Recoveries,
		Quarantines:     res.Quarantines,
	}
	for _, r := range res.Reports {
		if includeCaptures {
			env.Reports = append(env.Reports, r)
			continue
		}
		cp := *r
		cp.Captures = nil
		env.Reports = append(env.Reports, &cp)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&env); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var lossy struct {
	once sync.Once
	res  *study.Result
	err  error
}

// lossyStudy is the seed-2018 study under the lossy fault profile, run
// once per test binary.
func lossyStudy(tb testing.TB) *study.Result {
	tb.Helper()
	lossy.once.Do(func() {
		w, err := study.Build(study.Options{Seed: 2018})
		if err != nil {
			lossy.err = err
			return
		}
		w.EnableFaults(faultsim.Lossy)
		lossy.res, lossy.err = w.RunWith(study.RunConfig{Parallel: 2})
	})
	if lossy.err != nil {
		tb.Fatal(lossy.err)
	}
	return lossy.res
}

func TestSaveMatchesWholeEnvelopeEncoding(t *testing.T) {
	escaped := &vpntest.VPReport{
		Provider:       "<script>alert(1)</script> & Co",
		VPLabel:        "a&b <1> (US)",
		ClaimedCountry: "US",
	}
	withCaptures := &vpntest.VPReport{
		Provider: "CapNet",
		VPLabel:  "capnet-1 (DE)",
		Captures: []capture.Record{
			{Time: 5, Interface: "en0", Dir: capture.DirOut, Data: []byte{0x45, 0, 0, 20}},
			{Time: 9, Interface: "utun0", Dir: capture.DirIn, Data: []byte("<&>")},
		},
	}
	cases := []struct {
		name            string
		res             *study.Result
		seed            uint64
		faultProfile    string
		includeCaptures bool
	}{
		{name: "zero reports", res: &study.Result{VPsAttempted: 3}, seed: 1},
		{name: "empty report list", res: &study.Result{Reports: []*vpntest.VPReport{}}, seed: 1, faultProfile: "lossy"},
		{name: "one report", res: &study.Result{VPsAttempted: 1, Reports: []*vpntest.VPReport{escaped}}, seed: 2},
		{name: "captures dropped", res: &study.Result{Reports: []*vpntest.VPReport{withCaptures, escaped}}, seed: 3},
		{name: "captures kept", res: &study.Result{Reports: []*vpntest.VPReport{withCaptures, escaped}}, seed: 3, includeCaptures: true},
		{name: "html escaping", res: &study.Result{
			VPsAttempted:    2,
			ConnectFailures: []study.ConnectFailure{{Provider: "<b>", VPLabel: "x&y", Err: "refused <fault>", Attempts: 2}},
			Quarantines:     []study.Quarantine{{Provider: "A&B", TrippedAfter: 1, SkippedVPs: []string{"<v>"}}},
			Reports:         []*vpntest.VPReport{escaped},
		}, seed: 4, faultProfile: "<lossy>&"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkSaveMatches(t, c.res, c.seed, c.faultProfile, c.includeCaptures)
		})
	}
	t.Run("lossy campaign", func(t *testing.T) {
		if testing.Short() {
			t.Skip("runs the full lossy study")
		}
		res := lossyStudy(t)
		if len(res.Reports) < 2 || len(res.ConnectFailures) == 0 {
			t.Fatalf("lossy study has %d reports and %d connect failures", len(res.Reports), len(res.ConnectFailures))
		}
		checkSaveMatches(t, res, 2018, faultsim.Lossy.Name, false)
	})
}

func checkSaveMatches(t *testing.T, res *study.Result, seed uint64, faultProfile string, includeCaptures bool) {
	t.Helper()
	opts := []results.Option{results.WithSeed(seed), results.WithFaultProfile(faultProfile)}
	if includeCaptures {
		opts = append(opts, results.IncludeCaptures())
	}
	var got bytes.Buffer
	if err := results.Save(&got, res, opts...); err != nil {
		t.Fatal(err)
	}
	want := wholeEnvelope(t, res, seed, faultProfile, includeCaptures)
	if !bytes.Equal(got.Bytes(), want) {
		i := 0
		for i < got.Len() && i < len(want) && got.Bytes()[i] == want[i] {
			i++
		}
		lo := max(i-40, 0)
		t.Fatalf("streamed envelope (%d bytes) differs from the whole encoding (%d bytes) at byte %d:\n got %q\nwant %q",
			got.Len(), len(want), i, got.Bytes()[lo:min(i+40, got.Len())], want[lo:min(i+40, len(want))])
	}
}

// saveAllocRatioCeiling bounds the bytes Save allocates per byte it
// writes. Encoding the whole envelope at once allocated 5.6 times what
// it wrote (a compact and an indented copy, each grown by doubling);
// streaming holds one report at a time.
const saveAllocRatioCeiling = 0.5

// countingWriter counts and discards what it is given.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// BenchmarkSaveEnvelope saves the seed-2018 lossy study's envelope to a
// discarding writer and fails when Save allocates more than
// saveAllocRatioCeiling of the bytes it writes.
func BenchmarkSaveEnvelope(b *testing.B) {
	res := lossyStudy(b)
	opts := []results.Option{results.WithSeed(2018), results.WithFaultProfile(faultsim.Lossy.Name)}
	save := func(w io.Writer) {
		if err := results.Save(w, res, opts...); err != nil {
			b.Fatal(err)
		}
	}
	const n = 3
	var written countingWriter
	allocated := func() float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		save(io.Discard)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			save(&written)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}()
	ratio := allocated / float64(written.n)
	b.Logf("Save: %.0f bytes allocated for %d bytes written (%.2fx, ceiling %.2fx)",
		allocated/n, written.n/n, ratio, saveAllocRatioCeiling)
	if ratio > saveAllocRatioCeiling {
		b.Fatalf("Save allocates %.2fx the bytes it writes, ceiling %.2fx — the envelope is being buffered whole",
			ratio, saveAllocRatioCeiling)
	}
	b.SetBytes(written.n / n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		save(io.Discard)
	}
}
