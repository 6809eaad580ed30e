package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vpnscope/internal/results"
	"vpnscope/internal/results/shardlog"
	"vpnscope/internal/study"
)

// TestRunRejectsWhatAdmissionRejects: every spec the daemon's admission
// refuses, Run refuses too, before it creates a file. The negative-knob
// rows are every numeric JSON field of Spec at -1 (a superset of the
// admission test's world-size rows), decoded from a body as admission
// decodes it; the rest are the mode and name mismatches.
func TestRunRejectsWhatAdmissionRejects(t *testing.T) {
	bodies := map[string]string{
		"months without catalog": `{"seed":1,"months":1}`,
		"shards without catalog": `{"seed":1,"shards":4}`,
		"unknown provider":       `{"seed":1,"providers":["NoSuchProvider"]}`,
		"unknown catalog entry":  `{"seed":1,"catalog":5,"providers":["NoSuchProvider"]}`,
		"unknown fault profile":  `{"seed":1,"fault_profile":"apocalyptic"}`,
		"catalog entry untested": `{"seed":1,"providers":["Arctic VPN"]}`,
	}
	st := reflect.TypeOf(Spec{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if k := f.Type.Kind(); k != reflect.Int && k != reflect.Float64 {
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		bodies["negative "+name] = `{"seed":1,"` + name + `":-1}`
	}
	if len(bodies) < 16 {
		t.Fatalf("only %d rows: the negative-knob rows are missing", len(bodies))
	}
	for name, body := range bodies {
		var spec Spec
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		root := t.TempDir()
		_, err := Run(context.Background(), spec, filepath.Join(root, "outcomes"), Hooks{
			Build: func(*Spec, int) (*study.World, error) {
				t.Fatalf("%s: Run built a world for a refused spec", name)
				return nil, nil
			},
		})
		if err == nil {
			t.Errorf("%s: Run accepted %s", name, body)
		}
		if entries, _ := os.ReadDir(root); len(entries) != 0 {
			t.Errorf("%s: Run created %d files before refusing", name, len(entries))
		}
	}

	// RunMonth refuses a month outside the spec's window the same way.
	root := t.TempDir()
	spec := Spec{Seed: 1, Catalog: 5, Months: 1}
	if _, err := RunMonth(context.Background(), &spec, filepath.Join(root, "outcomes"), 2, Hooks{}); err == nil {
		t.Error("RunMonth accepted month 2 of a one-month spec")
	}
	if entries, _ := os.ReadDir(root); len(entries) != 0 {
		t.Errorf("RunMonth created %d files before refusing", len(entries))
	}
}

// smallSpec is a quick real two-provider lossy campaign.
func smallSpec() Spec {
	return Spec{
		Seed:            11,
		Providers:       []string{"Mullvad", "NordVPN"},
		FaultProfile:    "lossy",
		Workers:         2,
		ConnectAttempts: 2,
		VPsPerProvider:  2,
		ExtraTLSHosts:   10,
		LandmarkCount:   20,
	}
}

func envelope(t *testing.T, spec Spec, res *study.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := results.Save(&buf, res, spec.EnvelopeOptions()...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunLoggedResumesToInMemoryResult: a logged run stopped after two
// outcomes resumes from its log, seals it, and folds to the envelope of
// the same spec run in memory; a sealed log measures nothing.
func TestRunLoggedResumesToInMemoryResult(t *testing.T) {
	spec := smallSpec()
	mem, err := Run(context.Background(), spec, "", Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if mem[0].Log != nil || mem[0].Result == nil || mem[0].World == nil {
		t.Fatalf("in-memory audit = %+v, want a result and a world, no log", mem[0])
	}
	want := envelope(t, spec, mem[0].Result)

	dir := filepath.Join(t.TempDir(), "outcomes")
	stop := errors.New("stop after two outcomes")
	seen := 0
	_, err = Run(context.Background(), spec, dir, Hooks{Outcome: func(study.Outcome) error {
		if seen++; seen == 2 {
			return stop
		}
		return nil
	}})
	if !errors.Is(err, stop) {
		t.Fatalf("interrupted run = %v, want the hook's error", err)
	}
	if shardlog.Sealed(dir) {
		t.Fatal("an interrupted run sealed its log")
	}

	var resumed, slots int
	audits, err := Run(context.Background(), spec, dir, Hooks{Started: func(lg *shardlog.Log, n int) error {
		resumed, slots = lg.NextRank(), n
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 2 || slots != audits[0].World.SlotCount() {
		t.Fatalf("started notice: resumed %d of %d slots, want 2 of %d", resumed, slots, audits[0].World.SlotCount())
	}
	res, err := audits[0].Log.Result()
	if err != nil {
		t.Fatal(err)
	}
	audits[0].Log.Close()
	if got := envelope(t, spec, res); !bytes.Equal(got, want) {
		t.Fatalf("resumed log folds to %d envelope bytes differing from the in-memory %d", len(got), len(want))
	}

	audits, err = Run(context.Background(), spec, dir, Hooks{
		Started: func(*shardlog.Log, int) error {
			t.Fatal("a sealed log announced a start")
			return nil
		},
		Measure: func(*study.World, study.RunConfig) (*study.Result, error) {
			t.Fatal("a sealed log was measured again")
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !audits[0].Log.Complete() || audits[0].World == nil {
		t.Fatal("rerun over a sealed log did not return the sealed log and its world")
	}
	audits[0].Log.Close()
}

// TestRunMonths: a catalog spec with months seals one log per month
// under month-NNN/, and only the last audit keeps its world.
func TestRunMonths(t *testing.T) {
	spec := Spec{Seed: 2018, Catalog: 3, Months: 1, Shards: 2, Workers: 1,
		VPsPerProvider: 2, ExtraTLSHosts: 10, LandmarkCount: 20}
	dir := t.TempDir()
	audits, err := Run(context.Background(), spec, dir, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(audits) != 2 || audits[0].World != nil || audits[1].World == nil {
		t.Fatalf("got %d audits (worlds kept: %v, %v), want 2 with only the last world",
			len(audits), audits[0].World != nil, audits[len(audits)-1].World != nil)
	}
	for m, a := range audits {
		a.Log.Close()
		mdir := MonthDir(dir, &spec, m)
		if a.Log.Dir() != mdir || !shardlog.Sealed(mdir) {
			t.Fatalf("month %d: log in %s, sealed %v", m, a.Log.Dir(), shardlog.Sealed(mdir))
		}
		if meta := a.Log.Meta(); meta.Shards != 2 || meta.Month != m {
			t.Fatalf("month %d log meta = %+v", m, meta)
		}
	}
}
