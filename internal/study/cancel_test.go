// Cooperative-cancellation validation: RunConfig.Ctx must stop a
// campaign only at vantage-point slot boundaries, so every committed
// outcome is already in the outcome log and the log resumes
// byte-identically — the invariant the vpnscoped daemon's drain and
// deadline paths are built on.
package study_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"vpnscope/internal/faultsim"
	"vpnscope/internal/study"
)

// TestCancelBeforeStart: a context canceled before the campaign begins
// yields ErrCanceled without measuring anything.
func TestCancelBeforeStart(t *testing.T) {
	w := buildSubset(t, 2018, "Mullvad")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := w.RunWith(study.RunConfig{Ctx: ctx, Parallel: 1})
	if !errors.Is(err, study.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want to wrap context.Canceled", err)
	}
	if res != nil && res.VPsAttempted != 0 {
		t.Fatalf("VPsAttempted = %d, want 0", res.VPsAttempted)
	}
}

// runCanceledAt streams a lossy campaign into an outcome log, cancels
// the context once k outcomes are durable, then resumes the log to
// completion and returns the envelope of its fold.
func runCanceledAt(t *testing.T, build func() *study.World, k, killPar, resumePar int) []byte {
	t.Helper()
	dir := t.TempDir()
	mustInterrupt(t, interruptIntoLog(t, build, dir, k, killPar, true), true)
	if n := durable(t, dir); n < k {
		t.Fatalf("cancel at %d: log holds %d outcomes, want >= %d", k, n, k)
	}
	return resumeLog(t, build, dir, resumePar, nil)
}

// TestCancelResumeByteIdentical is the quick (-short) form: cancel a
// sequential and a parallel campaign mid-run, resume each outcome log,
// and require the uninterrupted envelope.
func TestCancelResumeByteIdentical(t *testing.T) {
	build := func() *study.World {
		w := buildSubset(t, 2018, "Seed4.me", "WorldVPN", "Windscribe")
		w.EnableFaults(faultsim.Lossy)
		return w
	}
	ref, err := build().RunWith(study.RunConfig{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	refBytes := envelope(t, ref)
	if got := runCanceledAt(t, build, 2, 1, 8); !bytes.Equal(got, refBytes) {
		t.Error("sequential cancel at 2: resumed envelope differs from uninterrupted run")
	}
	if got := runCanceledAt(t, build, 3, 8, 1); !bytes.Equal(got, refBytes) {
		t.Error("parallel cancel at 3: resumed envelope differs from uninterrupted run")
	}
}

// TestCancelResumeFuzz cancels at every slot boundary, alternating
// sequential and parallel execution for both the canceled and the
// resuming run. Whatever the cancel point, the resumed envelope must be
// byte-identical to the uninterrupted reference.
func TestCancelResumeFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("cancel/resume fuzz in -short mode")
	}
	build := func() *study.World {
		w := buildSubset(t, 2018, "Seed4.me", "WorldVPN", "Windscribe")
		w.EnableFaults(faultsim.Lossy)
		return w
	}
	ref, err := build().RunWith(study.RunConfig{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := silentDrops(ref); d != 0 {
		t.Fatalf("%d vantage points silently dropped in reference run", d)
	}
	refBytes := envelope(t, ref)
	// Canceling after the final outcome would never fire before the run
	// finishes, so fuzz the boundaries strictly inside the campaign.
	for k := 1; k < ref.VPsAttempted; k++ {
		killPar, resumePar := 1, 8
		if k%2 == 0 {
			killPar, resumePar = 8, 1
		}
		if got := runCanceledAt(t, build, k, killPar, resumePar); !bytes.Equal(got, refBytes) {
			t.Errorf("cancel at %d (Parallel=%d, resume Parallel=%d): envelope differs from uninterrupted run",
				k, killPar, resumePar)
		}
	}
}
