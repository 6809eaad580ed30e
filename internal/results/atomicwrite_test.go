// White-box injected-failure coverage for WriteFileAtomic: every step
// of the temp-write/fsync/close/rename/dir-sync pipeline can fail, and
// each failure must (a) surface a wrapped error naming the destination
// path and (b) leave no orphaned temp file behind.
package results

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vpnscope/internal/study"
	"vpnscope/internal/vpntest"
)

// tempOrphans counts leftover temp files in dir.
func tempOrphans(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

func TestWriteFileAtomicInjectedFailures(t *testing.T) {
	boom := errors.New("injected fault")
	restore := func() {
		createTemp = os.CreateTemp
		syncFile = func(f *os.File) error { return f.Sync() }
		closeFile = func(f *os.File) error { return f.Close() }
		renameFile = os.Rename
	}

	steps := []struct {
		name   string
		inject func()
		write  func(io.Writer) error
	}{
		{
			name:   "create-temp",
			inject: func() { createTemp = func(string, string) (*os.File, error) { return nil, boom } },
		},
		{
			name:  "write",
			write: func(io.Writer) error { return boom },
		},
		{
			name:   "fsync",
			inject: func() { syncFile = func(*os.File) error { return boom } },
		},
		{
			name:   "close",
			inject: func() { closeFile = func(*os.File) error { return boom } },
		},
		{
			name:   "rename",
			inject: func() { renameFile = func(string, string) error { return boom } },
		},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			defer restore()
			if step.inject != nil {
				step.inject()
			}
			dir := t.TempDir()
			path := filepath.Join(dir, "out.json")
			write := step.write
			if write == nil {
				write = func(w io.Writer) error {
					_, err := io.WriteString(w, "payload")
					return err
				}
			}
			err := WriteFileAtomic(path, write)
			if !errors.Is(err, boom) {
				t.Fatalf("error = %v, want wrapped injected fault", err)
			}
			if !strings.Contains(err.Error(), path) {
				t.Errorf("error %q does not name the destination path %q", err, path)
			}
			if n := tempOrphans(t, dir); n != 0 {
				t.Errorf("%d orphaned temp files left after %s failure", n, step.name)
			}
			if _, statErr := os.Stat(path); !errors.Is(statErr, os.ErrNotExist) {
				t.Errorf("destination exists after %s failure (stat err %v)", step.name, statErr)
			}
		})
	}
}

// TestWriteFileAtomicPreservesPrevious: a failed rewrite must leave the
// previously published file byte-for-byte intact.
func TestWriteFileAtomicPreservesPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "generation-1")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected fault")
	syncFile = func(*os.File) error { return boom }
	defer func() { syncFile = func(f *os.File) error { return f.Sync() } }()
	err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "generation-2-partial")
		return err
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want injected fault", err)
	}
	got, readErr := os.ReadFile(path)
	if readErr != nil {
		t.Fatal(readErr)
	}
	if string(got) != "generation-1" {
		t.Errorf("previous file corrupted: %q", got)
	}
	if n := tempOrphans(t, dir); n != 0 {
		t.Errorf("%d orphaned temp files left", n)
	}
}

func TestSaveFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "final.json")
	res := &study.Result{
		Reports: []*vpntest.VPReport{
			{Provider: "TestVPN", VPLabel: "vp-1 (US)", ClaimedCountry: "US"},
		},
		ConnectFailures: []study.ConnectFailure{
			{Provider: "TestVPN", VPLabel: "vp-2 (DE)", Err: "refused", Attempts: 3},
		},
		VPsAttempted: 2,
	}
	if err := SaveFile(path, res, WithSeed(7)); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, env, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if env.Seed != 7 || !env.Complete {
		t.Errorf("envelope = seed:%d complete:%v, want 7/true", env.Seed, env.Complete)
	}
	if len(loaded.Reports) != 1 || len(loaded.ConnectFailures) != 1 || loaded.VPsAttempted != 2 {
		t.Errorf("round trip lost records: %+v", loaded)
	}
}
