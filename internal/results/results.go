// Package results persists completed studies: vantage-point reports and
// connection failures serialize to a versioned JSON envelope, load back,
// and feed the same analysis functions — so a campaign can be measured
// once and re-analyzed offline, shared, or diffed across seeds ("Data
// from our evaluations are also available upon request", §8).
//
// Schema v2 additionally carries the campaign's resilience record
// (retry recoveries, provider quarantines, fault profile) and a
// completeness flag. v1 envelopes still load (as complete, with no
// resilience record). Campaigns become durable while they run through
// the shard log (package shardlog), not through envelopes: an envelope
// is written once, from a finished Result.
//
// Packet captures are omitted by default (they dominate the size); pass
// IncludeCaptures to keep them.
package results

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"

	"vpnscope/internal/study"
	"vpnscope/internal/vpntest"
)

// SchemaVersion identifies the envelope layout.
const SchemaVersion = 2

// Envelope is the serialized form of a study result.
type Envelope struct {
	Schema       int    `json:"schema"`
	Seed         uint64 `json:"seed"`
	VPsAttempted int    `json:"vps_attempted"`
	// Complete is always true for an envelope Save writes; envelopes
	// written by older versions as mid-campaign snapshots carry false.
	// v1 envelopes load as complete.
	Complete bool `json:"complete"`
	// FaultProfile names the faultsim profile the campaign ran under
	// (empty for a clean run).
	FaultProfile    string                 `json:"fault_profile,omitempty"`
	ConnectFailures []study.ConnectFailure `json:"connect_failures,omitempty"`
	Recoveries      []study.Recovery       `json:"recoveries,omitempty"`
	Quarantines     []study.Quarantine     `json:"quarantines,omitempty"`
	Reports         []*vpntest.VPReport    `json:"reports"`
}

// Result converts the envelope back into a study result for offline
// analysis.
func (e *Envelope) Result() *study.Result {
	return &study.Result{
		Reports:         e.Reports,
		ConnectFailures: e.ConnectFailures,
		Recoveries:      e.Recoveries,
		Quarantines:     e.Quarantines,
		VPsAttempted:    e.VPsAttempted,
	}
}

// Option adjusts serialization.
type Option func(*options)

type options struct {
	includeCaptures bool
	seed            uint64
	faultProfile    string
}

// IncludeCaptures keeps per-report packet traces in the envelope.
func IncludeCaptures() Option {
	return func(o *options) { o.includeCaptures = true }
}

// WithSeed records the seed the study ran with.
func WithSeed(seed uint64) Option {
	return func(o *options) { o.seed = seed }
}

// WithFaultProfile records the faultsim profile the campaign ran under.
func WithFaultProfile(name string) Option {
	return func(o *options) { o.faultProfile = name }
}

// Save writes a study result as the indented JSON envelope, streamed
// one report at a time: the bytes equal encoding the whole Envelope
// with an Encoder indenting by two spaces, but the memory Save holds
// is bounded by the largest single report, not the envelope. On a
// write or encode error Save may already have written a prefix of the
// envelope; callers that need all-or-nothing output write through
// WriteFileAtomic (SaveFile) or into a buffer.
func Save(w io.Writer, res *study.Result, opts ...Option) error {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	env := Envelope{
		Schema:          SchemaVersion,
		Seed:            o.seed,
		VPsAttempted:    res.VPsAttempted,
		Complete:        true,
		FaultProfile:    o.faultProfile,
		ConnectFailures: res.ConnectFailures,
		Recoveries:      res.Recoveries,
		Quarantines:     res.Quarantines,
		Reports:         []*vpntest.VPReport{},
	}
	// The head is the envelope with an empty report list, cut before
	// the list: Envelope stays the one definition of field order and
	// omitempty rules.
	head, err := json.MarshalIndent(&env, "", "  ")
	if err != nil {
		return fmt.Errorf("results: encoding: %w", err)
	}
	head, ok := bytes.CutSuffix(head, []byte("[]\n}"))
	if !ok {
		return fmt.Errorf("results: encoding: envelope does not end in its report list")
	}
	if len(res.Reports) == 0 {
		if _, err := w.Write(append(head, "null\n}\n"...)); err != nil {
			return fmt.Errorf("results: writing: %w", err)
		}
		return nil
	}
	// Each report is indented as it sits in the list, two levels deep,
	// and written with what precedes it (the head, or the separator) in
	// one Write.
	var buf bytes.Buffer
	buf.Write(head)
	buf.WriteString("[\n")
	enc := json.NewEncoder(&buf)
	enc.SetIndent("    ", "  ")
	var rep vpntest.VPReport
	for i, r := range res.Reports {
		if i > 0 {
			buf.Reset()
			buf.WriteString(",\n")
		}
		buf.WriteString("    ")
		v := r
		if !o.includeCaptures {
			rep = *r
			rep.Captures = nil
			v = &rep
		}
		if err := enc.Encode(v); err != nil {
			return fmt.Errorf("results: encoding: %w", err)
		}
		// Encode ends the report with a newline; the separator or the
		// list's close supplies it instead.
		if _, err := w.Write(buf.Bytes()[:buf.Len()-1]); err != nil {
			return fmt.Errorf("results: writing: %w", err)
		}
	}
	if _, err := io.WriteString(w, "\n  ]\n}\n"); err != nil {
		return fmt.Errorf("results: writing: %w", err)
	}
	return nil
}

// Load errors.
var (
	ErrBadSchema = errors.New("results: unsupported schema version")
)

// Load reads an envelope back into a study result. Both the current
// schema and v1 are accepted; a v1 envelope loads as a complete run
// with an empty resilience record.
func Load(r io.Reader) (*study.Result, *Envelope, error) {
	var env Envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, nil, fmt.Errorf("results: decoding: %w", err)
	}
	switch env.Schema {
	case SchemaVersion:
	case 1:
		// v1 has no completeness flag: every saved envelope was a
		// finished campaign.
		env.Complete = true
	default:
		return nil, nil, fmt.Errorf("%w: %d (want 1..%d)", ErrBadSchema, env.Schema, SchemaVersion)
	}
	return env.Result(), &env, nil
}

// Injectable seams for the atomic-write steps, overridden by the
// injected-failure tests so every error branch of WriteFileAtomic is
// exercised without a real disk fault.
var (
	createTemp = os.CreateTemp
	syncFile   = func(f *os.File) error { return f.Sync() }
	closeFile  = func(f *os.File) error { return f.Close() }
	renameFile = os.Rename
)

// WriteFileAtomic is the durability primitive behind SaveFile, the
// shard log's metadata, and the daemon's state dir: write writes the content to a temp file in path's
// directory, the temp file is fsynced, renamed over path, and the
// directory entry fsynced — so a crash or power loss at any step leaves
// either the old file or the new one, never a truncation. On failure
// the orphaned temp file is removed and the returned error names the
// path (and the failing step).
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := createTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("results: writing %s: creating temp: %w", path, err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	if err := write(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("results: writing %s: %w", path, err)
	}
	// Flush to stable storage before the rename publishes the file:
	// rename is atomic against crashes only once the data it points
	// at is durable, otherwise power loss can leave a truncated or
	// empty file under the final name.
	if err := syncFile(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("results: writing %s: fsync: %w", path, err)
	}
	if err := closeFile(tmp); err != nil {
		return fmt.Errorf("results: writing %s: close: %w", path, err)
	}
	if err := renameFile(tmpName, path); err != nil {
		return fmt.Errorf("results: writing %s: rename: %w", path, err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("results: writing %s: %w", path, err)
	}
	return nil
}

// SaveFile writes a result envelope to path with WriteFileAtomic's
// durability discipline — the file-shaped form of Save, used for final
// campaign envelopes that must survive a crash mid-write.
func SaveFile(path string, res *study.Result, opts ...Option) error {
	return WriteFileAtomic(path, func(w io.Writer) error {
		return Save(w, res, opts...)
	})
}

// syncDir fsyncs a directory so a just-renamed file's directory entry
// survives power loss too. Filesystems that cannot sync a
// directory handle (some network and FUSE mounts) make this a no-op.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("syncing dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("syncing dir: %w", err)
	}
	return nil
}
