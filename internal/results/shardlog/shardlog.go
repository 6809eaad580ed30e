// Package shardlog is the persistence layer of every durable campaign:
// per-shard append-only NDJSON outcome logs written incrementally by
// the study committer (RunConfig.Stream), merged on demand.
//
// A log appends exactly one JSON line per committed outcome to the
// shard file rank%K (so shard i holds ranks i, i+K, i+2K, ... in
// order), fsyncing the one touched file: O(1) durability per outcome,
// and reading back is a K-way round-robin merge that holds one decoded
// outcome at a time. Ecosystem-scale sweeps use several shards; a
// single-provider or small study uses K=1. An interrupted campaign
// continues by replaying Scan (RunConfig.Resume), and a sealed log
// folds into the campaign's full study.Result (Result), from which the
// results envelope is written once.
//
// Byte-identity contract: outcomes arrive from the committer strictly
// in rank order and JSON marshaling is deterministic, so the shard
// files of any kill/resume sequence — recovered by truncating torn
// tails and any ranks past the maximal contiguous prefix — are byte
// identical to an uninterrupted run's, for any worker count.
package shardlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"vpnscope/internal/results"
	"vpnscope/internal/study"
	"vpnscope/internal/vpntest"
)

// Schema is the meta.json schema identifier.
const Schema = "vpnscope-shardlog/1"

// DefaultShards is the shard count used when a caller passes zero.
const DefaultShards = 8

// Meta pins a log directory to one campaign: reopening with a
// different seed, shard count, or fault profile is refused rather than
// silently merged.
type Meta struct {
	Schema       string `json:"schema"`
	Seed         uint64 `json:"seed"`
	Shards       int    `json:"shards"`
	FaultProfile string `json:"fault_profile,omitempty"`
	// Month tags longitudinal re-audits (0 = baseline).
	Month int `json:"month,omitempty"`
}

func (m *Meta) fill() {
	m.Schema = Schema
	if m.Shards <= 0 {
		m.Shards = DefaultShards
	}
}

// Log is an open shard-log directory. Append is single-writer (the
// study committer); the read side (Scan, Outcomes, Reports) opens its
// own descriptors and may run concurrently with nothing or after the
// writer is done.
type Log struct {
	dir      string
	meta     Meta
	files    []*os.File
	next     int // next rank to append
	complete bool
}

func shardName(i int) string { return fmt.Sprintf("shard-%03d.ndjson", i) }

const (
	metaName     = "meta.json"
	completeName = "complete.json"
)

// Open opens dir as a shard log, creating it if needed and recovering
// it if a previous writer died mid-append: torn tail lines and any
// record past the maximal contiguous rank prefix are physically
// truncated, so the files are exactly an uninterrupted run's prefix.
// An existing directory must carry matching Meta. A new log's meta.json
// is written after its shard files exist, so the directory fsync that
// publishes meta.json also makes the shard entries durable: a log with
// meta.json never loses a shard file to power loss.
func Open(dir string, meta Meta) (*Log, error) {
	meta.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shardlog: %w", err)
	}
	metaPath := filepath.Join(dir, metaName)
	raw, err := os.ReadFile(metaPath)
	fresh := errors.Is(err, os.ErrNotExist)
	if err != nil && !fresh {
		return nil, fmt.Errorf("shardlog: %w", err)
	}
	if !fresh {
		var have Meta
		if err := json.Unmarshal(raw, &have); err != nil {
			return nil, fmt.Errorf("shardlog: corrupt %s: %w", metaName, err)
		}
		if have != meta {
			return nil, fmt.Errorf("shardlog: %s holds a different campaign (have %+v, want %+v)", dir, have, meta)
		}
	}
	l, err := openRecover(dir, meta)
	if err != nil || !fresh {
		return l, err
	}
	if err := writeJSON(metaPath, meta); err != nil {
		l.closeFiles()
		return nil, err
	}
	return l, nil
}

// OpenExisting opens a log directory written earlier, reading its Meta
// from disk (for read-side consumers that only know the path).
func OpenExisting(dir string) (*Log, error) {
	raw, err := os.ReadFile(filepath.Join(dir, metaName))
	if err != nil {
		return nil, fmt.Errorf("shardlog: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("shardlog: corrupt %s: %w", metaName, err)
	}
	if meta.Schema != Schema {
		return nil, fmt.Errorf("shardlog: unsupported schema %q", meta.Schema)
	}
	if meta.Shards <= 0 {
		return nil, fmt.Errorf("shardlog: invalid shard count %d", meta.Shards)
	}
	return openRecover(dir, meta)
}

// openRecover scans every shard, truncates torn tails and
// past-the-prefix records, and positions the appenders.
func openRecover(dir string, meta Meta) (*Log, error) {
	l := &Log{dir: dir, meta: meta}
	k := meta.Shards
	counts := make([]int, k)      // valid records per shard
	offsets := make([][]int64, k) // byte offset after each valid record
	for i := 0; i < k; i++ {
		path := filepath.Join(dir, shardName(i))
		f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			l.closeFiles()
			return nil, fmt.Errorf("shardlog: %w", err)
		}
		l.files = append(l.files, f)
		n, offs, err := scanShard(f, i, k)
		if err != nil {
			l.closeFiles()
			return nil, err
		}
		counts[i] = n
		offsets[i] = offs
	}
	// First missing rank in shard i is i + counts[i]*k; the contiguous
	// prefix ends at the smallest of those.
	next := counts[0]*k + 0
	for i := 1; i < k; i++ {
		if r := counts[i]*k + i; r < next {
			next = r
		}
	}
	l.next = next
	for i := 0; i < k; i++ {
		keep := 0
		if next > i {
			keep = (next - i + k - 1) / k
		}
		var end int64
		if keep > 0 {
			end = offsets[i][keep-1]
		}
		if err := l.files[i].Truncate(end); err != nil {
			l.closeFiles()
			return nil, fmt.Errorf("shardlog: %w", err)
		}
		if _, err := l.files[i].Seek(end, io.SeekStart); err != nil {
			l.closeFiles()
			return nil, fmt.Errorf("shardlog: %w", err)
		}
	}
	if raw, err := os.ReadFile(filepath.Join(dir, completeName)); err == nil {
		var total int
		if err := json.Unmarshal(raw, &total); err != nil || total != l.next {
			l.closeFiles()
			return nil, fmt.Errorf("shardlog: %s marked complete at %d outcomes but holds %d", dir, total, l.next)
		}
		l.complete = true
	} else if !errors.Is(err, os.ErrNotExist) {
		l.closeFiles()
		return nil, fmt.Errorf("shardlog: %w", err)
	}
	return l, nil
}

// scanShard counts the valid record prefix of one shard file: complete
// lines that decode as an outcome (exactly what Scan will read back)
// carrying the rank the shard position demands. Anything after the
// first violation is a torn or stale tail.
func scanShard(f *os.File, shard, k int) (n int, offsets []int64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, nil, fmt.Errorf("shardlog: %w", err)
	}
	r := bufio.NewReaderSize(f, 64<<10)
	var off int64
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			return n, offsets, nil // partial final line (or empty): torn tail
		}
		if err != nil {
			return 0, nil, fmt.Errorf("shardlog: %w", err)
		}
		var o study.Outcome
		if json.Unmarshal(line, &o) != nil || o.Rank != shard+n*k ||
			(o.Report == nil && o.Failure == nil && o.Skip == nil) {
			return n, offsets, nil
		}
		off += int64(len(line))
		n++
		offsets = append(offsets, off)
	}
}

// Sealed reports whether dir holds a completed (sealed) outcome log,
// without opening — and therefore without recovering or truncating —
// it. Readers that must not race a live committer (e.g. a daemon's
// result endpoint) gate on this before OpenExisting.
func Sealed(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, completeName))
	return err == nil
}

// Meta returns the log's pinned campaign identity.
func (l *Log) Meta() Meta { return l.meta }

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// NextRank is the rank the next Append must carry — equivalently, the
// number of contiguous outcomes already durable.
func (l *Log) NextRank() int { return l.next }

// Complete reports whether MarkComplete sealed the log.
func (l *Log) Complete() bool { return l.complete }

// Append durably records one outcome. Ranks must arrive contiguously
// (the study committer guarantees this); packet captures are stripped
// like results.Save does by default.
func (l *Log) Append(o study.Outcome) error {
	if o.Rank != l.next {
		return fmt.Errorf("shardlog: outcome rank %d, want %d", o.Rank, l.next)
	}
	if l.complete {
		return fmt.Errorf("shardlog: %s is sealed", l.dir)
	}
	if o.Report != nil && o.Report.Captures != nil {
		rep := *o.Report
		rep.Captures = nil
		o.Report = &rep
	}
	line, err := json.Marshal(o)
	if err != nil {
		return fmt.Errorf("shardlog: %w", err)
	}
	f := l.files[o.Rank%l.meta.Shards]
	if _, err := f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("shardlog: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("shardlog: %w", err)
	}
	l.next++
	return nil
}

// MarkComplete seals the log after a campaign finishes, recording the
// total outcome count so a reopened log can prove it is whole. The
// marker is written atomically: a crash mid-seal leaves the log
// unsealed (plus an orphaned temp file), never an empty marker.
func (l *Log) MarkComplete() error {
	if err := writeJSON(filepath.Join(l.dir, completeName), l.next); err != nil {
		return err
	}
	l.complete = true
	return nil
}

// Close closes the appenders. Read-side iteration opens its own
// descriptors and keeps working after Close.
func (l *Log) Close() error {
	err := error(nil)
	for _, f := range l.files {
		if e := f.Close(); e != nil && err == nil {
			err = e
		}
	}
	l.files = nil
	return err
}

func (l *Log) closeFiles() {
	for _, f := range l.files {
		f.Close()
	}
	l.files = nil
}

// Scan streams every outcome in rank order through fn, holding one
// decoded outcome in memory at a time (K buffered readers, no
// materialization). It may run on an open or closed Log.
func (l *Log) Scan(fn func(study.Outcome) error) error {
	return l.scanRaw(func(rank int, line []byte) error {
		var o study.Outcome
		if err := json.Unmarshal(line, &o); err != nil {
			return fmt.Errorf("shardlog: rank %d: %w", rank, err)
		}
		if o.Rank != rank {
			return fmt.Errorf("shardlog: rank %d record carries rank %d", rank, o.Rank)
		}
		return fn(o)
	})
}

// errStop makes scanRaw's early exit distinguishable from failures.
var errStop = errors.New("shardlog: stop")

// scanRaw round-robins the shard files in rank order, handing fn each
// raw NDJSON line.
func (l *Log) scanRaw(fn func(rank int, line []byte) error) error {
	k := l.meta.Shards
	readers := make([]*bufio.Reader, k)
	for i := 0; i < k; i++ {
		f, err := os.Open(filepath.Join(l.dir, shardName(i)))
		if err != nil {
			return fmt.Errorf("shardlog: %w", err)
		}
		defer f.Close()
		readers[i] = bufio.NewReaderSize(f, 64<<10)
	}
	for rank := 0; rank < l.next; rank++ {
		line, err := readers[rank%k].ReadBytes('\n')
		if err != nil {
			return fmt.Errorf("shardlog: rank %d: %w", rank, err)
		}
		if err := fn(rank, bytes.TrimSuffix(line, []byte("\n"))); err != nil {
			return err
		}
	}
	return nil
}

// Outcomes returns a re-iterable sequence over the log in rank order.
// Each iteration opens fresh readers, so the sequence can feed several
// analysis passes. A read error stops iteration and lands in *errp.
func (l *Log) Outcomes(errp *error) func(yield func(study.Outcome) bool) {
	return func(yield func(study.Outcome) bool) {
		err := l.Scan(func(o study.Outcome) error {
			if !yield(o) {
				return errStop
			}
			return nil
		})
		if err != nil && !errors.Is(err, errStop) && errp != nil {
			*errp = err
		}
	}
}

// Reports returns a re-iterable sequence of just the measurement
// reports, for the bounded-memory analysis pipeline.
func (l *Log) Reports(errp *error) func(yield func(*vpntest.VPReport) bool) {
	return func(yield func(*vpntest.VPReport) bool) {
		for o := range l.Outcomes(errp) {
			if o.Report == nil {
				continue
			}
			if !yield(o.Report) {
				return
			}
		}
	}
}

// WriteMergedNDJSON streams the raw log lines in rank order — the
// merged single-file view served by the daemon's result endpoint.
func (l *Log) WriteMergedNDJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	if err := l.scanRaw(func(_ int, line []byte) error {
		if _, err := bw.Write(line); err != nil {
			return err
		}
		return bw.WriteByte('\n')
	}); err != nil {
		return err
	}
	return bw.Flush()
}

// Lean folds the log into a counts-and-stubs study.Result: report
// records become stubs carrying identity and test errors (for the
// collection-health table), connect failures, recoveries, and
// quarantines are real, and VPsAttempted is the outcome count. To
// resume a campaign from the log, pass Scan as RunConfig.Resume
// instead.
func (l *Log) Lean() (*study.Result, error) {
	return l.fold(func(r *vpntest.VPReport) *vpntest.VPReport {
		return &vpntest.VPReport{Provider: r.Provider, VPLabel: r.VPLabel, Errors: r.Errors}
	})
}

// Result folds a sealed log into the campaign's full study.Result —
// equal to what the same campaign run in memory returns, so its
// results envelope is byte-identical too. Every report is
// materialized; bounded-memory consumers iterate Outcomes or Reports
// instead.
func (l *Log) Result() (*study.Result, error) {
	if !l.complete {
		return nil, fmt.Errorf("shardlog: %s is not sealed", l.dir)
	}
	return l.fold(study.KeepReport)
}

// fold scans the log through a study.Fold mapping reports by report.
func (l *Log) fold(report func(*vpntest.VPReport) *vpntest.VPReport) (*study.Result, error) {
	f := study.Fold{Report: report}
	if err := l.Scan(f.Add); err != nil {
		return nil, err
	}
	return f.Result(), nil
}

// writeJSON atomically replaces path with v's JSON encoding (temp file,
// fsync, rename, directory fsync).
func writeJSON(path string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("shardlog: %w", err)
	}
	if err := results.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(append(raw, '\n'))
		return err
	}); err != nil {
		return fmt.Errorf("shardlog: %w", err)
	}
	return nil
}
