// Durable campaign state. The state directory is the daemon's whole
// memory:
//
//	<id>.spec.json         the submission, fsynced before admission succeeds
//	<id>.outcomes/         the campaign's shard log (one shard; catalog
//	                       sweeps use K shards per month, see catalog.go),
//	                       fsynced per outcome and sealed when finished
//	<id>.result.json       the final envelope (the fold of the sealed log;
//	                       a bounded summary for catalog sweeps)
//	<id>.error             the terminal-failure marker (never resumed)
//	<id>.flightrec.ndjson  flight-recorder dump (panic/cancel/watchdog)
//	<id>.stacks.txt        goroutine stacks accompanying a dump
//
// Crash recovery is a pure function of this layout: spec with result →
// done; spec with error marker → failed; spec alone (outcome log or
// not) → in-flight, re-queued in admission order and resumed from the
// log's recovered prefix. Any other file is ignored. Every file but the
// log is written atomically (results.WriteFileAtomic), and the log
// recovers from a torn append, so a kill -9 at any instant leaves a
// directory recovery can always parse.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vpnscope/internal/flightrec"
	"vpnscope/internal/results"
)

// writeFileAtomic is the shared durability primitive (temp + fsync +
// rename + dir sync, orphan cleanup on failure).
var writeFileAtomic = results.WriteFileAtomic

func (d *Daemon) specPath(id string) string { return filepath.Join(d.cfg.StateDir, id+".spec.json") }
func (d *Daemon) resultPath(id string) string {
	return filepath.Join(d.cfg.StateDir, id+".result.json")
}
func (d *Daemon) errorPath(id string) string { return filepath.Join(d.cfg.StateDir, id+".error") }

// flightPath/stacksPath hold a flight-recorder dump and its goroutine
// stacks. id is a campaign id, or "daemon" for the daemon-wide ring.
// Recovery ignores both suffixes (it scans only .spec.json), so dumps
// survive any number of restarts untouched.
func (d *Daemon) flightPath(id string) string {
	return filepath.Join(d.cfg.StateDir, id+".flightrec.ndjson")
}
func (d *Daemon) stacksPath(id string) string {
	return filepath.Join(d.cfg.StateDir, id+".stacks.txt")
}

// dumpFlight writes a ring's NDJSON dump (and optional goroutine
// stacks) atomically into the state dir. Best-effort by design: a dump
// failure is logged, never propagated — the black box must not take
// down the plane.
func (d *Daemon) dumpFlight(ring *flightrec.Ring, id, reason string, stacks []byte) {
	if ring == nil {
		return
	}
	d.metrics.flightDumps.Add(1)
	// Stacks land before the NDJSON: the dump file is the signal that
	// the black box is on disk, so everything it references must
	// already be there when it appears.
	if len(stacks) > 0 {
		err := writeFileAtomic(d.stacksPath(id), func(w io.Writer) error {
			_, werr := w.Write(stacks)
			return werr
		})
		if err != nil {
			d.cfg.Logf("campaign %s: writing stacks: %v", id, err)
		}
	}
	err := writeFileAtomic(d.flightPath(id), func(w io.Writer) error {
		return ring.WriteNDJSON(w, flightrec.DumpMeta{Campaign: id, Reason: reason})
	})
	if err != nil {
		d.cfg.Logf("campaign %s: writing flight dump: %v", id, err)
		return
	}
	d.cfg.Logf("campaign %s: flight recorder dumped (%s)", id, reason)
}

// specFile is the on-disk admission record.
type specFile struct {
	ID   string       `json:"id"`
	Spec CampaignSpec `json:"spec"`
}

// writeSpec durably records an admission.
func (d *Daemon) writeSpec(c *campaign) error {
	return writeFileAtomic(d.specPath(c.id), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(specFile{ID: c.id, Spec: c.spec})
	})
}

// writeErrorMarker durably records a terminal failure so recovery never
// resumes the campaign. Marker-write failures are logged, not fatal:
// the worst outcome is a re-run after restart, which is deterministic
// anyway.
func (d *Daemon) writeErrorMarker(id, detail string) {
	err := writeFileAtomic(d.errorPath(id), func(w io.Writer) error {
		_, werr := io.WriteString(w, detail)
		return werr
	})
	if err != nil {
		d.cfg.Logf("campaign %s: writing error marker: %v", id, err)
	}
}

// recoverState scans the state directory and rebuilds the daemon's
// in-memory view: terminal campaigns re-register for the read
// endpoints, in-flight ones re-enter the queue sorted by admission
// order (ids are zero-padded sequence numbers, so lexical order is
// admission order).
func (d *Daemon) recoverState() error {
	if err := os.MkdirAll(d.cfg.StateDir, 0o755); err != nil {
		return fmt.Errorf("server: state dir: %w", err)
	}
	entries, err := os.ReadDir(d.cfg.StateDir)
	if err != nil {
		return fmt.Errorf("server: state dir: %w", err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if id, ok := strings.CutSuffix(name, ".spec.json"); ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		raw, err := os.ReadFile(d.specPath(id))
		if err != nil {
			return fmt.Errorf("server: recovering %s: %w", id, err)
		}
		var sf specFile
		if err := json.Unmarshal(raw, &sf); err != nil {
			return fmt.Errorf("server: recovering %s: %w", id, err)
		}
		d.idSeq++
		c := newCampaign(id, d.idSeq, sf.Spec)
		c.flight = d.newRing()
		d.campaigns[id] = c
		d.order = append(d.order, c)
		switch {
		case exists(d.resultPath(id)):
			c.state = StateDone
			c.events = append(c.events, Event{Type: string(StateDone), Detail: "recovered"})
		case exists(d.errorPath(id)):
			c.state = StateFailed
			if msg, err := os.ReadFile(d.errorPath(id)); err == nil {
				c.errText = string(msg)
			}
			c.events = append(c.events, Event{Type: string(StateFailed), Detail: c.errText})
		default:
			// In-flight at crash or drain: requeue. The runner finds and
			// resumes the outcome log, when one exists.
			c.state = StateQueued
			c.events = append(c.events, Event{Type: string(StateQueued), Detail: "recovered"})
			d.queue = append(d.queue, c)
			d.cfg.Logf("campaign %s: recovered in-flight, requeued", id)
		}
	}
	return nil
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
