// Package server is the campaign-as-a-service layer: a resident daemon
// that accepts campaign specs over an HTTP/JSON API, multiplexes
// concurrent campaigns over a bounded shared worker fleet (and the
// study package's world-template cache), streams progress events, and
// survives crashes — every running campaign appends each vantage-point
// outcome to its shard log, and a restarted daemon resumes all in-flight
// campaigns byte-identically to an uninterrupted run.
//
// The robustness contract, stated once and tested in chaos_test.go:
//
//		admission → queue → fleet → committer → drain
//
//	  - Admission is explicit: a bounded queue with 429/Retry-After
//	    backpressure when full, plus per-tenant quotas. Nothing is ever
//	    accepted that the daemon has not durably recorded (the spec file
//	    is fsynced before the 202 goes out).
//	  - Execution is isolated: each campaign runs under its own context
//	    (deadline, drain, or client cancellation stop it at the next
//	    vantage-point slot boundary) and its own panic shield — one
//	    poisoned campaign cannot take down the fleet.
//	  - Results are deterministic: the envelope folded from the sealed
//	    log of a campaign that was queued, preempted, crashed, and
//	    resumed is byte-identical to the same spec run uninterrupted in
//	    one shot (RunOneShot), because the study layer's slot-aligned
//	    determinism contract makes every durable log prefix a resumable
//	    pure prefix.
package server

import (
	"bytes"
	"context"

	runner "vpnscope/internal/campaign"
	"vpnscope/internal/results"
	"vpnscope/internal/study"
)

// CampaignSpec is the submission payload, a campaign.Spec: everything a
// campaign needs to be reproduced from scratch. The daemon persists it
// verbatim at admission, and crash recovery re-runs it (resuming its
// outcome log) with no other state.
type CampaignSpec runner.Spec

// tenant returns the quota key.
func (s *CampaignSpec) tenant() string {
	if s.Tenant == "" {
		return "default"
	}
	return s.Tenant
}

// runConfig assembles the study.RunConfig for this spec.
func (s *CampaignSpec) runConfig(ctx context.Context, workers int) study.RunConfig {
	return (*runner.Spec)(s).RunConfig(ctx, workers)
}

// buildWorldFn builds the spec's world at a virtual month (0 outside
// catalog mode); a test seam so admission and isolation tests can
// substitute instant or poisoned worlds.
var buildWorldFn = func(spec *CampaignSpec, month int) (*study.World, error) {
	s := (*runner.Spec)(spec)
	return runner.BuildWorld(s.Options(month), s.FaultProfile)
}

// runStudyFn executes a built world's campaign; a test seam so fleet
// and backpressure tests can hold campaigns open deterministically.
var runStudyFn = func(w *study.World, cfg study.RunConfig) (*study.Result, error) {
	return w.RunWith(cfg)
}

// seams are the runner hooks every run in this package starts from:
// the world-build and study-run seams, read when the run reaches them.
func seams() runner.Hooks {
	return runner.Hooks{
		Build: func(s *runner.Spec, month int) (*study.World, error) {
			return buildWorldFn((*CampaignSpec)(s), month)
		},
		Measure: func(w *study.World, cfg study.RunConfig) (*study.Result, error) {
			return runStudyFn(w, cfg)
		},
	}
}

// RunOneShot runs a campaign spec synchronously in memory, with no
// daemon, queue, or persistence — the reference execution the daemon's
// crash-recovery chaos tests compare against, and the engine behind
// `vpnscoped -oneshot`. Catalog specs run their month-0 baseline.
func RunOneShot(ctx context.Context, spec CampaignSpec) (*study.Result, error) {
	audits, err := runner.Run(ctx, runner.Spec(spec), "", seams())
	if err != nil {
		return nil, err
	}
	return audits[0].Result, nil
}

// EnvelopeBytes serializes a result under the spec's envelope options —
// the byte-identity currency of the chaos tests.
func EnvelopeBytes(spec CampaignSpec, res *study.Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := results.Save(&buf, res, (*runner.Spec)(&spec).EnvelopeOptions()...); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
