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
//	  - Results are deterministic: the final envelope of a campaign that
//	    was queued, preempted, crashed, and resumed is byte-identical to
//	    the same spec run uninterrupted in one shot (RunOneShot), because
//	    the study layer's slot-aligned determinism contract makes every
//	    durable log prefix a resumable pure prefix.
package server

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"vpnscope/internal/ecosystem"
	"vpnscope/internal/faultsim"
	"vpnscope/internal/results"
	"vpnscope/internal/results/shardlog"
	"vpnscope/internal/study"
	"vpnscope/internal/vpn"
)

// CampaignSpec is the submission payload: everything a campaign needs
// to be reproduced from scratch. A spec is the unit of durability — the
// daemon persists it verbatim at admission, and crash recovery re-runs
// it (resuming its outcome log) with no other state.
type CampaignSpec struct {
	// Seed drives every stochastic element of the world and campaign.
	Seed uint64 `json:"seed"`
	// Catalog, when > 0, switches the campaign to ecosystem mode: the
	// world is assembled from the first Catalog entries of the synthetic
	// provider catalog (hand-built specs for the tested 62, procedurally
	// derived profiles with planted ground truth for the rest), and
	// outcomes stream into a Shards-way outcome log whose result is a
	// bounded summary. Zero = tested-catalog mode (a one-shard log that
	// seals into a full envelope).
	Catalog int `json:"catalog,omitempty"`
	// Months, in catalog mode, re-audits the catalog at virtual months
	// 1..Months after the baseline (month 0), one shard log per month.
	// Zero = baseline only. Requires Catalog > 0: tested providers
	// never drift.
	Months int `json:"months,omitempty"`
	// Shards is the outcome-log shard count in catalog mode (zero =
	// shardlog.DefaultShards). Requires Catalog > 0.
	Shards int `json:"shards,omitempty"`
	// Providers restricts the campaign to a subset of the tested
	// catalog (empty = all 62) — or, in catalog mode, to a subset of
	// the Catalog-entry names. Unknown names are rejected at admission.
	Providers []string `json:"providers,omitempty"`
	// FaultProfile names a faultsim profile to run under (empty = clean).
	FaultProfile string `json:"fault_profile,omitempty"`
	// Workers is how many fleet workers the campaign wants (clamped to
	// [1, Config.FleetWorkers]; results are byte-identical regardless).
	Workers int `json:"workers,omitempty"`
	// ConnectAttempts / QuarantineAfter forward to study.RunConfig.
	ConnectAttempts int `json:"connect_attempts,omitempty"`
	QuarantineAfter int `json:"quarantine_after,omitempty"`
	// TimeoutSec is a wall-clock deadline; a campaign over it is failed
	// at the next slot boundary. Zero = no deadline.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// Tenant is the quota key (empty = "default").
	Tenant string `json:"tenant,omitempty"`

	// World-size knobs, forwarded to study.Options (zero = that
	// package's defaults). Small values make cheap smoke campaigns.
	VPsPerProvider  int `json:"vps_per_provider,omitempty"`
	ExtraTLSHosts   int `json:"extra_tls_hosts,omitempty"`
	LandmarkCount   int `json:"landmark_count,omitempty"`
	MaxFullSuiteVPs int `json:"max_full_suite_vps,omitempty"`
}

// tenant returns the quota key.
func (s *CampaignSpec) tenant() string {
	if s.Tenant == "" {
		return "default"
	}
	return s.Tenant
}

// validate checks everything admission can check without building a
// world: fault-profile and provider names must resolve.
func (s *CampaignSpec) validate() error {
	if s.FaultProfile != "" {
		if _, err := faultsim.ByName(s.FaultProfile); err != nil {
			return err
		}
	}
	if s.Catalog < 0 {
		return fmt.Errorf("server: negative catalog size")
	}
	if s.Catalog == 0 {
		if s.Months != 0 {
			return fmt.Errorf("server: months requires catalog mode (tested providers never drift)")
		}
		if s.Shards != 0 {
			return fmt.Errorf("server: shards requires catalog mode")
		}
	}
	if s.Months < 0 {
		return fmt.Errorf("server: negative months")
	}
	if s.Shards < 0 {
		return fmt.Errorf("server: negative shards")
	}
	if len(s.Providers) > 0 {
		known := map[string]bool{}
		if s.Catalog > 0 {
			for _, n := range ecosystem.CatalogNames(ecosystem.BuildCatalogN(s.Seed, s.Catalog)) {
				known[n] = true
			}
		} else {
			for _, n := range ecosystem.TestedNames() {
				known[n] = true
			}
		}
		for _, n := range s.Providers {
			if !known[n] {
				return fmt.Errorf("server: unknown provider %q", n)
			}
		}
	}
	if s.TimeoutSec < 0 {
		return fmt.Errorf("server: negative timeout")
	}
	return nil
}

// catalogEntries materializes the spec's catalog slice, applying the
// Providers subset filter when set. Only meaningful when Catalog > 0.
func (s *CampaignSpec) catalogEntries() []ecosystem.CatalogEntry {
	entries := ecosystem.BuildCatalogN(s.Seed, s.Catalog)
	if len(s.Providers) == 0 {
		return entries
	}
	want := map[string]bool{}
	for _, n := range s.Providers {
		want[n] = true
	}
	var subset []ecosystem.CatalogEntry
	for _, e := range entries {
		if want[e.Name] {
			subset = append(subset, e)
		}
	}
	return subset
}

// buildOptions resolves the spec to study.Options for a given virtual
// month (always 0 outside catalog mode). The provider subset is
// materialized from the catalog at the spec's seed and VP count,
// exactly as a one-shot caller would.
func (s *CampaignSpec) buildOptions(month int) study.Options {
	opts := study.Options{
		Seed:            s.Seed,
		VPsPerProvider:  s.VPsPerProvider,
		ExtraTLSHosts:   s.ExtraTLSHosts,
		LandmarkCount:   s.LandmarkCount,
		MaxFullSuiteVPs: s.MaxFullSuiteVPs,
	}
	if s.Catalog > 0 {
		opts.Providers = ecosystem.CatalogSpecs(s.Seed, s.catalogEntries(), s.VPsPerProvider, month)
		return opts
	}
	if len(s.Providers) > 0 {
		vps := s.VPsPerProvider
		if vps == 0 {
			vps = 5 // study.Options.fill's default
		}
		all := ecosystem.TestedSpecs(s.Seed, vps)
		want := map[string]bool{}
		for _, n := range s.Providers {
			want[n] = true
		}
		var subset []vpn.ProviderSpec
		for _, ps := range all {
			if want[ps.Name] {
				subset = append(subset, ps)
			}
		}
		opts.Providers = subset
	}
	return opts
}

// envelopeOptions are the serialization options every envelope of this
// spec — daemon-run or one-shot — is written with, so byte comparison
// across paths is meaningful.
func (s *CampaignSpec) envelopeOptions() []results.Option {
	opts := []results.Option{results.WithSeed(s.Seed)}
	if s.FaultProfile != "" {
		opts = append(opts, results.WithFaultProfile(s.FaultProfile))
	}
	return opts
}

// runConfig assembles the study.RunConfig for this spec.
func (s *CampaignSpec) runConfig(ctx context.Context, workers int) study.RunConfig {
	return study.RunConfig{
		ConnectAttempts: s.ConnectAttempts,
		QuarantineAfter: s.QuarantineAfter,
		Parallel:        workers,
		Ctx:             ctx,
	}
}

// logMeta pins the campaign's shard log for one month: K=Shards for a
// catalog sweep, a single shard for every other campaign.
func (s *CampaignSpec) logMeta(month int) shardlog.Meta {
	shards := s.Shards
	if s.Catalog == 0 {
		shards = 1
	}
	return shardlog.Meta{Seed: s.Seed, Shards: shards, FaultProfile: s.FaultProfile, Month: month}
}

// buildWorldFn builds the spec's world at a virtual month (0 outside
// catalog mode); a test seam so admission and isolation tests can
// substitute instant or poisoned worlds.
var buildWorldFn = func(spec *CampaignSpec, month int) (*study.World, error) {
	w, err := study.Build(spec.buildOptions(month))
	if err != nil {
		return nil, err
	}
	if spec.FaultProfile != "" {
		profile, err := faultsim.ByName(spec.FaultProfile)
		if err != nil {
			return nil, err
		}
		w.EnableFaults(profile)
	}
	return w, nil
}

// runStudyFn executes a built world's campaign; a test seam so fleet
// and backpressure tests can hold campaigns open deterministically.
var runStudyFn = func(w *study.World, cfg study.RunConfig) (*study.Result, error) {
	return w.RunWith(cfg)
}

// RunOneShot runs a campaign spec synchronously in-process, with no
// daemon, queue, or persistence — the reference execution the daemon's
// crash-recovery chaos tests compare against, and the engine behind
// `vpnscoped -oneshot`. Catalog specs run their month-0 baseline with
// the result retained in memory; the streaming shard-log path is
// daemon-only.
func RunOneShot(ctx context.Context, spec CampaignSpec) (*study.Result, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	w, err := buildWorldFn(&spec, 0)
	if err != nil {
		return nil, err
	}
	if spec.TimeoutSec > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(spec.TimeoutSec*float64(time.Second)))
		defer cancel()
	}
	return runStudyFn(w, spec.runConfig(ctx, spec.Workers))
}

// EnvelopeBytes serializes a result under the spec's envelope options —
// the byte-identity currency of the chaos tests.
func EnvelopeBytes(spec CampaignSpec, res *study.Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := results.Save(&buf, res, spec.envelopeOptions()...); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
