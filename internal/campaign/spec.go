// Package campaign is the one campaign runner. A Spec goes in, Run
// measures it month by month, and every month's sealed shard log comes
// out:
//
//	Spec → Validate → open/recover log → build world → enable faults →
//	resume from log → stream outcomes → seal (MarkComplete) → next month
//
// Every surface drives campaigns through it: the vpnscoped daemon (and
// its -oneshot mode), figures, vpnaudit and examples/chaosaudit. A CLI
// only maps its flags to a Spec, so it refuses exactly what daemon
// admission refuses, before any file is created. The sealed log is the
// campaign's result: it folds into the full study.Result
// (shardlog.(*Log).Result) or its counts (Lean) on demand.
package campaign

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"

	"vpnscope/internal/ecosystem"
	"vpnscope/internal/faultsim"
	"vpnscope/internal/results"
	"vpnscope/internal/results/shardlog"
	"vpnscope/internal/study"
	"vpnscope/internal/vpn"
)

// Spec is everything a campaign needs to be reproduced from scratch. A
// spec is the unit of durability: the daemon persists it verbatim at
// admission, and crash recovery re-runs it (resuming its outcome log)
// with no other state.
type Spec struct {
	// Seed drives every stochastic element of the world and campaign.
	Seed uint64 `json:"seed"`
	// Catalog, when > 0, switches the campaign to ecosystem mode: the
	// world is assembled from the first Catalog entries of the synthetic
	// provider catalog (hand-built specs for the tested 62, procedurally
	// derived profiles with planted ground truth for the rest), and
	// outcomes stream into a Shards-way outcome log. Zero =
	// tested-catalog mode (a one-shard log).
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
	// the Catalog-entry names. Unknown names are rejected.
	Providers []string `json:"providers,omitempty"`
	// FaultProfile names a faultsim profile to run under (empty = clean).
	FaultProfile string `json:"fault_profile,omitempty"`
	// Workers is the campaign's worker count (zero = GOMAXPROCS; the
	// daemon clamps it to its fleet). Results are byte-identical
	// regardless.
	Workers int `json:"workers,omitempty"`
	// ConnectAttempts / QuarantineAfter forward to study.RunConfig
	// (zero = that package's defaults).
	ConnectAttempts int `json:"connect_attempts,omitempty"`
	QuarantineAfter int `json:"quarantine_after,omitempty"`
	// TimeoutSec is a wall-clock deadline; a campaign over it is failed
	// at the next slot boundary. Zero = no deadline.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// Tenant is the daemon's quota key (empty = "default").
	Tenant string `json:"tenant,omitempty"`

	// World-size knobs, forwarded to study.Options (zero = that
	// package's defaults). Small values make cheap smoke campaigns.
	VPsPerProvider  int `json:"vps_per_provider,omitempty"`
	ExtraTLSHosts   int `json:"extra_tls_hosts,omitempty"`
	LandmarkCount   int `json:"landmark_count,omitempty"`
	MaxFullSuiteVPs int `json:"max_full_suite_vps,omitempty"`
}

// Validate checks everything that can be checked without building a
// world: fault-profile and provider names must resolve, months and
// shards need catalog mode, and no count may be negative.
func (s *Spec) Validate() error {
	if s.FaultProfile != "" {
		if _, err := faultsim.ByName(s.FaultProfile); err != nil {
			return err
		}
	}
	if knob := s.negativeKnob(); knob != "" {
		return fmt.Errorf("campaign: negative %s", knob)
	}
	if s.Catalog == 0 && s.Months != 0 {
		return fmt.Errorf("campaign: months requires catalog mode (tested providers never drift)")
	}
	if s.Catalog == 0 && s.Shards != 0 {
		return fmt.Errorf("campaign: shards requires catalog mode")
	}
	if len(s.Providers) > 0 {
		known := s.ProviderNames()
		for _, n := range s.Providers {
			if !slices.Contains(known, n) {
				return fmt.Errorf("campaign: unknown provider %q", n)
			}
		}
	}
	return nil
}

// ProviderNames lists the names Providers may hold: the tested 62, or
// in catalog mode the first Catalog catalog entries.
func (s *Spec) ProviderNames() []string {
	if s.Catalog > 0 {
		return ecosystem.CatalogNames(ecosystem.BuildCatalogN(s.Seed, s.Catalog))
	}
	return ecosystem.TestedNames()
}

// negativeKnob names the first negative numeric field by its JSON key,
// or returns "".
func (s *Spec) negativeKnob() string {
	v := reflect.ValueOf(*s)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); (f.CanInt() && f.Int() < 0) || (f.CanFloat() && f.Float() < 0) {
			name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
			return name
		}
	}
	return ""
}

// keeps reports whether the Providers subset (empty = all) names p.
func (s *Spec) keeps(p string) bool {
	return len(s.Providers) == 0 || slices.Contains(s.Providers, p)
}

// CatalogEntries materializes the spec's catalog slice, applying the
// Providers subset. Only meaningful when Catalog > 0.
func (s *Spec) CatalogEntries() []ecosystem.CatalogEntry {
	return slices.DeleteFunc(ecosystem.BuildCatalogN(s.Seed, s.Catalog),
		func(e ecosystem.CatalogEntry) bool { return !s.keeps(e.Name) })
}

// Options resolves the spec to study.Options for a virtual month
// (always 0 outside catalog mode).
func (s *Spec) Options(month int) study.Options {
	opts := study.Options{
		Seed:            s.Seed,
		VPsPerProvider:  s.VPsPerProvider,
		ExtraTLSHosts:   s.ExtraTLSHosts,
		LandmarkCount:   s.LandmarkCount,
		MaxFullSuiteVPs: s.MaxFullSuiteVPs,
	}
	if s.Catalog > 0 {
		opts.Providers = ecosystem.CatalogSpecs(s.Seed, s.CatalogEntries(), s.VPsPerProvider, month)
	} else if len(s.Providers) > 0 {
		opts.Providers = slices.DeleteFunc(ecosystem.TestedSpecs(s.Seed, s.VPsPerProvider),
			func(p vpn.ProviderSpec) bool { return !s.keeps(p.Name) })
	}
	return opts
}

// EnvelopeOptions are the options every results envelope of this spec
// is written with, whichever surface ran it, so envelopes of one spec
// compare byte for byte.
func (s *Spec) EnvelopeOptions() []results.Option {
	opts := []results.Option{results.WithSeed(s.Seed)}
	if s.FaultProfile != "" {
		opts = append(opts, results.WithFaultProfile(s.FaultProfile))
	}
	return opts
}

// RunConfig is the spec's study.RunConfig on workers workers.
func (s *Spec) RunConfig(ctx context.Context, workers int) study.RunConfig {
	return study.RunConfig{
		ConnectAttempts: s.ConnectAttempts,
		QuarantineAfter: s.QuarantineAfter,
		Parallel:        workers,
		Ctx:             ctx,
	}
}

// logMeta pins the campaign's shard log for one month: Shards shards
// for a catalog sweep, a single shard for every other campaign.
func (s *Spec) logMeta(month int) shardlog.Meta {
	shards := s.Shards
	if s.Catalog == 0 {
		shards = 1
	}
	return shardlog.Meta{Seed: s.Seed, Shards: shards, FaultProfile: s.FaultProfile, Month: month}
}
