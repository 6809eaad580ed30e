// Chaosaudit: run a small campaign under the "lossy" fault profile —
// packet loss, link flaps, resolver blackouts, tunnel resets, and
// connect refusals, all derived from the seed — with the resilient
// runner's retry/backoff, quarantine, and a durable outcome log engaged. The
// point: the headline verdicts (Seed4.me injects ads, WorldVPN leaks
// DNS) survive the chaos, and every vantage point the chaos claimed is
// accounted for rather than silently dropped.
//
// Run with: go run ./examples/chaosaudit
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"vpnscope/internal/analysis"
	"vpnscope/internal/ecosystem"
	"vpnscope/internal/faultsim"
	"vpnscope/internal/report"
	"vpnscope/internal/results/shardlog"
	"vpnscope/internal/study"
	"vpnscope/internal/vpn"
)

func main() {
	log.SetFlags(0)

	// A four-provider slice of the ecosystem: an ad injector, a proxy,
	// a DNS leaker, and a provider with virtual vantage points.
	var specs []vpn.ProviderSpec
	for _, s := range ecosystem.TestedSpecs(2018, 5) {
		switch s.Name {
		case "Seed4.me", "CyberGhost", "WorldVPN", "Avira":
			specs = append(specs, s)
		}
	}
	world, err := study.Build(study.Options{
		Seed: 2018, Providers: specs, ExtraTLSHosts: 10, LandmarkCount: 20,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Unleash the chaos: every fault below derives from the seed, so
	// this exact sequence of flaps, drops, and refusals replays on
	// every run.
	plan := world.EnableFaults(faultsim.Lossy)
	fmt.Printf("fault profile: %q (%.0f%% loss, flaps every %v, %.0f%% connect refusals)\n\n",
		plan.Profile().Name, 100*plan.Profile().PacketLoss,
		plan.Profile().FlapEvery, 100*plan.Profile().ConnectRefusalRate)

	// The resilient runner: three connect attempts per vantage point
	// with exponential backoff, a circuit breaker after consecutive
	// failures, and every outcome appended to a one-shard log. Kill
	// this process mid-run and start it again: it resumes from the log,
	// and the final results are byte-identical to an uninterrupted
	// campaign.
	logDir := filepath.Join(os.TempDir(), "chaosaudit-outcomes")
	lg, err := shardlog.Open(logDir, shardlog.Meta{Seed: 2018, Shards: 1, FaultProfile: "lossy"})
	if err != nil {
		log.Fatal(err)
	}
	if !lg.Complete() {
		cfg := study.RunConfig{ConnectAttempts: 3, QuarantineAfter: 3, Stream: lg.Append}
		if lg.NextRank() > 0 {
			cfg.Resume = lg.Scan
			fmt.Printf("resuming: %d vantage points already in %s\n\n", lg.NextRank(), logDir)
		}
		if _, err := world.RunWith(cfg); err != nil {
			log.Fatal(err)
		}
		if err := lg.MarkComplete(); err != nil {
			log.Fatal(err)
		}
	}
	res, err := lg.Result()
	if err != nil {
		log.Fatal(err)
	}
	lg.Close()
	defer os.RemoveAll(logDir)

	report.WriteCollectionHealth(os.Stdout, res)

	s := plan.Stats()
	fmt.Printf("\ninjected: %d drops, %d flap drops, %d refusals, %d spikes, %d blackout drops, %d tunnel resets\n",
		s.Dropped, s.Flapped, s.Refused, s.Delayed, s.Blackouts, s.TunnelResets)

	// The verdicts the paper reports — still recovered under chaos.
	fmt.Println("\nverdicts under chaos:")
	for _, inj := range analysis.Injections(analysis.Slice(res.Reports)) {
		fmt.Printf("  %s injects content on %d pages\n", inj.Provider, inj.Pages)
	}
	for _, p := range analysis.TransparentProxies(analysis.Slice(res.Reports)) {
		fmt.Printf("  %s runs a transparent proxy\n", p)
	}
	leaks := analysis.Leaks(analysis.Slice(res.Reports))
	for _, p := range leaks.DNSLeakers {
		fmt.Printf("  %s leaks DNS queries\n", p)
	}
	for _, p := range analysis.DetectVirtualVPs(analysis.Slice(res.Reports), world.Config).Providers {
		fmt.Printf("  %s advertises virtual vantage points\n", p)
	}
}
