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
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"vpnscope/internal/analysis"
	"vpnscope/internal/campaign"
	"vpnscope/internal/faultsim"
	"vpnscope/internal/report"
	"vpnscope/internal/results/shardlog"
)

func main() {
	log.SetFlags(0)

	// A four-provider slice of the ecosystem: an ad injector, a proxy,
	// a DNS leaker, and a provider with virtual vantage points. Every
	// fault below derives from the seed, so this exact sequence of
	// flaps, drops, and refusals replays on every run. The resilient
	// runner makes three connect attempts per vantage point with
	// exponential backoff and trips a circuit breaker after consecutive
	// failures.
	profile := faultsim.Lossy
	spec := campaign.Spec{
		Seed:            2018,
		Providers:       []string{"Seed4.me", "CyberGhost", "WorldVPN", "Avira"},
		FaultProfile:    profile.Name,
		ConnectAttempts: 3,
		QuarantineAfter: 3,
		ExtraTLSHosts:   10,
		LandmarkCount:   20,
	}
	fmt.Printf("fault profile: %q (%.0f%% loss, flaps every %v, %.0f%% connect refusals)\n\n",
		profile.Name, 100*profile.PacketLoss, profile.FlapEvery, 100*profile.ConnectRefusalRate)

	// Every outcome is appended to a one-shard log. Kill this process
	// mid-run and start it again: it resumes from the log, and the
	// final results are byte-identical to an uninterrupted campaign.
	logDir := filepath.Join(os.TempDir(), "chaosaudit-outcomes")
	audits, err := campaign.Run(context.Background(), spec, logDir, campaign.Hooks{
		Started: func(lg *shardlog.Log, _ int) error {
			if lg.NextRank() > 0 {
				fmt.Printf("resuming: %d vantage points already in %s\n\n", lg.NextRank(), logDir)
			}
			return nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	a := audits[0]
	res, err := a.Log.Result()
	if err != nil {
		log.Fatal(err)
	}
	a.Log.Close()
	defer os.RemoveAll(logDir)

	report.WriteCollectionHealth(os.Stdout, res)

	s := a.World.Faults().Stats()
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
	for _, p := range analysis.DetectVirtualVPs(analysis.Slice(res.Reports), a.World.Config).Providers {
		fmt.Printf("  %s advertises virtual vantage points\n", p)
	}
}
