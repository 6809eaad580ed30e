// Command vpnscoped is the resident campaign service: a long-running
// daemon that accepts campaign specs over HTTP/JSON, multiplexes them
// over a bounded shared worker fleet, streams progress, appends every
// vantage-point outcome of a running campaign to its shard log, and —
// killed or crashed — resumes all in-flight campaigns byte-identically
// on the next start.
//
// Usage:
//
//	vpnscoped -state DIR [-addr HOST:PORT] [-queue N] [-fleet N]
//	          [-tenant-quota N] [-drain-grace DUR] [-retry-after DUR]
//	          [-flightrec-events N] [-watchdog-interval DUR]
//	          [-stall-multiple F] [-stall-floor DUR]
//	vpnscoped -oneshot SPEC.json [-out FILE]
//
// Endpoints: POST/GET /campaigns, GET /campaigns/{id}[/result|/events|
// /metricsz], DELETE /campaigns/{id}, /healthz, /readyz, /metricsz
// (?format=prom for Prometheus text), /debugz/flightrec. SIGINT/SIGTERM
// drain gracefully: admission closes (503), running campaigns finish or
// stop with their outcome logs durable, and the process exits 0. See README "Campaign-as-a-
// service" for a curl walkthrough.
//
// Every campaign (and the daemon itself) carries a bounded flight
// recorder; on panic, terminal failure, drain interrupt, or a stall
// watchdog fire, its last -flightrec-events events land as NDJSON in
// the state dir next to the outcome logs. See README "Flight recorder
// and watchdog".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"log"
	"os"
	"runtime"
	"time"

	"vpnscope/internal/results"
	"vpnscope/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vpnscoped: ")
	addr := flag.String("addr", "127.0.0.1:8080", "HTTP listen address (:0 picks a free port)")
	state := flag.String("state", "", "state directory for specs and outcome logs (required)")
	queue := flag.Int("queue", 16, "admission queue bound; submissions beyond it get 429 + Retry-After")
	fleet := flag.Int("fleet", runtime.GOMAXPROCS(0), "shared worker-fleet size across all running campaigns")
	tenantQuota := flag.Int("tenant-quota", 0, "max queued+running campaigns per tenant (0 = unlimited)")
	drainGrace := flag.Duration("drain-grace", 2*time.Second, "how long a drain lets campaigns finish before stopping them for resume")
	retryAfter := flag.Duration("retry-after", 2*time.Second, "Retry-After hint on backpressure responses")
	flightEvents := flag.Int("flightrec-events", 0, "flight-recorder ring size in events per campaign (0 = default 4096, negative disables recorder and watchdog)")
	watchdogInterval := flag.Duration("watchdog-interval", time.Second, "stall-watchdog sweep period (negative disables the watchdog)")
	stallMultiple := flag.Float64("stall-multiple", 8, "slot-stall threshold as a multiple of the campaign's rolling p99 slot time")
	stallFloor := flag.Duration("stall-floor", 30*time.Second, "minimum stall threshold; also the committer-staleness and drain-overrun margin")
	oneshot := flag.String("oneshot", "", "run a campaign spec file synchronously (no daemon) and exit")
	out := flag.String("out", "", "with -oneshot: write the result envelope to this file (default stdout)")
	flag.Parse()

	if *oneshot != "" {
		runOneShot(*oneshot, *out)
		return
	}

	if *state == "" {
		log.Fatal("missing -state DIR (the daemon's durable campaign store)")
	}
	err := server.Serve(server.ServeConfig{
		Config: server.Config{
			StateDir:         *state,
			QueueBound:       *queue,
			FleetWorkers:     *fleet,
			MaxPerTenant:     *tenantQuota,
			DrainGrace:       *drainGrace,
			RetryAfter:       *retryAfter,
			FlightEvents:     *flightEvents,
			WatchdogInterval: *watchdogInterval,
			StallMultiple:    *stallMultiple,
			StallFloor:       *stallFloor,
			Logf:             log.Printf,
		},
		Addr: *addr,
	})
	if err != nil {
		log.Fatal(err)
	}
}

// runOneShot executes a spec file through the exact engine the daemon
// uses — the reference run the chaos tests compare daemon results to.
func runOneShot(specPath, outPath string) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		log.Fatal(err)
	}
	var spec server.CampaignSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		log.Fatalf("decoding %s: %v", specPath, err)
	}
	res, err := server.RunOneShot(context.Background(), spec)
	if err != nil {
		log.Fatal(err)
	}
	env, err := server.EnvelopeBytes(spec, res)
	if err != nil {
		log.Fatal(err)
	}
	if outPath == "" {
		os.Stdout.Write(env)
		return
	}
	if err := results.WriteFileAtomic(outPath, func(w io.Writer) error {
		_, werr := w.Write(env)
		return werr
	}); err != nil {
		log.Fatal(err)
	}
	log.Printf("result written to %s (%d bytes)", outPath, len(env))
}
