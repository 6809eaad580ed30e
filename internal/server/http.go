// HTTP/JSON surface of the daemon.
//
//	POST   /campaigns             submit a CampaignSpec → 202 {id}
//	GET    /campaigns             list campaigns
//	GET    /campaigns/{id}        status JSON
//	GET    /campaigns/{id}/result final envelope (200 once done)
//	GET    /campaigns/{id}/outcomes merged shard-log NDJSON (?month=N
//	                              selects a catalog campaign's month)
//	GET    /campaigns/{id}/events NDJSON progress stream (tails live)
//	DELETE /campaigns/{id}        cancel
//	GET    /campaigns/{id}/metricsz campaign-scoped metrics (JSON, or
//	                              Prometheus text with ?format=prom)
//	GET    /healthz               process liveness (always 200)
//	GET    /readyz                admission readiness (503 while draining)
//	GET    /metricsz              daemon metrics: queue depth, per-tenant
//	                              admissions, watchdog fires, flight-
//	                              recorder stats, plus the sum of every
//	                              campaign ring's metrics snapshot. JSON
//	                              by default, Prometheus text exposition
//	                              with ?format=prom
//	GET    /debugz/flightrec      on-demand flight-recorder dump (NDJSON;
//	                              daemon ring, or ?campaign=id for one
//	                              campaign's ring)
//
// Backpressure is part of the contract, not an error path: refused
// submissions carry Retry-After, and a draining daemon answers 503
// everywhere new work could enter.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"vpnscope/internal/flightrec"
	"vpnscope/internal/results/shardlog"
)

// Handler returns the daemon's HTTP API.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", d.handleSubmit)
	mux.HandleFunc("GET /campaigns", d.handleList)
	mux.HandleFunc("GET /campaigns/{id}", d.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/result", d.handleResult)
	mux.HandleFunc("GET /campaigns/{id}/outcomes", d.handleOutcomes)
	mux.HandleFunc("GET /campaigns/{id}/events", d.handleEvents)
	mux.HandleFunc("DELETE /campaigns/{id}", d.handleCancel)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if d.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /metricsz", d.handleMetrics)
	mux.HandleFunc("GET /campaigns/{id}/metricsz", d.handleCampaignMetrics)
	mux.HandleFunc("GET /debugz/flightrec", d.handleFlightrec)
	return mux
}

// handleMetrics serves the daemon-wide registry. The JSON body always
// has the daemon section; the telemetry section, summed over every
// campaign ring, appears whenever flight recording is on. ?format=prom
// switches to Prometheus text exposition.
func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := d.writeProm(w); err != nil {
			d.cfg.Logf("metricsz: %v", err)
		}
		return
	}
	doc := metricsDoc{Schema: MetricsSchemaVersion, Daemon: d.metricsView(), Telemetry: d.fleetMetrics()}
	writeJSON(w, http.StatusOK, doc)
}

// handleCampaignMetrics serves one campaign's scoped view: progress
// counts, flight-recorder stats, in-flight slots, the slot wall-time
// histogram with its p99, and the ring's full metrics snapshot.
func (d *Daemon) handleCampaignMetrics(w http.ResponseWriter, r *http.Request) {
	c, ok := d.campaignOr404(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := writeCampaignProm(w, c, time.Now()); err != nil {
			d.cfg.Logf("campaign %s: metricsz: %v", c.id, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, campaignMetricsViewOf(c, time.Now()))
}

// handleFlightrec dumps a flight-recorder ring on demand as NDJSON —
// the daemon-wide ring by default, one campaign's with ?campaign=id.
// 404 when recording is disabled or the campaign is unknown.
func (d *Daemon) handleFlightrec(w http.ResponseWriter, r *http.Request) {
	ring, id := d.rec, "daemon"
	if q := r.URL.Query().Get("campaign"); q != "" {
		c, ok := d.Campaign(q)
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown campaign " + q})
			return
		}
		ring, id = c.flight, c.id
	}
	if ring == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{
			"error": "flight recorder disabled (vpnscoped -flightrec-events < 0)"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := ring.WriteNDJSON(w, flightrec.DumpMeta{Campaign: id, Reason: "on-demand"}); err != nil {
		d.cfg.Logf("debugz/flightrec %s: %v", id, err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec CampaignSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("decoding spec: %v", err)})
		return
	}
	c, err := d.Submit(spec)
	if err != nil {
		var se *SubmitError
		if errors.As(err, &se) {
			if se.RetryAfter > 0 {
				secs := int(se.RetryAfter.Round(time.Second) / time.Second)
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
			}
			writeJSON(w, se.Status, map[string]string{"error": se.Error()})
			return
		}
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	accepted := map[string]string{
		"id":       c.id,
		"status":   "/campaigns/" + c.id,
		"events":   "/campaigns/" + c.id + "/events",
		"result":   "/campaigns/" + c.id + "/result",
		"outcomes": "/campaigns/" + c.id + "/outcomes",
	}
	writeJSON(w, http.StatusAccepted, accepted)
}

// statusView is the wire form of a campaign's status.
type statusView struct {
	ID         string       `json:"id"`
	State      State        `json:"state"`
	Spec       CampaignSpec `json:"spec"`
	SlotsDone  int          `json:"slots_done"`
	SlotsTotal int          `json:"slots_total,omitempty"`
	Reports    int          `json:"reports"`
	Failures   int          `json:"failures"`
	Error      string       `json:"error,omitempty"`
}

func (c *campaign) status() statusView {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := statusView{
		ID:         c.id,
		State:      c.state,
		Spec:       c.spec,
		SlotsTotal: c.slotsTotal,
		Error:      c.errText,
	}
	// The latest progress event carries the committed counts.
	for i := len(c.events) - 1; i >= 0; i-- {
		ev := c.events[i]
		if ev.Type == "progress" || ev.Type == "started" {
			v.SlotsDone = ev.SlotsDone
			v.Reports = ev.Reports
			v.Failures = ev.Failures
			break
		}
	}
	return v
}

func (d *Daemon) handleList(w http.ResponseWriter, r *http.Request) {
	var out []statusView
	for _, c := range d.Campaigns() {
		out = append(out, c.status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": out})
}

func (d *Daemon) campaignOr404(w http.ResponseWriter, r *http.Request) (*campaign, bool) {
	c, ok := d.Campaign(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown campaign " + r.PathValue("id")})
	}
	return c, ok
}

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	c, ok := d.campaignOr404(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, c.status())
}

func (d *Daemon) handleResult(w http.ResponseWriter, r *http.Request) {
	c, ok := d.campaignOr404(w, r)
	if !ok {
		return
	}
	c.mu.Lock()
	state := c.state
	c.mu.Unlock()
	if state != StateDone {
		writeJSON(w, http.StatusConflict, map[string]string{
			"error": fmt.Sprintf("campaign %s is %s, result not available", c.id, state)})
		return
	}
	f, err := os.Open(d.resultPath(c.id))
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/json")
	http.ServeContent(w, r, c.id+".result.json", time.Time{}, f)
}

// handleOutcomes streams a campaign's merged outcome log as NDJSON, in rank order, straight off the shard files — the result set
// is never materialized. Only sealed logs are served: opening an
// unsealed log would run recovery against files the committer is still
// appending to.
func (d *Daemon) handleOutcomes(w http.ResponseWriter, r *http.Request) {
	c, ok := d.campaignOr404(w, r)
	if !ok {
		return
	}
	month := 0
	if s := r.URL.Query().Get("month"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 || n > c.spec.Months {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad month parameter"})
			return
		}
		month = n
	}
	dir := d.monthDir(c.id, &c.spec, month)
	if !shardlog.Sealed(dir) {
		writeJSON(w, http.StatusConflict, map[string]string{
			"error": fmt.Sprintf("month %d outcome log of campaign %s is not sealed yet", month, c.id)})
		return
	}
	lg, err := shardlog.OpenExisting(dir)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	defer lg.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := lg.WriteMergedNDJSON(w); err != nil {
		d.cfg.Logf("campaign %s: streaming outcomes: %v", c.id, err)
	}
}

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	c, ok := d.campaignOr404(w, r)
	if !ok {
		return
	}
	if err := d.Cancel(c.id); err != nil {
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": c.id, "status": "cancel requested"})
}

// handleEvents streams the campaign's event log as NDJSON: the buffered
// history first, then live events as they land, ending when the
// campaign reaches a terminal state or the client goes away. `?from=N`
// skips the first N events.
func (d *Daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	c, ok := d.campaignOr404(w, r)
	if !ok {
		return
	}
	from := 0
	if s := r.URL.Query().Get("from"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad from parameter"})
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// Wake the tailing loop when the client disconnects: the campaign
	// cond has no idea about the HTTP request's lifetime.
	ctx := r.Context()
	stopWake := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stopWake()

	cursor := from
	for {
		c.mu.Lock()
		for cursor >= len(c.events) && !c.state.terminal() && ctx.Err() == nil {
			c.cond.Wait()
		}
		if cursor > len(c.events) {
			// `?from=` pointed beyond the log (the wait loop exits early
			// on a terminal campaign): there is nothing to replay, and
			// events only ever append at len, so the gap can never fill.
			// Without the clamp the batch length below goes negative.
			cursor = len(c.events)
		}
		batch := make([]Event, len(c.events)-cursor)
		copy(batch, c.events[cursor:])
		terminal := c.state.terminal()
		c.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
		for _, ev := range batch {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		cursor += len(batch)
		if flusher != nil {
			flusher.Flush()
		}
		if terminal && len(batch) == 0 {
			return
		}
		if terminal {
			// Drain any events emitted between the copy and now, then
			// loop once more to exit through the empty-batch path.
			continue
		}
	}
}
