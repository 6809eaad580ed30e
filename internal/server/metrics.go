// The daemon's operational metrics surface, exposed by /metricsz as
// JSON and as Prometheus text exposition (?format=prom), and scoped per
// campaign by /campaigns/{id}/metricsz. Two sources feed it: a small
// registry of admission/watchdog/dump counters for facts no campaign
// owns, kept by the daemon itself; and the campaigns' flight recorders,
// which instrument the measurement engine — a campaign's view is its
// own ring's snapshot, the fleet view the sum of every campaign ring.
package server

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vpnscope/internal/flightrec"
)

// MetricsSchemaVersion identifies the /metricsz JSON layout.
const MetricsSchemaVersion = "vpnscoped-metrics/1"

// tenantCounters are one tenant's admission outcomes.
type tenantCounters struct {
	admitted          atomic.Int64
	rejectedQuota     atomic.Int64
	rejectedQueueFull atomic.Int64
	rejectedDraining  atomic.Int64
}

// daemonMetrics is the daemon-wide registry. Counters are individually
// atomic; the tenant map is guarded by mu and only ever grows.
type daemonMetrics struct {
	mu      sync.Mutex
	tenants map[string]*tenantCounters

	watchdogSlotStalls   atomic.Int64
	watchdogCommitStalls atomic.Int64
	watchdogDrainStalls  atomic.Int64
	flightDumps          atomic.Int64
}

// tenant returns (creating on first use) one tenant's counters.
func (m *daemonMetrics) tenant(name string) *tenantCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	tc, ok := m.tenants[name]
	if !ok {
		tc = &tenantCounters{}
		m.tenants[name] = tc
	}
	return tc
}

// tenantView is one tenant's wire form.
type tenantView struct {
	Admitted          int64 `json:"admitted"`
	RejectedQuota     int64 `json:"rejected_quota"`
	RejectedQueueFull int64 `json:"rejected_queue_full"`
	RejectedDraining  int64 `json:"rejected_draining"`
}

// flightView summarizes the flight-recorder layer.
type flightView struct {
	Enabled       bool   `json:"enabled"`
	Dumps         int64  `json:"dumps"`
	DaemonEvents  uint64 `json:"daemon_events"`
	DaemonDropped uint64 `json:"daemon_dropped"`
	// CampaignDropped sums ring-wrap drops across every campaign ring —
	// nonzero means some campaign's event trail has lost its head.
	CampaignDropped uint64 `json:"campaign_dropped"`
}

// watchdogView is the stall watchdog's fire counts.
type watchdogView struct {
	SlotStalls   int64 `json:"slot_stalls"`
	CommitStalls int64 `json:"commit_stalls"`
	DrainStalls  int64 `json:"drain_stalls"`
}

// daemonMetricsView is the daemon section of /metricsz.
type daemonMetricsView struct {
	QueueDepth   int                   `json:"queue_depth"`
	FleetWorkers int                   `json:"fleet_workers"`
	FleetFree    int                   `json:"fleet_free"`
	Draining     bool                  `json:"draining"`
	Campaigns    map[string]int        `json:"campaigns"`
	Tenants      map[string]tenantView `json:"tenants"`
	Watchdog     watchdogView          `json:"watchdog"`
	Flightrec    flightView            `json:"flightrec"`
}

// metricsDoc is the full /metricsz JSON body. The telemetry section —
// the sum of every campaign ring — is present whenever flight
// recording is on.
type metricsDoc struct {
	Schema    string             `json:"schema"`
	Daemon    daemonMetricsView  `json:"daemon"`
	Telemetry *flightrec.Metrics `json:"telemetry,omitempty"`
}

// fleetMetrics is the fleet view: one snapshot summing every campaign
// ring the daemon holds. Nil when flight recording is off.
func (d *Daemon) fleetMetrics() *flightrec.Metrics {
	if d.rec == nil {
		return nil
	}
	var rings []*flightrec.Ring
	for _, c := range d.Campaigns() {
		rings = append(rings, c.flight)
	}
	return flightrec.Sum(rings...)
}

// metricsView assembles the daemon section.
func (d *Daemon) metricsView() daemonMetricsView {
	d.mu.Lock()
	queueDepth := len(d.queue)
	fleetFree := d.fleetFree
	draining := d.draining
	d.mu.Unlock()

	v := daemonMetricsView{
		QueueDepth:   queueDepth,
		FleetWorkers: d.cfg.FleetWorkers,
		FleetFree:    fleetFree,
		Draining:     draining,
		Campaigns: map[string]int{
			string(StateQueued): 0, string(StateRunning): 0, string(StateDone): 0,
			string(StateFailed): 0, string(StateInterrupted): 0,
		},
		Watchdog: watchdogView{
			SlotStalls:   d.metrics.watchdogSlotStalls.Load(),
			CommitStalls: d.metrics.watchdogCommitStalls.Load(),
			DrainStalls:  d.metrics.watchdogDrainStalls.Load(),
		},
	}
	for _, c := range d.Campaigns() {
		c.mu.Lock()
		state := c.state
		c.mu.Unlock()
		v.Campaigns[string(state)]++
		if st := c.flight.Stats(); st.Dropped > 0 {
			v.Flightrec.CampaignDropped += st.Dropped
		}
	}
	v.Flightrec.Enabled = d.rec != nil
	v.Flightrec.Dumps = d.metrics.flightDumps.Load()
	if st := d.rec.Stats(); st.Capacity > 0 {
		v.Flightrec.DaemonEvents = st.Events
		v.Flightrec.DaemonDropped = st.Dropped
	}
	v.Tenants = map[string]tenantView{}
	d.metrics.mu.Lock()
	for name, tc := range d.metrics.tenants {
		v.Tenants[name] = tenantView{
			Admitted:          tc.admitted.Load(),
			RejectedQuota:     tc.rejectedQuota.Load(),
			RejectedQueueFull: tc.rejectedQueueFull.Load(),
			RejectedDraining:  tc.rejectedDraining.Load(),
		}
	}
	d.metrics.mu.Unlock()
	return v
}

// ---- Prometheus text exposition (format 0.0.4), hand-written: a
// handful of families does not justify a client library dependency.

func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promWriter) family(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// histogram writes one flight-recorder histogram as a cumulative
// Prometheus histogram in seconds. Bounds are the recorder's
// millisecond buckets; the snapshot lists occupied buckets in ascending
// order, which exposition permits (le sets need not be dense).
func (p *promWriter) histogram(name, help string, hs flightrec.HistogramSnapshot, labels string) {
	p.family(name, "histogram", help)
	cum := int64(0)
	for _, b := range hs.Buckets {
		if b.LeMs < 0 {
			continue
		}
		cum += b.N
		p.printf("%s_bucket{%sle=\"%g\"} %d\n", name, labels, float64(b.LeMs)/1e3, cum)
	}
	p.printf("%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, hs.Count)
	bare := strings.TrimSuffix(labels, ",")
	if bare != "" {
		bare = "{" + bare + "}"
	}
	p.printf("%s_sum%s %g\n", name, bare, hs.SumMs/1e3)
	p.printf("%s_count%s %d\n", name, bare, hs.Count)
}

// writeProm writes the whole daemon-wide exposition.
func (d *Daemon) writeProm(w io.Writer) error {
	v := d.metricsView()
	p := &promWriter{w: w}

	p.family("vpnscoped_queue_depth", "gauge", "Admitted campaigns waiting for fleet capacity.")
	p.printf("vpnscoped_queue_depth %d\n", v.QueueDepth)
	p.family("vpnscoped_fleet_workers", "gauge", "Shared worker fleet size.")
	p.printf("vpnscoped_fleet_workers %d\n", v.FleetWorkers)
	p.family("vpnscoped_fleet_free", "gauge", "Fleet worker tokens currently unassigned.")
	p.printf("vpnscoped_fleet_free %d\n", v.FleetFree)
	p.family("vpnscoped_draining", "gauge", "1 while admission is closed for drain.")
	draining := 0
	if v.Draining {
		draining = 1
	}
	p.printf("vpnscoped_draining %d\n", draining)

	p.family("vpnscoped_campaigns", "gauge", "Campaigns by lifecycle state.")
	states := make([]string, 0, len(v.Campaigns))
	for s := range v.Campaigns {
		states = append(states, s)
	}
	sort.Strings(states)
	for _, s := range states {
		p.printf("vpnscoped_campaigns{state=\"%s\"} %d\n", promEscape(s), v.Campaigns[s])
	}

	tenants := make([]string, 0, len(v.Tenants))
	for t := range v.Tenants {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	p.family("vpnscoped_tenant_admitted_total", "counter", "Campaigns admitted, by tenant.")
	for _, t := range tenants {
		p.printf("vpnscoped_tenant_admitted_total{tenant=\"%s\"} %d\n", promEscape(t), v.Tenants[t].Admitted)
	}
	p.family("vpnscoped_tenant_rejected_total", "counter", "Submissions refused, by tenant and reason.")
	for _, t := range tenants {
		tv := v.Tenants[t]
		p.printf("vpnscoped_tenant_rejected_total{tenant=\"%s\",reason=\"quota\"} %d\n", promEscape(t), tv.RejectedQuota)
		p.printf("vpnscoped_tenant_rejected_total{tenant=\"%s\",reason=\"queue_full\"} %d\n", promEscape(t), tv.RejectedQueueFull)
		p.printf("vpnscoped_tenant_rejected_total{tenant=\"%s\",reason=\"draining\"} %d\n", promEscape(t), tv.RejectedDraining)
	}

	p.family("vpnscoped_watchdog_fires_total", "counter", "Stall watchdog fires, by stall kind.")
	p.printf("vpnscoped_watchdog_fires_total{kind=\"slot_stall\"} %d\n", v.Watchdog.SlotStalls)
	p.printf("vpnscoped_watchdog_fires_total{kind=\"commit_stall\"} %d\n", v.Watchdog.CommitStalls)
	p.printf("vpnscoped_watchdog_fires_total{kind=\"drain_stall\"} %d\n", v.Watchdog.DrainStalls)

	p.family("vpnscoped_flightrec_dumps_total", "counter", "Flight-recorder dumps written.")
	p.printf("vpnscoped_flightrec_dumps_total %d\n", v.Flightrec.Dumps)
	p.family("vpnscoped_flightrec_events_total", "counter", "Events recorded on the daemon-wide ring.")
	p.printf("vpnscoped_flightrec_events_total %d\n", v.Flightrec.DaemonEvents)
	p.family("vpnscoped_flightrec_dropped_total", "counter", "Ring-wrap drops, daemon ring plus all campaign rings.")
	p.printf("vpnscoped_flightrec_dropped_total %d\n", v.Flightrec.DaemonDropped+v.Flightrec.CampaignDropped)

	if s := d.fleetMetrics(); s != nil {
		p.family("vpnscope_slots_done_total", "counter", "Vantage-point slots decided (committed, resumed, or skipped).")
		p.printf("vpnscope_slots_done_total %d\n", s.Campaign.SlotsDone)
		p.family("vpnscope_reports_total", "counter", "Vantage points measured successfully.")
		p.printf("vpnscope_reports_total %d\n", s.Campaign.Reports)
		p.family("vpnscope_connect_failures_total", "counter", "Vantage points that exhausted their connect budget.")
		p.printf("vpnscope_connect_failures_total %d\n", s.Campaign.ConnectFailures)
		p.family("vpnscope_checkpoints_total", "counter", "Outcomes streamed to campaign outcome logs.")
		p.printf("vpnscope_checkpoints_total %d\n", s.Campaign.Checkpoints)
		p.histogram("vpnscope_slot_wall_seconds", "Wall time per measured slot.", s.Wall.SlotWall, "")
		p.histogram("vpnscope_checkpoint_wall_seconds", "Wall time per outcome-log append.", s.Wall.CheckpointWall, "")
		p.family("vpnscope_slot_wall_p99_seconds", "gauge", "Rolling p99 slot wall time (bucket upper bound).")
		p.printf("vpnscope_slot_wall_p99_seconds %g\n", s.Wall.SlotWall.Quantile(0.99).Seconds())
	}
	return p.err
}

// campaignMetricsView is the per-campaign /campaigns/{id}/metricsz
// JSON body.
type campaignMetricsView struct {
	Schema     string `json:"schema"`
	ID         string `json:"id"`
	State      State  `json:"state"`
	SlotsDone  int    `json:"slots_done"`
	SlotsTotal int    `json:"slots_total,omitempty"`
	Reports    int    `json:"reports"`
	Failures   int    `json:"failures"`

	Flightrec   flightrec.Stats              `json:"flightrec"`
	ActiveSlots []activeSlotView             `json:"active_slots,omitempty"`
	SlotWallMs  *flightrec.HistogramSnapshot `json:"slot_wall_ms,omitempty"`
	SlotWallP99 float64                      `json:"slot_wall_p99_ms,omitempty"`
	// Telemetry is the campaign ring's full metrics snapshot.
	Telemetry *flightrec.Metrics `json:"telemetry,omitempty"`
}

type activeSlotView struct {
	Worker    int     `json:"worker"`
	Slot      int     `json:"slot"`
	Provider  string  `json:"provider,omitempty"`
	VP        string  `json:"vp,omitempty"`
	RunningMs float64 `json:"running_ms"`
}

// campaignMetricsViewOf assembles one campaign's scoped metrics.
func campaignMetricsViewOf(c *campaign, now time.Time) campaignMetricsView {
	st := c.status()
	v := campaignMetricsView{
		Schema:     MetricsSchemaVersion,
		ID:         st.ID,
		State:      st.State,
		SlotsDone:  st.SlotsDone,
		SlotsTotal: st.SlotsTotal,
		Reports:    st.Reports,
		Failures:   st.Failures,
		Flightrec:  c.flight.Stats(),
	}
	if r := c.flight; r != nil {
		for _, a := range r.ActiveSlots(nil) {
			v.ActiveSlots = append(v.ActiveSlots, activeSlotView{
				Worker: a.Worker, Slot: a.Slot, Provider: a.Provider, VP: a.VP,
				RunningMs: float64(now.Sub(a.Start)) / float64(time.Millisecond),
			})
		}
		v.Telemetry = r.Metrics()
		if hs := &v.Telemetry.Wall.SlotWall; hs.Count > 0 {
			v.SlotWallMs = hs
			v.SlotWallP99 = float64(hs.Quantile(0.99)) / float64(time.Millisecond)
		}
	}
	return v
}

// writeCampaignProm writes one campaign's exposition, every family
// labeled with the campaign id.
func writeCampaignProm(w io.Writer, c *campaign, now time.Time) error {
	v := campaignMetricsViewOf(c, now)
	p := &promWriter{w: w}
	label := fmt.Sprintf("campaign=\"%s\",", promEscape(v.ID))
	p.family("vpnscoped_campaign_slots_done", "gauge", "Slots decided so far.")
	p.printf("vpnscoped_campaign_slots_done{campaign=\"%s\"} %d\n", promEscape(v.ID), v.SlotsDone)
	p.family("vpnscoped_campaign_slots_total", "gauge", "Total slots in the campaign.")
	p.printf("vpnscoped_campaign_slots_total{campaign=\"%s\"} %d\n", promEscape(v.ID), v.SlotsTotal)
	p.family("vpnscoped_campaign_reports", "gauge", "Committed successful reports.")
	p.printf("vpnscoped_campaign_reports{campaign=\"%s\"} %d\n", promEscape(v.ID), v.Reports)
	p.family("vpnscoped_campaign_failures", "gauge", "Committed connect failures.")
	p.printf("vpnscoped_campaign_failures{campaign=\"%s\"} %d\n", promEscape(v.ID), v.Failures)
	p.family("vpnscoped_campaign_state", "gauge", "1 for the campaign's current state.")
	p.printf("vpnscoped_campaign_state{campaign=\"%s\",state=\"%s\"} 1\n", promEscape(v.ID), promEscape(string(v.State)))
	p.family("vpnscoped_campaign_flightrec_events_total", "counter", "Events recorded on the campaign ring.")
	p.printf("vpnscoped_campaign_flightrec_events_total{campaign=\"%s\"} %d\n", promEscape(v.ID), v.Flightrec.Events)
	p.family("vpnscoped_campaign_flightrec_dropped_total", "counter", "Ring-wrap drops on the campaign ring.")
	p.printf("vpnscoped_campaign_flightrec_dropped_total{campaign=\"%s\"} %d\n", promEscape(v.ID), v.Flightrec.Dropped)
	p.family("vpnscoped_campaign_active_slots", "gauge", "Slots currently being measured.")
	p.printf("vpnscoped_campaign_active_slots{campaign=\"%s\"} %d\n", promEscape(v.ID), len(v.ActiveSlots))
	if r := c.flight; r != nil {
		if h := r.SlotWall(); h.Count() > 0 {
			p.histogram("vpnscoped_campaign_slot_wall_seconds", "Wall time per measured slot.", h.Snapshot(), label)
			p.family("vpnscoped_campaign_slot_wall_p99_seconds", "gauge", "Rolling p99 slot wall time (bucket upper bound).")
			p.printf("vpnscoped_campaign_slot_wall_p99_seconds{campaign=\"%s\"} %g\n", promEscape(v.ID), h.Quantile(0.99).Seconds())
		}
	}
	return p.err
}
