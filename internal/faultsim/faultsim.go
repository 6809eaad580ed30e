// Package faultsim injects deterministic infrastructure faults into the
// simulated Internet: link flaps, packet-loss bursts, latency spikes,
// DNS-resolver blackouts, mid-suite tunnel resets, and connect-time
// refusals. The paper's data collection was dominated by exactly this
// flaky reality — dying vantage points, failed connections, and partial
// re-collection (§5.2, §6.4.2) — and follow-up measurement work shows
// that which vantage points survive a campaign silently biases the
// inferred results. faultsim exists so the campaign runner's resilience
// (retry/backoff, quarantine, kill/resume) can be validated
// against reproducible chaos: every fault schedule derives from a seed
// and the virtual clock, so a chaos run replays bit-for-bit.
//
// A Plan is installed on a netsim.Network via its FaultHook. Stochastic
// per-exchange draws (loss, spikes, refusals) come from a simrand
// stream that the campaign runner re-derives at every vantage-point
// boundary (Reset), making each vantage point's fault experience
// independent of campaign history — the property that lets a resumed
// campaign reproduce an uninterrupted one byte-for-byte. Window faults
// (flaps, blackouts, tunnel resets) are pure functions of virtual time,
// with per-kind phase offsets derived from the seed.
package faultsim

import (
	"fmt"
	"net/netip"
	"sync"
	"time"

	"vpnscope/internal/capture"
	"vpnscope/internal/netsim"
	"vpnscope/internal/simrand"
)

// Profile parameterizes a fault plan. The zero value injects nothing.
type Profile struct {
	Name string

	// PacketLoss is the per-exchange drop probability while loss is
	// active. LossBurstEvery/LossBurstLen confine loss to periodic
	// bursts; with LossBurstEvery zero, loss applies continuously.
	PacketLoss     float64
	LossBurstEvery time.Duration
	LossBurstLen   time.Duration

	// FlapEvery/FlapLen schedule link flaps: windows during which every
	// exchange drops (the client uplink hiccup that cost the paper
	// partial re-collections). Dropped exchanges burn the socket
	// timeout, so a flap costs a handful of exchanges, not hundreds.
	FlapEvery time.Duration
	FlapLen   time.Duration

	// LatencySpikeRate adds LatencySpike of one-way delay to a fraction
	// of exchanges that still complete.
	LatencySpikeRate float64
	LatencySpike     time.Duration

	// DNSBlackoutEvery/DNSBlackoutLen schedule windows during which
	// configured resolver addresses drop every exchange.
	DNSBlackoutEvery time.Duration
	DNSBlackoutLen   time.Duration

	// TunnelResetEvery/TunnelResetLen schedule windows during which
	// tunnel-encapsulated frames drop — a vantage point restarting
	// mid-suite.
	//
	// Every window kind that drops traffic (flaps, blackouts, tunnel
	// resets) must stay well below the fastest client failure-detection
	// delay (20s in the evaluated set): a window long enough to sustain
	// consecutive tunnel errors for that long genuinely fails fail-open
	// clients open mid-suite, which changes leak observables. The plan
	// additionally clamps consecutive-drop outages (maxOutageSpan) as a
	// backstop for windows of different kinds that happen to adjoin.
	TunnelResetEvery time.Duration
	TunnelResetLen   time.Duration

	// ConnectRefusalRate refuses a fraction of connect-time
	// reachability checks (ICMP to a vantage-point address) — the dead
	// endpoints §5.2 describes.
	ConnectRefusalRate float64
}

// Active reports whether the profile injects any fault at all.
func (p Profile) Active() bool {
	return p.PacketLoss > 0 || p.FlapEvery > 0 || p.LatencySpikeRate > 0 ||
		p.DNSBlackoutEvery > 0 || p.TunnelResetEvery > 0 || p.ConnectRefusalRate > 0
}

// Canonical profiles, in escalating order of hostility. Lossy is the
// chaos-validation reference point: >=5% packet loss, periodic link
// flaps, and >=10% connect refusals, the acceptance bar for verdict
// invariance.
var (
	// None injects nothing; the control profile.
	None = Profile{Name: "none"}
	// Mild models a good day on a residential uplink.
	Mild = Profile{
		Name:               "mild",
		PacketLoss:         0.02,
		LatencySpikeRate:   0.02,
		LatencySpike:       200 * time.Millisecond,
		ConnectRefusalRate: 0.05,
	}
	// Lossy models the paper's measured reality: flaky endpoints,
	// lossy paths, resolvers that vanish for half a minute.
	Lossy = Profile{
		Name:               "lossy",
		PacketLoss:         0.08,
		FlapEvery:          7 * time.Minute,
		FlapLen:            10 * time.Second,
		LatencySpikeRate:   0.03,
		LatencySpike:       350 * time.Millisecond,
		DNSBlackoutEvery:   11 * time.Minute,
		DNSBlackoutLen:     10 * time.Second,
		TunnelResetEvery:   9 * time.Minute,
		TunnelResetLen:     8 * time.Second,
		ConnectRefusalRate: 0.12,
	}
	// Hostile escalates everything; the documented tolerance limit.
	Hostile = Profile{
		Name:               "hostile",
		PacketLoss:         0.15,
		FlapEvery:          4 * time.Minute,
		FlapLen:            12 * time.Second,
		LatencySpikeRate:   0.06,
		LatencySpike:       800 * time.Millisecond,
		DNSBlackoutEvery:   6 * time.Minute,
		DNSBlackoutLen:     12 * time.Second,
		TunnelResetEvery:   5 * time.Minute,
		TunnelResetLen:     10 * time.Second,
		ConnectRefusalRate: 0.25,
	}
)

// ByName resolves a profile by its canonical name.
func ByName(name string) (Profile, error) {
	for _, p := range []Profile{None, Mild, Lossy, Hostile} {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("faultsim: unknown profile %q (want none, mild, lossy, or hostile)", name)
}

// Stats counts injected faults by kind.
type Stats struct {
	Dropped      int // packet-loss drops
	Flapped      int // drops during link flaps
	Refused      int // connect-time refusals
	Delayed      int // latency spikes
	Blackouts    int // resolver-blackout drops
	TunnelResets int // tunnel-frame drops
}

// Total is the number of exchanges a fault touched.
func (s Stats) Total() int {
	return s.Dropped + s.Flapped + s.Refused + s.Delayed + s.Blackouts + s.TunnelResets
}

// faultKind names one injection kind; kindNone means no fault fired.
type faultKind int

const (
	kindNone faultKind = iota
	kindDropped
	kindFlapped
	kindRefused
	kindDelayed
	kindBlackout
	kindTunnelReset
)

// counter returns the Stats field for kind k (nil for kindNone).
func (s *Stats) counter(k faultKind) *int {
	switch k {
	case kindDropped:
		return &s.Dropped
	case kindFlapped:
		return &s.Flapped
	case kindRefused:
		return &s.Refused
	case kindDelayed:
		return &s.Delayed
	case kindBlackout:
		return &s.Blackouts
	case kindTunnelReset:
		return &s.TunnelResets
	}
	return nil
}

// Sub returns the counter-wise difference s − o. The parallel campaign
// executor snapshots a worker plan's Stats around each vantage-point
// slot and absorbs only the per-slot delta into the parent plan, so
// speculative slots that are later discarded (quarantine overtook them)
// never inflate the campaign totals.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Dropped:      s.Dropped - o.Dropped,
		Flapped:      s.Flapped - o.Flapped,
		Refused:      s.Refused - o.Refused,
		Delayed:      s.Delayed - o.Delayed,
		Blackouts:    s.Blackouts - o.Blackouts,
		TunnelResets: s.TunnelResets - o.TunnelResets,
	}
}

// Plan is a seeded fault schedule ready to install on a network. Safe
// for concurrent use.
type Plan struct {
	profile Profile
	seed    uint64

	mu        sync.Mutex
	rng       *simrand.Source
	vps       map[netip.Addr]bool
	resolvers map[netip.Addr]bool
	stats     Stats
	lastPass  time.Duration

	flapOff, lossOff, dnsOff, tunnelOff time.Duration
}

// New builds a plan for profile, deriving every schedule from seed.
func New(profile Profile, seed uint64) *Plan {
	p := &Plan{
		profile:   profile,
		seed:      seed,
		rng:       simrand.New(seed).Fork("faultsim"),
		vps:       make(map[netip.Addr]bool),
		resolvers: make(map[netip.Addr]bool),
	}
	p.flapOff = phaseOffset(seed, "flap", profile.FlapEvery)
	p.lossOff = phaseOffset(seed, "loss", profile.LossBurstEvery)
	p.dnsOff = phaseOffset(seed, "dns", profile.DNSBlackoutEvery)
	p.tunnelOff = phaseOffset(seed, "tunnel", profile.TunnelResetEvery)
	return p
}

// phaseOffset staggers each fault kind's windows so they do not fire in
// lockstep, while staying a pure function of the seed.
func phaseOffset(seed uint64, kind string, every time.Duration) time.Duration {
	if every <= 0 {
		return 0
	}
	return time.Duration(simrand.New(seed).Fork("faultsim-offset:"+kind).Uint64() % uint64(every))
}

// Profile returns the plan's profile.
func (p *Plan) Profile() Profile { return p.profile }

// SetVPAddrs registers the vantage-point addresses whose connect-time
// reachability checks are subject to refusal.
func (p *Plan) SetVPAddrs(addrs []netip.Addr) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, a := range addrs {
		p.vps[a] = true
	}
}

// SetResolverAddrs registers the resolver addresses subject to DNS
// blackouts.
func (p *Plan) SetResolverAddrs(addrs []netip.Addr) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, a := range addrs {
		p.resolvers[a] = true
	}
}

// Reset re-derives the plan's stochastic stream for a phase label — the
// runner calls it at every vantage-point boundary so each vantage
// point's fault experience is independent of campaign history.
func (p *Plan) Reset(label string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rng = simrand.New(p.seed).Fork("faultsim").Fork(label)
	// The outage clamp's reference point must not depend on what ran
	// before this boundary, or a resumed campaign would clamp
	// differently than an uninterrupted one.
	p.lastPass = 0
}

// Stats returns a snapshot of the injected-fault counters.
func (p *Plan) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Absorb folds another plan's injected-fault counters into this one.
// The parallel campaign executor gives every shard its own Plan (same
// profile, same seed) and absorbs the shard counters when the shard
// retires; because every stochastic draw happens inside some vantage
// point's boundary-reset stream, the absorbed totals equal what a
// single sequential plan would have counted.
func (p *Plan) Absorb(s Stats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Dropped += s.Dropped
	p.stats.Flapped += s.Flapped
	p.stats.Refused += s.Refused
	p.stats.Delayed += s.Delayed
	p.stats.Blackouts += s.Blackouts
	p.stats.TunnelResets += s.TunnelResets
}

// Hook returns the netsim fault hook backed by this plan.
func (p *Plan) Hook() netsim.FaultHook {
	return func(now time.Duration, from *netsim.Host, dst netip.Addr, proto capture.IPProtocol) netsim.FaultAction {
		return p.decide(now, dst, proto)
	}
}

func inWindow(now, every, length, offset time.Duration) bool {
	if every <= 0 || length <= 0 {
		return false
	}
	return (now+offset)%every < length
}

// maxOutageSpan caps how long the plan sustains consecutive drops. VPN
// clients fail open after at least 20s of uninterrupted tunnel errors;
// an outage approaching that would make fail-open providers genuinely
// leak mid-suite, turning an injected fault into a changed verdict.
// Window lengths in the canonical profiles sit below this on their own;
// the clamp is the backstop for windows of different kinds that adjoin.
const maxOutageSpan = 12 * time.Second

func (p *Plan) decide(now time.Duration, dst netip.Addr, proto capture.IPProtocol) netsim.FaultAction {
	p.mu.Lock()
	defer p.mu.Unlock()
	act, kind := p.schedule(now, dst, proto)
	if act.Drop && now-p.lastPass >= maxOutageSpan {
		act, kind = netsim.FaultAction{}, kindNone
	}
	if kind != kindNone {
		*p.stats.counter(kind)++
	}
	if !act.Drop {
		p.lastPass = now
	}
	return act
}

// schedule evaluates the raw fault schedule at now, before the outage
// clamp. It returns the action and the fault kind to record if the
// action survives the clamp. Stochastic draws are consumed here in a
// fixed order so the stream stays reproducible regardless of clamping.
func (p *Plan) schedule(now time.Duration, dst netip.Addr, proto capture.IPProtocol) (netsim.FaultAction, faultKind) {
	prof := &p.profile

	// Link flap: the whole uplink is down; everything drops.
	if inWindow(now, prof.FlapEvery, prof.FlapLen, p.flapOff) {
		return netsim.FaultAction{Drop: true}, kindFlapped
	}
	// Tunnel reset: the vantage point stops terminating tunnel frames.
	if proto == capture.ProtoTunnel && inWindow(now, prof.TunnelResetEvery, prof.TunnelResetLen, p.tunnelOff) {
		return netsim.FaultAction{Drop: true}, kindTunnelReset
	}
	// Resolver blackout.
	if p.resolvers[dst] && inWindow(now, prof.DNSBlackoutEvery, prof.DNSBlackoutLen, p.dnsOff) {
		return netsim.FaultAction{Drop: true}, kindBlackout
	}
	// Connect-time refusal: ICMP reachability checks against a vantage
	// point (the only ICMP a client sends straight at a VP address).
	if proto == capture.ProtoICMP && p.vps[dst] && p.rng.Bool(prof.ConnectRefusalRate) {
		return netsim.FaultAction{Refuse: true}, kindRefused
	}
	// Packet loss, continuous or burst-scheduled.
	lossActive := prof.PacketLoss > 0 &&
		(prof.LossBurstEvery <= 0 || inWindow(now, prof.LossBurstEvery, prof.LossBurstLen, p.lossOff))
	if lossActive && p.rng.Bool(prof.PacketLoss) {
		return netsim.FaultAction{Drop: true}, kindDropped
	}
	// Latency spike.
	if prof.LatencySpike > 0 && p.rng.Bool(prof.LatencySpikeRate) {
		return netsim.FaultAction{Delay: prof.LatencySpike}, kindDelayed
	}
	return netsim.FaultAction{}, kindNone
}
