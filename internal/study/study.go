// Package study assembles the complete simulated world — Internet, web,
// DNS, geolocation databases, landmarks, and the 62 evaluated VPN
// providers — and drives the measurement suite across it, reproducing
// the paper's data-collection campaign (1046 vantage points, §5.2).
package study

import (
	"fmt"
	"net/netip"
	"sort"

	"vpnscope/internal/dnssim"
	"vpnscope/internal/ecosystem"
	"vpnscope/internal/faultsim"
	"vpnscope/internal/geo"
	"vpnscope/internal/geodb"
	"vpnscope/internal/netsim"
	"vpnscope/internal/tlssim"
	"vpnscope/internal/vpn"
	"vpnscope/internal/vpntest"
	"vpnscope/internal/websim"
)

// Options configures a study build.
type Options struct {
	// Seed drives every stochastic element.
	Seed uint64
	// ExtraTLSHosts is the count of TLS-only probe hosts beyond the
	// DOM corpus (the paper used "more than 150"). Default 150.
	ExtraTLSHosts int
	// VPsPerProvider is the baseline vantage-point count per ordinary
	// provider. Default 5 (the paper's manual-evaluation target).
	VPsPerProvider int
	// MaxFullSuiteVPs caps how many vantage points per provider get the
	// full ~45-minute suite; the rest get the ping-only sweep (how the
	// paper handled HideMyAss's >150 endpoints). Default 8, covering
	// every planted shared-infrastructure and censored-country vantage
	// point of the busiest providers.
	MaxFullSuiteVPs int
	// Providers overrides the evaluated set (default: the paper's 62).
	Providers []vpn.ProviderSpec
	// LandmarkCount is the number of RIPE-Atlas-style anchors. Default
	// 50 (§5.3.2).
	LandmarkCount int
	// CollectCaptures snapshots packet traces into every report,
	// enabling pcap export (§5.3.4). Off by default: traces are large.
	CollectCaptures bool
}

func (o *Options) fill() {
	if o.ExtraTLSHosts == 0 {
		o.ExtraTLSHosts = 150
	}
	if o.VPsPerProvider == 0 {
		o.VPsPerProvider = 5
	}
	if o.MaxFullSuiteVPs == 0 {
		o.MaxFullSuiteVPs = 8
	}
	if o.LandmarkCount == 0 {
		o.LandmarkCount = 50
	}
	if o.Providers == nil {
		o.Providers = ecosystem.TestedSpecs(o.Seed, o.VPsPerProvider)
	}
}

// World is the fully assembled simulation.
type World struct {
	Opts      Options
	Net       *netsim.Network
	Dir       *dnssim.Directory
	Web       *websim.Web
	CA        *tlssim.CA
	Pool      *tlssim.Pool
	Authority *dnssim.Authority
	Databases []*geodb.Database
	Providers []*vpn.Provider
	Config    *vpntest.Config
	Baseline  *vpntest.Baseline

	// ispResolver is the client LAN resolver (the DNS-leak sink).
	ispResolver netip.Addr
	blocks      []netsim.Block
	vpByAddr    map[netip.Addr]*vpn.VantagePoint
	clientSeq   int
	faults      *faultsim.Plan
	// hostMark/authMark are the pre-campaign snapshot marks captured by
	// markCampaign; beginSlot rewinds the host registry and authority
	// log back to them at every slot boundary.
	hostMark int
	authMark int
	// worker is the executor worker measuring on this world, as tagged
	// on its flight-recorder events. The sequential runner uses worker
	// 0; the parallel executor stamps each replica.
	worker int
	// env is the context every vantage point serves from; it owns the
	// world's DNS name interner (env.Names), which every resolver here
	// decodes through, and their one serving scratch (env.DNSScratch).
	// The interner and certCache are handed to every
	// slot's web client: slots resolve the same static hostnames and
	// fetch the same certificates over and over, and a per-slot or
	// per-vantage-point cache would start cold every time, and the
	// latter would outlive its slot. Single-goroutine, like everything
	// else hanging off a world.
	env       vpn.ServerEnv
	certCache tlssim.CertCache
}

// Well-known public resolver addresses.
var (
	googleDNS = netip.MustParseAddr("8.8.8.8")
	quad9DNS  = netip.MustParseAddr("9.9.9.9")
	ispDNS    = netip.MustParseAddr("203.0.113.53")
)

// Build assembles the world. Repeat builds with identical options hit
// the world-template cache (see cache.go): the expensive baseline
// collection and probe resolutions are memoized per options
// fingerprint and handed out as deep clones, so benchmark re-builds,
// parallel shards, and repeated CLI runs skip the redundant work while
// producing behaviorally identical worlds.
func Build(opts Options) (*World, error) {
	opts.fill()
	var tmpl *worldTemplate
	key, keyOK := templateKey(opts)
	if keyOK {
		tmpl = lookupTemplate(key)
	}
	w := &World{Opts: opts, vpByAddr: make(map[netip.Addr]*vpn.VantagePoint)}
	w.Net = netsim.New(opts.Seed)
	w.Dir = dnssim.NewDirectory()
	w.CA = tlssim.NewCA("SimTrust Root CA", opts.Seed)
	w.Pool = tlssim.NewPool(w.CA)

	var err error
	w.Web, err = websim.BuildWeb(w.Net, w.Dir, w.CA, opts.Seed, opts.ExtraTLSHosts)
	if err != nil {
		return nil, fmt.Errorf("study: building web: %w", err)
	}

	w.Authority = dnssim.NewAuthority("probe.vpnscope.test", netip.MustParseAddr("192.0.2.53"))
	w.Dir.AddAuthority(w.Authority)

	if err := w.buildResolvers(); err != nil {
		return nil, err
	}
	landmarks, err := w.buildLandmarks()
	if err != nil {
		return nil, err
	}
	if err := w.buildProviders(); err != nil {
		return nil, err
	}
	w.buildGeoDatabases()
	w.collectBlocks()
	w.configureHostileSites()
	if err := w.buildConfig(landmarks, tmpl); err != nil {
		return nil, err
	}
	if err := w.collectBaseline(tmpl); err != nil {
		return nil, err
	}
	if keyOK && tmpl == nil {
		storeTemplate(key, &worldTemplate{
			baseline:   cloneBaseline(w.Baseline),
			ipv6Probes: cloneProbes(w.Config.IPv6ProbeHosts),
		})
	}
	w.normalizeWorld()
	return w, nil
}

func (w *World) buildResolvers() error {
	specs := []struct {
		name string
		city string
		addr netip.Addr
	}{
		{"dns:google", "New York", googleDNS},
		{"dns:quad9", "Zurich", quad9DNS},
		{"dns:isp", "Chicago", ispDNS},
	}
	for _, s := range specs {
		city, ok := geo.CityByName(s.city)
		if !ok {
			return fmt.Errorf("study: unknown city %q", s.city)
		}
		host := netsim.NewHost(s.name, city, s.addr)
		host.Block = netsim.Block{
			Prefix: netip.PrefixFrom(s.addr, 24), ASN: 15169, Org: s.name,
		}
		if err := w.Net.AddHost(host); err != nil {
			return err
		}
		r := &dnssim.Resolver{Name: s.name, Addr: s.addr, Dir: w.Dir, Names: &w.env.Names, Scratch: &w.env.DNSScratch}
		host.HandleUDP(53, r.Handler())
	}
	w.ispResolver = ispDNS
	return nil
}

// buildLandmarks creates the anchor fleet plus DNS-root-style targets.
func (w *World) buildLandmarks() ([]vpntest.Landmark, error) {
	blk := netsim.Block{
		Prefix: netip.MustParsePrefix("164.90.0.0/20"),
		ASN:    3856, Org: "Anchor Fleet Sim",
	}
	alloc := netsim.NewAllocator(blk)
	cities := geo.Cities()
	sort.Slice(cities, func(i, j int) bool { return cities[i].Name < cities[j].Name })

	var out []vpntest.Landmark
	n := w.Opts.LandmarkCount
	if n > len(cities) {
		n = len(cities)
	}
	// Spread anchors across the city list evenly.
	for i := 0; i < n; i++ {
		city := cities[i*len(cities)/n]
		addr, err := alloc.Next()
		if err != nil {
			return nil, err
		}
		host := netsim.NewHost("anchor:"+city.Name, city, addr)
		host.Block = blk
		if err := w.Net.AddHost(host); err != nil {
			return nil, err
		}
		out = append(out, vpntest.Landmark{Name: "anchor-" + city.Name, City: city, Addr: addr})
	}
	// DNS-root-style instances (D, E, F, J, L) in major hub cities.
	roots := []struct{ label, cityName string }{
		{"root-D", "Washington"}, {"root-E", "San Jose"}, {"root-F", "Frankfurt"},
		{"root-J", "Tokyo"}, {"root-L", "London"},
	}
	for _, r := range roots {
		city, ok := geo.CityByName(r.cityName)
		if !ok {
			return nil, fmt.Errorf("study: unknown city %q", r.cityName)
		}
		addr, err := alloc.Next()
		if err != nil {
			return nil, err
		}
		host := netsim.NewHost("dnsroot:"+r.label, city, addr)
		host.Block = blk
		if err := w.Net.AddHost(host); err != nil {
			return nil, err
		}
		out = append(out, vpntest.Landmark{Name: r.label, City: city, Addr: addr})
	}
	return out, nil
}

func (w *World) buildProviders() error {
	w.env.Dir, w.env.Web = w.Dir, w.Web
	builder := vpn.NewBuilder(w.Net, &w.env, w.Opts.Seed)
	for _, spec := range w.Opts.Providers {
		p, err := builder.Build(spec)
		if err != nil {
			return fmt.Errorf("study: provider %s: %w", spec.Name, err)
		}
		w.Providers = append(w.Providers, p)
		for _, vp := range p.VPs {
			w.vpByAddr[vp.Addr()] = vp
		}
	}
	return nil
}

// buildGeoDatabases wires the three databases over the world's ground
// truth.
func (w *World) buildGeoDatabases() {
	truth := geodb.TruthFunc(func(addr netip.Addr) (geo.Country, geo.Country, bool, bool) {
		if vp, ok := w.vpByAddr[addr]; ok {
			return vp.ActualCity.Country, vp.ClaimedCountry, vp.Spec.SeedsGeoDB, true
		}
		if h := w.Net.HostByAddr(addr); h != nil {
			return h.Country, h.Country, false, true
		}
		return "", "", false, false
	})
	w.Databases = geodb.Standard(truth, w.Opts.Seed)
}

// collectBlocks builds the WHOIS registry from every host's block.
func (w *World) collectBlocks() {
	seen := map[string]bool{}
	for _, h := range w.Net.Hosts() {
		if h.Block.Prefix.IsValid() && !seen[h.Block.Prefix.String()] {
			seen[h.Block.Prefix.String()] = true
			w.blocks = append(w.blocks, h.Block)
		}
	}
	// Most-specific-first lookup order.
	sort.Slice(w.blocks, func(i, j int) bool {
		return w.blocks[i].Prefix.Bits() > w.blocks[j].Prefix.Bits()
	})
}

// Whois resolves an address to its registered block.
func (w *World) Whois(addr netip.Addr) (netsim.Block, bool) {
	for _, b := range w.blocks {
		if b.Prefix.Contains(addr) {
			return b, true
		}
	}
	return netsim.Block{}, false
}

// configureHostileSites teaches the VPN-hostile sites the (publicly
// blacklistable, per §6.3) vantage-point CIDRs.
func (w *World) configureHostileSites() {
	var prefixes []netip.Prefix
	seen := map[string]bool{}
	for _, p := range w.Providers {
		for _, vp := range p.VPs {
			blk := vp.Host.Block
			if blk.Prefix.IsValid() && !seen[blk.Prefix.String()] {
				seen[blk.Prefix.String()] = true
				prefixes = append(prefixes, blk.Prefix)
			}
		}
	}
	w.Web.SetVPNRanges(prefixes)
}

func (w *World) buildConfig(landmarks []vpntest.Landmark, tmpl *worldTemplate) error {
	cfg := &vpntest.Config{
		EchoURL:              "http://" + websim.EchoHostName + "/",
		IPEchoURL:            "http://" + websim.IPEchoHostName + "/",
		WebRTCProbeURL:       "http://" + websim.WebRTCProbeHostName + "/",
		PublicResolvers:      []netip.Addr{googleDNS, quad9DNS},
		Landmarks:            landmarks,
		ProbeDomain:          w.Authority.Suffix,
		OriginsOf:            w.Authority.OriginsOf,
		TrustPool:            w.Pool,
		Whois:                w.Whois,
		FailureWindowSeconds: 180,
		IPv6ProbeHosts:       make(map[string]netip.Addr),
	}
	for _, s := range w.Web.DOMSites {
		cfg.DOMSiteURLs = append(cfg.DOMSiteURLs, "http://"+s.HostName+"/")
	}
	for _, s := range w.Web.TLSSites {
		cfg.TLSHosts = append(cfg.TLSHosts, s.HostName)
	}
	// DNS check hosts: a popular slice of the corpus.
	for _, name := range []string{
		"daily-news.example", "mega-mart.example", "micro-blog.example",
		"weather-now.example", "map-quest.example", "finance-daily.example",
		"photo-wall.example", "dictionary.example",
	} {
		if w.Web.SiteByName(name) == nil {
			return fmt.Errorf("study: DNS check host %q missing from web", name)
		}
		cfg.DNSCheckHosts = append(cfg.DNSCheckHosts, name)
	}
	// Failure probe: a utility site.
	probeSite := w.Web.SiteByName("unit-convert.example")
	if probeSite == nil {
		return fmt.Errorf("study: failure probe site missing")
	}
	cfg.TunnelFailureProbe = probeSite.Host.Addr
	cfg.TunnelFailureURL = "http://" + probeSite.HostName + "/"

	// Google-API-like geolocation.
	for _, db := range w.Databases {
		if db.Profile.Name == geodb.GoogleLike.Name {
			cfg.GeoAPI = db.Locate
		}
	}

	// IPv6 probe targets, resolved honestly via AAAA from a clean
	// stack. The stack is provisioned even on a template-cache hit so
	// the world's host registry and client sequence are identical to a
	// cache-miss build.
	cleanStack, err := w.NewClientStack()
	if err != nil {
		return err
	}
	defer cleanStack.Retire()
	w.scratchCaptures(cleanStack)
	if tmpl != nil {
		cfg.IPv6ProbeHosts = cloneProbes(tmpl.ipv6Probes)
		w.Config = cfg
		return nil
	}
	client := &websim.Client{Stack: cleanStack}
	for _, name := range []string{
		"daily-news.example", "buddy-net.example", "tech-review.example",
		"recipe-box.example", "sports-wire.example",
	} {
		addr, err := client.ResolveVia(googleDNS, name, true)
		if err != nil {
			return fmt.Errorf("study: resolving AAAA for %s: %w", name, err)
		}
		cfg.IPv6ProbeHosts[name] = addr
	}
	w.Config = cfg
	return nil
}

// collectBaseline gathers ground truth from the university vantage, or
// restores it from the world-template cache when an identical build
// already collected it.
func (w *World) collectBaseline(tmpl *worldTemplate) error {
	city, ok := geo.CityByName("San Jose")
	if !ok {
		return fmt.Errorf("study: unknown baseline city")
	}
	host := netsim.NewHost("university", city, netip.MustParseAddr("192.12.207.10"))
	host.Addr6 = netip.MustParseAddr("2001:db8:7::10")
	host.Block = netsim.Block{Prefix: netip.MustParsePrefix("192.12.207.0/24"), ASN: 7377, Org: "University Sim"}
	if err := w.Net.AddHost(host); err != nil {
		return err
	}
	if tmpl != nil {
		w.Baseline = cloneBaseline(tmpl.baseline)
		return nil
	}
	stack := netsim.NewStack(w.Net, host)
	defer stack.Retire()
	w.scratchCaptures(stack)
	stack.SetResolvers(googleDNS)
	b, err := vpntest.CollectBaseline(w.Config, &websim.Client{Stack: stack})
	if err != nil {
		return fmt.Errorf("study: collecting baseline: %w", err)
	}
	w.Baseline = b
	return nil
}

// scratchCaptures scopes a build-time stack's captures to the world's
// scratch arena: nothing reads a build stack's captures, so it records
// only the physical outbound trace, and the first slot's arena reset
// reclaims the copies. The caller retires the stack when the build step
// ends, handing its record arrays to the scratch bundle for the
// campaign's slot stacks.
func (w *World) scratchCaptures(s *netsim.Stack) {
	s.ScopeCapturesToSlot(w.Net.ScratchArena().Bytes)
}

// EnableFaults installs a seeded fault plan over the assembled world:
// vantage-point addresses become subject to connect-time refusals, the
// public and ISP resolvers to blackout windows, and every exchange to
// the profile's loss/flap/spike/reset schedule. Call after Build so the
// build itself (and baseline collection) stays fault-free, mirroring
// the paper's clean university baseline.
func (w *World) EnableFaults(profile faultsim.Profile) *faultsim.Plan {
	plan := faultsim.New(profile, w.Opts.Seed)
	var vpAddrs []netip.Addr
	for _, p := range w.Providers {
		for _, vp := range p.VPs {
			vpAddrs = append(vpAddrs, vp.Addr())
		}
	}
	plan.SetVPAddrs(vpAddrs)
	plan.SetResolverAddrs([]netip.Addr{googleDNS, quad9DNS, ispDNS})
	w.Net.SetFaultHook(plan)
	w.faults = plan
	return plan
}

// Faults returns the installed fault plan (nil when none).
func (w *World) Faults() *faultsim.Plan { return w.faults }

// clientSeqBase is the first client-machine sequence number available
// to the campaign runner: Build consumes sequence 1 for the clean
// config stack, so vantage-point slot s provisions client machine
// clientSeqBase+s. Deriving the sequence from the slot (rather than a
// running counter) keeps client addresses — which are visible in
// results, e.g. WebRTC-revealed local addresses — independent of how
// many stacks earlier vantage points happened to create.
const clientSeqBase = 2

// NewClientStack provisions a fresh client machine — the equivalent of
// the paper's freshly restored macOS VM per provider.
func (w *World) NewClientStack() (*netsim.Stack, error) {
	w.clientSeq++
	return w.newClientStackAt(w.clientSeq)
}

// newClientStackAt provisions the client machine with a fixed sequence
// number, reusing its host when one already exists at that address.
func (w *World) newClientStackAt(seq int) (*netsim.Stack, error) {
	city, ok := geo.CityByName("Chicago")
	if !ok {
		return nil, fmt.Errorf("study: unknown client city")
	}
	addr := netip.AddrFrom4([4]byte{203, 0, 113, byte(10 + seq%200)})
	host := w.Net.HostByAddr(addr)
	if host == nil {
		host = netsim.NewHost(fmt.Sprintf("client-%d", seq), city, addr)
		host.Addr6 = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0, 0xcc, 0, 0,
			0, 0, 0, 0, 0, 0, 0, byte(10 + seq%200)})
		host.Block = netsim.Block{Prefix: netip.MustParsePrefix("203.0.113.0/24"), ASN: 7018, Org: "Residential ISP Sim"}
		if err := w.Net.AddHost(host); err != nil {
			return nil, err
		}
	}
	stack := netsim.NewStack(w.Net, host)
	stack.SetResolvers(w.ispResolver)
	// The ISP resolver is link-scoped: reached via the physical
	// interface no matter what the routing table says — the mechanism
	// behind real-world DNS leaks.
	stack.AddRoute(netsim.Route{Prefix: netip.PrefixFrom(w.ispResolver, 32), Iface: netsim.PhysicalName})
	// When captures stay inside the slot (nothing snapshots them into
	// reports), the stack records only the physical outbound trace the
	// slot's tests read, with payload copies from the slot arena.
	if a := w.Net.SlotArena(); a != nil && !w.Opts.CollectCaptures {
		stack.ScopeCapturesToSlot(a.Bytes)
	}
	return stack, nil
}
