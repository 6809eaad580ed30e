package vpntest

import (
	"bytes"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"time"

	"vpnscope/internal/capture"
	"vpnscope/internal/dnssim"
	"vpnscope/internal/geo"
	"vpnscope/internal/netsim"
	"vpnscope/internal/psl"
	"vpnscope/internal/websim"
)

// ---------------------------------------------------------------------
// §5.3.1 — DNS manipulation
// ---------------------------------------------------------------------

// DNSDiff records one disagreement between the connection's resolver
// and the trusted reference answer.
type DNSDiff struct {
	Host       string
	VPNAnswer  netip.Addr
	RefAnswer  netip.Addr
	WhoisOrg   string
	WhoisASN   int
	Suspicious bool
}

// DNSManipulationResult is the DNS-manipulation test output.
type DNSManipulationResult struct {
	Queried int
	Diffs   []DNSDiff
}

// Manipulated reports whether any suspicious difference was found.
func (r *DNSManipulationResult) Manipulated() bool {
	for _, d := range r.Diffs {
		if d.Suspicious {
			return true
		}
	}
	return false
}

// RunDNSManipulation resolves the check hosts via the connection's
// configured resolver and via a trusted public resolver, then inspects
// WHOIS for any disagreement (§5.3.1 "DNS Manipulation").
func RunDNSManipulation(env *Env) (*DNSManipulationResult, error) {
	res := &DNSManipulationResult{}
	if len(env.Cfg.PublicResolvers) == 0 {
		return nil, errors.New("vpntest: no public resolver configured")
	}
	ref := env.Cfg.PublicResolvers[0]
	for _, host := range env.Cfg.DNSCheckHosts {
		res.Queried++
		vpnAns, err := env.Client.Resolve(host, false)
		if err != nil {
			continue // unreliable path; skip, as the paper's runs did
		}
		refAns, err := env.Client.ResolveVia(ref, host, false)
		if err != nil {
			refAns = env.Baseline.DNSAnswers[host]
		}
		if vpnAns == refAns {
			continue
		}
		diff := DNSDiff{Host: host, VPNAnswer: vpnAns, RefAnswer: refAns}
		if env.Cfg.Whois != nil {
			if blk, ok := env.Cfg.Whois(vpnAns); ok {
				diff.WhoisOrg = blk.Org
				diff.WhoisASN = blk.ASN
			}
		}
		// The paper's heuristic: an answer pointing outside the site's
		// hosting organization is suspicious; a human then confirms.
		refOrg := ""
		if env.Cfg.Whois != nil {
			if blk, ok := env.Cfg.Whois(refAns); ok {
				refOrg = blk.Org
			}
		}
		diff.Suspicious = diff.WhoisOrg != refOrg
		res.Diffs = append(res.Diffs, diff)
	}
	return res, nil
}

// ---------------------------------------------------------------------
// §5.3.1 — DOM and request collection
// ---------------------------------------------------------------------

// Redirection is a detected cross-domain HTTP redirect (§6.1.1).
type Redirection struct {
	FromURL     string
	Destination string // final unrelated URL
	Status      int
}

// Injection is detected third-party content in a page (§6.1.3).
type Injection struct {
	PageURL       string
	InjectedHosts []string
	// Snippet is a short excerpt of injected markup for the human
	// analyst.
	Snippet string
}

// DOMResult is the DOM/request-collection output.
type DOMResult struct {
	PagesLoaded  int
	PagesFailed  int
	Redirections []Redirection
	Injections   []Injection
}

// RunDOMCollection loads every DOM-test page, recording redirect chains
// to unrelated domains and content not on the baseline whitelist.
func RunDOMCollection(env *Env) (*DOMResult, error) {
	res := &DOMResult{}
	for _, pageURL := range env.Cfg.DOMSiteURLs {
		final, hosts, dom, err := env.Client.LoadPage(pageURL)
		if err != nil {
			res.PagesFailed++
			continue
		}
		res.PagesLoaded++

		origHost := websim.URLHost(pageURL)
		finalHost := websim.URLHost(final.URL)
		if finalHost != "" && !psl.Related(origHost, finalHost, nil) {
			res.Redirections = append(res.Redirections, Redirection{
				FromURL:     pageURL,
				Destination: final.URL,
				Status:      final.Response.Status,
			})
			continue // a censored page's content is the censor's, not the site's
		}

		// Injection: any loaded host missing from the baseline
		// whitelist for this page.
		whitelist := env.Baseline.ResourceHosts[pageURL]
		var injected []string
		for _, h := range hosts {
			if !whitelist[h] {
				injected = append(injected, h)
			}
		}
		if len(injected) > 0 || dom != env.Baseline.DOM[pageURL] {
			inj := Injection{PageURL: pageURL, InjectedHosts: injected}
			inj.Snippet = diffSnippet(env.Baseline.DOM[pageURL], dom)
			// Only report when the DOM actually changed; flaky
			// subresource fetches alone are not manipulation.
			if dom != env.Baseline.DOM[pageURL] {
				res.Injections = append(res.Injections, inj)
			}
		}
	}
	return res, nil
}

// diffSnippet returns a short excerpt of what got added to a document.
func diffSnippet(base, got string) string {
	// Walk to the first difference, then excerpt.
	i := 0
	for i < len(base) && i < len(got) && base[i] == got[i] {
		i++
	}
	if i >= len(got) {
		return ""
	}
	end := i + 120
	if end > len(got) {
		end = len(got)
	}
	return strings.TrimSpace(got[i:end])
}

// ---------------------------------------------------------------------
// §5.3.1 — TLS interception and downgrade detection
// ---------------------------------------------------------------------

// CertAnomaly is one certificate that failed validation or differs from
// the baseline.
type CertAnomaly struct {
	Host        string
	Fingerprint uint64
	Issuer      string
	VerifyError string
	// BaselineMismatch: the cert verifies but is not the one the
	// ground-truth vantage saw (possible targeted MITM).
	BaselineMismatch bool
}

// BlockedLoad is an HTTP page load that came back blocked (403/empty)
// where the baseline succeeded — the §6.1.2 VPN-discrimination signal.
type BlockedLoad struct {
	Host   string
	Status int
}

// TLSResult is the TLS test output.
type TLSResult struct {
	HostsProbed  int
	Intercepted  []CertAnomaly
	Downgraded   []string // hosts answered in cleartext where TLS was expected
	Blocked      []BlockedLoad
	Redirections []Redirection // censorship seen in the HTTP step
	Unreachable  int
}

// RunTLS performs the two-step TLS test: direct negotiation with
// certificate validation against the trust pool and baseline, then an
// HTTP load following redirects (§5.3.1 "TLS Interception and Downgrade
// Detection").
func RunTLS(env *Env) (*TLSResult, error) {
	env.Cfg.derived()
	res := &TLSResult{}
	for i, host := range env.Cfg.TLSHosts {
		res.HostsProbed++
		urls := &env.Cfg.tlsURLs[i]

		chain, err := env.Client.Get(urls.https)
		if err != nil {
			res.Unreachable++
			continue
		}
		final := chain[len(chain)-1]
		switch {
		case final.Downgraded:
			res.Downgraded = append(res.Downgraded, host)
		case final.TLS:
			anomaly := CertAnomaly{
				Host:        host,
				Fingerprint: final.Cert.Fingerprint(),
				Issuer:      final.Cert.Issuer,
			}
			if err := env.Cfg.TrustPool.Verify(final.Cert, host); err != nil {
				anomaly.VerifyError = err.Error()
				res.Intercepted = append(res.Intercepted, anomaly)
			} else if base, ok := env.Baseline.CertFingerprints[host]; ok && base != anomaly.Fingerprint {
				anomaly.BaselineMismatch = true
				res.Intercepted = append(res.Intercepted, anomaly)
			}
		}

		httpChain, err := env.Client.Get(urls.http)
		if err != nil {
			continue
		}
		httpFinal := httpChain[len(httpChain)-1]
		finalHost := websim.URLHost(httpFinal.URL)
		if finalHost != "" && !psl.Related(host, finalHost, nil) {
			res.Redirections = append(res.Redirections, Redirection{
				FromURL:     urls.http,
				Destination: httpFinal.URL,
				Status:      httpFinal.Response.Status,
			})
			continue
		}
		if base := env.Baseline.FinalStatus[host]; base >= 200 && base < 400 {
			if s := httpFinal.Response.Status; s == 403 ||
				(s == 200 && len(httpFinal.Response.Body) == 0) {
				res.Blocked = append(res.Blocked, BlockedLoad{Host: host, Status: s})
			}
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------
// §6.2.1 — header-based transparent proxy detection
// ---------------------------------------------------------------------

// ProxyResult is the header-echo diff output.
type ProxyResult struct {
	// Modified: the server saw different bytes than we sent.
	Modified bool
	// HeadersAdded / HeadersChanged classify the modification.
	HeadersAdded   []string
	HeadersChanged []string
	// Regenerated: no headers added, but existing ones rewritten —
	// "consistent with parsing and subsequent regeneration".
	Regenerated bool
}

// RunProxyDetection sends a canary request to the echo service and
// diffs what the server saw against what we sent.
func RunProxyDetection(env *Env) (*ProxyResult, error) {
	host := websim.URLHost(env.Cfg.EchoURL)
	addr, err := env.Client.Resolve(host, false)
	if err != nil {
		return nil, fmt.Errorf("vpntest: resolving echo host: %w", err)
	}
	req := websim.NewRequest("GET", host, "/")
	sent := req.Encode()
	raw, err := env.Stack.ExchangeTCP(addr, 80, sent)
	if err != nil {
		return nil, fmt.Errorf("vpntest: echo exchange: %w", err)
	}
	resp, err := websim.ParseResponse(raw)
	if err != nil {
		return nil, fmt.Errorf("vpntest: echo response: %w", err)
	}
	res := &ProxyResult{}
	if bytes.Equal(resp.Body, sent) {
		return res, nil
	}
	res.Modified = true
	seen, err := websim.ParseRequest(resp.Body)
	if err != nil {
		// The server saw something we cannot even parse back — count
		// as modified with no classification.
		return res, nil
	}
	sentNames := map[string]string{}
	for _, h := range req.Headers {
		sentNames[strings.ToLower(h.Name)] = h.Name + ": " + h.Value
	}
	for _, h := range seen.Headers {
		key := strings.ToLower(h.Name)
		orig, ok := sentNames[key]
		switch {
		case !ok && !strings.EqualFold(h.Name, "Content-Length"):
			res.HeadersAdded = append(res.HeadersAdded, h.Name)
		case ok && orig != h.Name+": "+h.Value:
			res.HeadersChanged = append(res.HeadersChanged, h.Name)
		}
	}
	res.Regenerated = len(res.HeadersAdded) == 0
	return res, nil
}

// ---------------------------------------------------------------------
// §5.3.2 — infrastructure inference
// ---------------------------------------------------------------------

// OriginResult is the recursive-DNS-origins test output.
type OriginResult struct {
	TaggedName string
	Origins    []netip.Addr
	// OriginOrgs are the WHOIS orgs of the recursion origins.
	OriginOrgs []string
}

// RunRecursiveOrigin resolves a unique tagged hostname and reads back
// where recursion came from.
func RunRecursiveOrigin(env *Env) (*OriginResult, error) {
	tag := fmt.Sprintf("t%d-%s", env.Stack.Net.Clock.Now().Nanoseconds(), sanitizeLabel(env.VPLabel))
	name := tag + "." + env.Cfg.ProbeDomain
	if _, err := env.Client.Resolve(name, false); err != nil {
		return nil, fmt.Errorf("vpntest: tagged resolution: %w", err)
	}
	res := &OriginResult{TaggedName: name}
	if env.Cfg.OriginsOf != nil {
		res.Origins = env.Cfg.OriginsOf(name)
	}
	for _, o := range res.Origins {
		if env.Cfg.Whois != nil {
			if blk, ok := env.Cfg.Whois(o); ok {
				res.OriginOrgs = append(res.OriginOrgs, blk.Org)
				continue
			}
		}
		res.OriginOrgs = append(res.OriginOrgs, "unknown")
	}
	return res, nil
}

func sanitizeLabel(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	out := strings.Trim(b.String(), "-")
	if len(out) > 40 {
		out = out[:40]
	}
	if out == "" {
		out = "x"
	}
	return out
}

// PingSample is one landmark measurement.
type PingSample struct {
	Landmark string
	Country  geo.Country
	RTTms    float64
}

// PingResult is the ping/traceroute data collection output (the raw
// material of Figure 9).
type PingResult struct {
	Samples []PingSample
	Failed  int
	// SelfRTT is the RTT of pinging the connection's own egress
	// address through the tunnel — an estimate of the constant
	// client-to-vantage-point offset baked into every landmark sample.
	// Negative when unavailable.
	SelfRTT float64
}

// Vector returns the RTTs in landmark order, aligned with the config's
// Landmarks slice; missing samples are NaN-free (-1).
func (r *PingResult) Vector(cfg *Config) []float64 {
	byName := make(map[string]float64, len(r.Samples))
	for _, s := range r.Samples {
		byName[s.Landmark] = s.RTTms
	}
	out := make([]float64, len(cfg.Landmarks))
	for i, lm := range cfg.Landmarks {
		if v, ok := byName[lm.Name]; ok {
			out[i] = v
		} else {
			out[i] = -1
		}
	}
	return out
}

// MinSample returns the landmark with the smallest RTT, which bounds
// the vantage point's physical location.
func (r *PingResult) MinSample() (PingSample, bool) {
	if len(r.Samples) == 0 {
		return PingSample{}, false
	}
	best := r.Samples[0]
	for _, s := range r.Samples[1:] {
		if s.RTTms < best.RTTms {
			best = s
		}
	}
	return best, true
}

// RunPingSweep pings every landmark through the connection, plus the
// connection's own egress address to estimate the client-to-vantage
// offset.
func RunPingSweep(env *Env) (*PingResult, error) {
	res := &PingResult{SelfRTT: -1}
	for _, lm := range env.Cfg.Landmarks {
		rtt, ok := minPing(env, lm.Addr)
		if !ok {
			res.Failed++
			continue
		}
		res.Samples = append(res.Samples, PingSample{
			Landmark: lm.Name,
			Country:  lm.City.Country,
			RTTms:    rtt,
		})
	}
	if egress, err := env.EgressIP(); err == nil {
		if rtt, ok := minPing(env, egress); ok {
			res.SelfRTT = rtt
		}
	}
	return res, nil
}

// minPing takes the minimum of three ping samples — standard practice
// to strip queueing jitter and keep the propagation signal Figure 9
// depends on.
func minPing(env *Env, dst netip.Addr) (float64, bool) {
	best := -1.0
	for i := 0; i < 3; i++ {
		rtt, err := env.Stack.Ping(dst)
		if err != nil {
			continue
		}
		if best < 0 || rtt < best {
			best = rtt
		}
	}
	return best, best >= 0
}

// TraceResult is the traceroute collection output (§5.3.2 "Ping and
// traceroute data").
type TraceResult struct {
	// Paths maps a landmark name to its TTL-ladder hops as seen from
	// inside the connection.
	Paths map[string][]netsim.TracerouteHop
}

// FirstHopBeyondGateway returns, for a landmark, the first responding
// hop after the tunnel-internal gateway — the edge of the vantage
// point's real network.
func (r *TraceResult) FirstHopBeyondGateway(landmark string) (netip.Addr, bool) {
	hops := r.Paths[landmark]
	for i, h := range hops {
		if !h.Addr.IsValid() {
			continue
		}
		if h.Addr.Is4() && h.Addr.As4()[0] == 10 {
			continue // tunnel-internal gateway
		}
		_ = i
		return h.Addr, true
	}
	return netip.Addr{}, false
}

// RunTraceroutes collects TTL-ladder paths to a handful of landmarks
// (the paper traced anycast resolvers and DNS roots). To bound runtime
// it uses the first maxTargets landmarks.
func RunTraceroutes(env *Env, maxTargets int) (*TraceResult, error) {
	if maxTargets <= 0 {
		maxTargets = 3
	}
	res := &TraceResult{Paths: make(map[string][]netsim.TracerouteHop)}
	for i, lm := range env.Cfg.Landmarks {
		if i >= maxTargets {
			break
		}
		hops, err := env.Stack.Traceroute(lm.Addr, 16)
		if err != nil {
			continue
		}
		res.Paths[lm.Name] = hops
	}
	if len(res.Paths) == 0 {
		return res, errors.New("vpntest: no traceroute completed")
	}
	return res, nil
}

// GeoResult is the geolocation-API test output.
type GeoResult struct {
	EgressIP netip.Addr
	// APICountry is what the Google-like geolocation service says.
	APICountry geo.Country
	APIFound   bool
	// WhoisBlock is the egress address's registration data.
	WhoisBlock netsim.Block
	WhoisFound bool
}

// RunGeolocation discovers the egress IP and asks the geolocation API
// and WHOIS about it.
func RunGeolocation(env *Env) (*GeoResult, error) {
	egress, err := env.EgressIP()
	if err != nil {
		return nil, err
	}
	res := &GeoResult{EgressIP: egress}
	if env.Cfg.GeoAPI != nil {
		res.APICountry, res.APIFound = env.Cfg.GeoAPI(egress)
	}
	if env.Cfg.Whois != nil {
		res.WhoisBlock, res.WhoisFound = env.Cfg.Whois(egress)
	}
	return res, nil
}

// ---------------------------------------------------------------------
// §5.3.3 — leakage tests
// ---------------------------------------------------------------------

// LeakResult is the DNS/IPv6 leakage test output.
type LeakResult struct {
	DNSLeak       bool
	DNSLeakCount  int
	IPv6Leak      bool
	IPv6LeakCount int
	IPv6Probes    int
}

// RunLeakTests makes scripted DNS queries and IPv6 connections, then
// scans the physical interface's capture for cleartext that should have
// been inside the tunnel.
func RunLeakTests(env *Env) (*LeakResult, error) {
	phys := env.Stack.Interface(netsim.PhysicalName)
	if phys == nil {
		return nil, errors.New("vpntest: no physical interface")
	}
	mark := phys.Sink.Len()

	// Scripted DNS: several queries to the system resolver and one to
	// each public resolver.
	for _, host := range env.Cfg.DNSCheckHosts {
		_, _ = env.Client.Resolve(host, false)
	}
	for _, r := range env.Cfg.PublicResolvers {
		_, _ = env.Client.ResolveVia(r, env.Cfg.DNSCheckHosts[0], false)
	}

	res := &LeakResult{}
	var v capture.PacketView
	// The scans below read the sink in place: nothing they call
	// captures, so the views stay valid for the whole loop.
	for _, rec := range phys.Sink.View(mark) {
		if rec.Dir != capture.DirOut {
			continue
		}
		// Sink records own their bytes, so the alias-not-copy view is
		// safe; ParseView matches the decoder pass byte for byte.
		if capture.ParseView(rec.Data, &v) == nil &&
			v.Transport == capture.TypeUDP && v.DstPort == 53 {
			res.DNSLeakCount++
		}
	}
	res.DNSLeak = res.DNSLeakCount > 0

	// IPv6 probes: direct connections to known v6 addresses. Probe in
	// sorted host order — map iteration order would otherwise vary the
	// virtual-time trace between identically seeded runs. The host list
	// and per-host request wires are prebuilt on the shared Config.
	mark = phys.Sink.Len()
	env.Cfg.derived()
	for i, host := range env.Cfg.sortedV6Hosts {
		res.IPv6Probes++
		_, _ = env.Stack.ExchangeTCP(env.Cfg.IPv6ProbeHosts[host], 80, env.Cfg.v6ProbeReqs[i])
	}
	for _, rec := range phys.Sink.View(mark) {
		if rec.Dir == capture.DirOut && len(rec.Data) > 0 && rec.Data[0]>>4 == 6 {
			res.IPv6LeakCount++
		}
	}
	res.IPv6Leak = res.IPv6LeakCount > 0
	return res, nil
}

// WebRTCResult is the WebRTC address-leak audit output (the §7
// vulnerability the paper says it systematically checks).
type WebRTCResult struct {
	// Revealed are the candidate addresses the probe page learned.
	Revealed []netip.Addr
	// RealAddressExposed: a non-private address different from the
	// connection's egress leaked — the user's actual network identity.
	RealAddressExposed bool
	// EgressOnly: masking worked; only the tunnel-visible identity was
	// revealed.
	EgressOnly bool
}

// RunWebRTCLeak loads the ICE-gathering probe page with a WebRTC-capable
// "browser": unless masking is enabled on the stack, every local
// interface address is gathered as a host candidate and reported to the
// page, which reflects what it saw.
func RunWebRTCLeak(env *Env) (*WebRTCResult, error) {
	probeHost := websim.URLHost(env.Cfg.WebRTCProbeURL)
	if probeHost == "" {
		return nil, errors.New("vpntest: no WebRTC probe configured")
	}
	chain, err := env.Client.Get(env.Cfg.WebRTCProbeURL)
	if err != nil {
		return nil, fmt.Errorf("vpntest: loading WebRTC probe: %w", err)
	}
	page := chain[len(chain)-1].Response
	if !strings.Contains(string(page.Body), websim.WebRTCMarker) {
		return nil, errors.New("vpntest: probe page missing gathering marker")
	}

	// ICE gathering: host candidates are the local interface addresses
	// (unless masked); the server-reflexive candidate is whatever the
	// probe server sees as our source, which the report echoes anyway.
	var candidates []netip.Addr
	if !env.Stack.WebRTCMasked() {
		candidates = env.Stack.InterfaceAddrs()
	}
	parts := make([]string, len(candidates))
	for i, c := range candidates {
		parts[i] = c.String()
	}
	addr, err := env.Client.Resolve(probeHost, false)
	if err != nil {
		return nil, err
	}
	post := &websim.Request{
		Method:  "POST",
		Path:    "/report",
		Headers: []websim.Header{{Name: "Host", Value: probeHost}},
		Body:    []byte(strings.Join(parts, ",")),
	}
	raw, err := env.Stack.ExchangeTCP(addr, 80, post.Encode())
	if err != nil {
		return nil, err
	}
	resp, err := websim.ParseResponse(raw)
	if err != nil {
		return nil, err
	}

	egress, _ := env.EgressIP()
	res := &WebRTCResult{}
	for _, line := range strings.Split(string(resp.Body), "\n") {
		val, ok := strings.CutPrefix(line, "candidates=")
		if !ok {
			continue
		}
		for _, s := range strings.Split(val, ",") {
			a, err := netip.ParseAddr(strings.TrimSpace(s))
			if err != nil {
				continue
			}
			res.Revealed = append(res.Revealed, a)
			if a != egress && !a.IsPrivate() && !a.IsLinkLocalUnicast() {
				res.RealAddressExposed = true
			}
		}
	}
	res.EgressOnly = !res.RealAddressExposed
	return res, nil
}

// P2PResult is the §6.6 peer-exit detection output: DNS queries seen
// leaving the client's physical interface that the measurement suite
// never issued, the signature of the machine serving as an exit for
// other users' traffic.
type P2PResult struct {
	// UnexpectedQueries are the qnames of unattributable cleartext DNS
	// requests.
	UnexpectedQueries []string
	// AttributableLeaks counts cleartext queries the suite DID issue
	// (ordinary DNS leakage, reported separately by the leak test).
	AttributableLeaks int
}

// PeerExit reports the verdict: someone else's traffic left our link.
func (r *P2PResult) PeerExit() bool { return len(r.UnexpectedQueries) > 0 }

// RunP2PDetection scans the whole physical-interface capture for DNS
// queries whose names are outside the suite's own query universe
// (§5.3.4/§6.6: "we focus on identifying unexpected DNS requests to
// identify P2P traffic"). It also stirs the tunnel with a few keepalive
// pings first, since peer traffic rides on an active connection.
func RunP2PDetection(env *Env) (*P2PResult, error) {
	phys := env.Stack.Interface(netsim.PhysicalName)
	if phys == nil {
		return nil, errors.New("vpntest: no physical interface")
	}
	// Keepalives: give a peer-exit client the activity it piggybacks on.
	for i := 0; i < 10; i++ {
		for _, r := range env.Cfg.PublicResolvers {
			_, _ = env.Stack.Ping(r)
		}
	}
	legit := env.legitimateQueryNames()
	res := &P2PResult{}
	seen := map[string]bool{}
	var v capture.PacketView
	var msg dnssim.Message
	// Read in place: decoding a query captures nothing.
	for _, rec := range phys.Sink.View(0) {
		if rec.Dir != capture.DirOut {
			continue
		}
		// Sink records own their bytes, so the alias-not-copy view is
		// safe; ParseView matches the decoder pass byte for byte.
		if capture.ParseView(rec.Data, &v) != nil ||
			v.Transport != capture.TypeUDP || v.DstPort != 53 {
			continue
		}
		if err := dnssim.DecodeInto(&msg, v.Payload, env.Client.Intern); err != nil ||
			msg.Response || len(msg.Questions) == 0 {
			continue
		}
		name := msg.Questions[0].Name
		if legit(name) {
			res.AttributableLeaks++
			continue
		}
		if !seen[name] {
			seen[name] = true
			res.UnexpectedQueries = append(res.UnexpectedQueries, name)
		}
	}
	return res, nil
}

// legitimateQueryNames returns a predicate covering every hostname the
// suite itself may have resolved: the target corpora, infrastructure
// endpoints, and the tagged probe domain.
func (e *Env) legitimateQueryNames() func(string) bool {
	exact := e.Cfg.legitNames(e.Baseline)
	probe := strings.ToLower(e.Cfg.ProbeDomain)
	return func(name string) bool {
		name = strings.TrimSuffix(name, ".")
		// Names on the wire are lowercase in the common case; only
		// fold when needed so the probe avoids an allocation.
		if !isLowerASCII(name) {
			name = strings.ToLower(name)
		}
		if exact[name] {
			return true
		}
		return probe != "" && (name == probe || strings.HasSuffix(name, "."+probe))
	}
}

// isLowerASCII reports whether s contains no ASCII uppercase letters
// and no non-ASCII bytes (for which ToLower could also change bytes).
func isLowerASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 || ('A' <= c && c <= 'Z') {
			return false
		}
	}
	return true
}

// FailureResult is the tunnel-failure recovery test output.
type FailureResult struct {
	// Leaked: the probe host was reachable while the tunnel was
	// firewalled — the client failed open within the window.
	Leaked bool
	// SecondsToLeak is the virtual time until the first successful
	// direct contact (0 when no leak).
	SecondsToLeak float64
	Attempts      int
}

// RunTunnelFailure induces a tunnel failure by firewalling all outbound
// traffic except to the probe host, then repeatedly attempts to contact
// the probe for the configured window (§5.3.3 "Recovery from Tunnel
// Failure"). The firewall is removed before returning; the VPN client's
// state afterwards reflects however it handled the outage.
func RunTunnelFailure(env *Env) (*FailureResult, error) {
	window := time.Duration(env.Cfg.FailureWindowSeconds) * time.Second
	if window == 0 {
		window = 3 * time.Minute
	}
	probe := env.Cfg.TunnelFailureProbe
	host := websim.URLHost(env.Cfg.TunnelFailureURL)
	env.Stack.SetAllowOnly([]netip.Addr{probe})
	defer env.Stack.SetAllowOnly(nil)

	res := &FailureResult{}
	clock := env.Stack.Net.Clock
	start := clock.Now()
	// Every attempt sends the same bytes, and the stack copies them
	// into each packet, so one encoding serves the whole window.
	wire := websim.NewRequest("GET", host, "/").AppendEncode(nil)
	for clock.Now()-start < window {
		res.Attempts++
		raw, err := env.Stack.ExchangeTCP(probe, 80, wire)
		if err == nil && raw != nil {
			res.Leaked = true
			res.SecondsToLeak = (clock.Now() - start).Seconds()
			return res, nil
		}
		clock.Advance(5 * time.Second)
	}
	return res, nil
}
