// Package vpntest is the paper's primary contribution rebuilt in Go: an
// active-measurement test suite that audits a VPN connection for traffic
// interception and manipulation (§5.3.1), infrastructure properties
// (§5.3.2), and traffic leakage (§5.3.3), from the standpoint of an end
// user.
//
// The suite is strictly black-box: it receives an already-connected
// network stack and a description of the reference infrastructure
// (target sites, landmarks, resolvers, trust roots, a pre-collected
// ground-truth baseline). It never touches the ground-truth behavior
// fields in internal/vpn — the same separation the paper had between
// its measurement VM and the providers it measured.
package vpntest

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"

	"vpnscope/internal/geo"
	"vpnscope/internal/netsim"
	"vpnscope/internal/tlssim"
	"vpnscope/internal/websim"
)

// Landmark is a host with a trusted, known physical location: a RIPE
// Atlas anchor, a DNS root instance, or an anycast resolver site. The
// suite pings landmarks to fingerprint where a vantage point really is.
type Landmark struct {
	Name string
	City geo.City
	Addr netip.Addr
}

// Config is the static description of the measurement infrastructure,
// shared across every vantage point tested in a study.
type Config struct {
	// DOMSiteURLs are the ~55 plain-HTTP pages for DOM/request
	// collection; two of them are honeysites.
	DOMSiteURLs []string
	// TLSHosts are the hostnames probed by the TLS interception and
	// downgrade test (the DOM sites plus ~150 more).
	TLSHosts []string
	// DNSCheckHosts are the popular hostnames the DNS-manipulation
	// test resolves via both paths.
	DNSCheckHosts []string
	// IPv6ProbeHosts maps hostname to its IPv6 address for the
	// IPv6-leakage probe (addresses are pre-resolved from the
	// baseline vantage so the probe itself needs no AAAA lookup).
	IPv6ProbeHosts map[string]netip.Addr
	// EchoURL, IPEchoURL and WebRTCProbeURL are the header-echo,
	// what-is-my-IP, and WebRTC-leak endpoints.
	EchoURL        string
	IPEchoURL      string
	WebRTCProbeURL string
	// PublicResolvers are anycast open resolvers (Google, Quad9).
	PublicResolvers []netip.Addr
	// Landmarks are ping targets with known locations.
	Landmarks []Landmark
	// ProbeDomain is the origin-logging authority's suffix; the suite
	// resolves unique tagged names under it.
	ProbeDomain string
	// OriginsOf reads the authority's log for a tagged name (wired to
	// dnssim.Authority.OriginsOf by the study assembly).
	OriginsOf func(name string) []netip.Addr
	// TrustPool verifies served TLS certificates.
	TrustPool *tlssim.Pool
	// Whois resolves an address to its registered block (org, ASN,
	// country) — the suite's stand-in for WHOIS lookups.
	Whois func(addr netip.Addr) (netsim.Block, bool)
	// GeoAPI geolocates an address the way the Google Maps API
	// geolocated the requester's IP (§5.3.2).
	GeoAPI func(addr netip.Addr) (geo.Country, bool)
	// TunnelFailureProbe is the host kept reachable while everything
	// else is firewalled during the tunnel-failure test.
	TunnelFailureProbe netip.Addr
	TunnelFailureURL   string
	// FailureWindow is how long the failure test keeps probing; the
	// paper used three minutes and acknowledges the resulting
	// conservatism.
	FailureWindowSeconds int

	// Derived state below is built lazily, once per Config, and shared
	// by every slot of a study (the corpora are static, so the per-host
	// URL strings, probe wire bytes, and host sets never change).
	derivedOnce   sync.Once
	tlsURLs       []hostURLs
	sortedV6Hosts []string
	v6ProbeReqs   [][]byte

	legitOnce sync.Once
	legitBase *Baseline
	legitMap  map[string]bool
}

// hostURLs are the two probe URLs RunTLS fetches for one host.
type hostURLs struct {
	https, http string
}

// derived builds the Config's lazily shared probe furniture.
func (c *Config) derived() {
	c.derivedOnce.Do(func() {
		c.tlsURLs = make([]hostURLs, len(c.TLSHosts))
		for i, h := range c.TLSHosts {
			c.tlsURLs[i] = hostURLs{https: "https://" + h + "/", http: "http://" + h + "/"}
		}
		c.sortedV6Hosts = make([]string, 0, len(c.IPv6ProbeHosts))
		for host := range c.IPv6ProbeHosts {
			c.sortedV6Hosts = append(c.sortedV6Hosts, host)
		}
		sort.Strings(c.sortedV6Hosts)
		c.v6ProbeReqs = make([][]byte, len(c.sortedV6Hosts))
		for i, host := range c.sortedV6Hosts {
			c.v6ProbeReqs[i] = websim.NewRequest("GET", host, "/").Encode()
		}
	})
}

// legitNames returns the exact-match host set legitimateQueryNames
// uses, cached for the (Config, Baseline) pair every slot of a study
// shares; an unexpected second baseline gets a fresh uncached build.
func (c *Config) legitNames(b *Baseline) map[string]bool {
	c.legitOnce.Do(func() {
		c.legitBase = b
		c.legitMap = buildLegitNames(c, b)
	})
	if c.legitBase == b {
		return c.legitMap
	}
	return buildLegitNames(c, b)
}

func buildLegitNames(c *Config, b *Baseline) map[string]bool {
	exact := map[string]bool{}
	addURL := func(raw string) {
		if h := websim.URLHost(raw); h != "" {
			exact[strings.ToLower(h)] = true
		}
	}
	for _, u := range c.DOMSiteURLs {
		addURL(u)
	}
	for _, h := range c.TLSHosts {
		exact[strings.ToLower(h)] = true
	}
	for _, h := range c.DNSCheckHosts {
		exact[strings.ToLower(h)] = true
	}
	for h := range c.IPv6ProbeHosts {
		exact[strings.ToLower(h)] = true
	}
	addURL(c.EchoURL)
	addURL(c.IPEchoURL)
	addURL(c.WebRTCProbeURL)
	addURL(c.TunnelFailureURL)
	// Subresource hosts referenced by baseline DOMs (ad networks etc.).
	if b != nil {
		for _, hosts := range b.ResourceHosts {
			for h := range hosts {
				exact[strings.ToLower(h)] = true
			}
		}
	}
	return exact
}

// Env is one vantage point's test context: the connected stack plus the
// shared config and baseline.
type Env struct {
	Cfg      *Config
	Baseline *Baseline
	Stack    *netsim.Stack
	Client   *websim.Client
	// Meta describes what the provider claims about this vantage
	// point (user-visible information only).
	Provider       string
	VPLabel        string
	ClaimedCountry geo.Country

	cachedEgress netip.Addr
}

// NewEnv builds an Env over a connected stack.
func NewEnv(cfg *Config, baseline *Baseline, stack *netsim.Stack, provider, vpLabel string, claimed geo.Country) *Env {
	return &Env{
		Cfg:            cfg,
		Baseline:       baseline,
		Stack:          stack,
		Client:         &websim.Client{Stack: stack},
		Provider:       provider,
		VPLabel:        vpLabel,
		ClaimedCountry: claimed,
	}
}

// EgressIP discovers the connection's public egress address via the
// what-is-my-IP service. Flaky paths get a few retries — partial
// re-collection was routine in the paper's campaign (§5.2).
func (e *Env) EgressIP() (netip.Addr, error) {
	if e.cachedEgress.IsValid() {
		return e.cachedEgress, nil
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		chain, err := e.Client.Get(e.Cfg.IPEchoURL)
		if err != nil {
			lastErr = err
			continue
		}
		final := chain[len(chain)-1].Response
		addr, err := netip.ParseAddr(string(final.Body))
		if err != nil {
			lastErr = fmt.Errorf("parsing egress IP %q: %w", final.Body, err)
			continue
		}
		e.cachedEgress = addr
		return addr, nil
	}
	return netip.Addr{}, fmt.Errorf("vpntest: discovering egress IP: %w", lastErr)
}
