// Package vpn simulates commercial VPN providers: vantage-point servers
// that terminate tunnel encapsulation and forward traffic from their
// egress address, and client software that reconfigures a host's network
// stack (routes, DNS, IPv6, kill switch) the way the 62 desktop clients
// the paper tested did — including every misbehavior the paper found in
// the wild.
//
// The package holds the study's ground truth. The measurement suite in
// internal/vpntest must never read these structs' behavior fields; it
// may only observe packets, just as the paper's tooling could.
package vpn

import (
	"fmt"
	"net/netip"
	"time"

	"vpnscope/internal/dnssim"
	"vpnscope/internal/geo"
	"vpnscope/internal/netsim"
	"vpnscope/internal/tlssim"
)

// ClientType classifies how users run the provider's tunnels, which
// determined which of the paper's tests applied (§6.5: DNS/IPv6 leak
// tests ran only against providers shipping their own client).
type ClientType int

// Client types.
const (
	// CustomClient providers ship their own desktop app.
	CustomClient ClientType = iota
	// ThirdPartyOpenVPN providers hand users OpenVPN configuration
	// files for Tunnelblick/Viscosity; those configs cannot express DNS
	// or IPv6 protections.
	ThirdPartyOpenVPN
	// BrowserExtension providers proxy only browser traffic; the paper
	// excluded them from active testing.
	BrowserExtension
)

func (c ClientType) String() string {
	switch c {
	case CustomClient:
		return "custom-client"
	case ThirdPartyOpenVPN:
		return "third-party-openvpn"
	case BrowserExtension:
		return "browser-extension"
	default:
		return fmt.Sprintf("ClientType(%d)", int(c))
	}
}

// KillSwitchMode is the client's kill-switch shipping state.
type KillSwitchMode int

// Kill-switch modes. The paper's finding: even providers featuring kill
// switches ship them disabled by default or scoped to one application.
const (
	KillSwitchNone KillSwitchMode = iota
	KillSwitchOffByDefault
	KillSwitchOnByDefault
	KillSwitchPerApp
)

func (k KillSwitchMode) String() string {
	switch k {
	case KillSwitchNone:
		return "none"
	case KillSwitchOffByDefault:
		return "off-by-default"
	case KillSwitchOnByDefault:
		return "on-by-default"
	case KillSwitchPerApp:
		return "per-app"
	default:
		return fmt.Sprintf("KillSwitchMode(%d)", int(k))
	}
}

// Behavior is a provider's ground-truth conduct — everything the
// measurement suite tries to detect from the outside.
type Behavior struct {
	// TransparentProxy funnels forwarded HTTP through a proxy that
	// parses and regenerates headers (§6.2.1).
	TransparentProxy bool
	// InjectContent injects an upsell overlay into HTTP pages (§6.1.3).
	InjectContent bool
	// ManipulateDNS rewrites answers on the provider's resolver for a
	// set of monetizable domains (§5.3.1's DNS-manipulation target).
	ManipulateDNS bool
	// InterceptTLS man-in-the-middles port 443 with a provider CA. The
	// paper found no provider doing this; the capability exists so the
	// test proves it would be caught.
	InterceptTLS bool
	// SetsDNS: the client points the system resolver at the provider's
	// tunnel-internal resolver. When false, queries keep flowing to the
	// ISP resolver over the physical interface — the §6.5 DNS leak.
	SetsDNS bool
	// SupportsIPv6 carries IPv6 in the tunnel.
	SupportsIPv6 bool
	// BlocksIPv6 blackholes IPv6 when the tunnel cannot carry it. A
	// provider with neither SupportsIPv6 nor BlocksIPv6 leaks IPv6
	// (§6.5, Table 6).
	BlocksIPv6 bool
	// KillSwitch is the shipping kill-switch state.
	KillSwitch KillSwitchMode
	// FailOpen: on detected tunnel failure the client tears down its
	// routes and lets traffic flow directly (the 58% finding).
	FailOpen bool
	// FailureDetectionDelay is how long the client takes to notice a
	// dead tunnel. Clients slower than the test's observation window
	// are (conservatively) reported as fail-closed, reproducing the
	// paper's stated underestimate.
	FailureDetectionDelay time.Duration
	// MasksWebRTC: the client (or its companion browser extension)
	// disables WebRTC local-address gathering. Most desktop VPN
	// products cannot, leaving the §7 WebRTC address leak open.
	MasksWebRTC bool
	// PeerExit models Hola-style peer-to-peer VPNs: the client routes
	// *other users'* traffic out of the member's own connection. The
	// paper found none of its 62 providers doing this (§6.6) and left
	// P2P VPNs as future work; the capability exists here so the
	// suite's unexpected-DNS detector is proven against a positive
	// case.
	PeerExit bool
}

// VantagePointSpec declares one vantage point before construction.
type VantagePointSpec struct {
	// ClaimedCountry is what the provider's server list advertises.
	ClaimedCountry geo.Country
	// ActualCity is where the machine physically runs. For honest
	// vantage points it is in ClaimedCountry; for "virtual" ones it is
	// not (§6.4.2).
	ActualCity string
	// SeedsGeoDB: the provider actively games seedable geo-IP
	// databases into reporting ClaimedCountry for this address.
	SeedsGeoDB bool
	// Block optionally pins the vantage point into a specific address
	// block (used to plant the Table 5 shared-infrastructure overlaps).
	// Empty means "allocate from a provider-default block".
	Block *netsim.Block
	// Addr optionally pins the exact address (used to plant the
	// Boxpn/Anonine identical-endpoint finding). Must be inside Block.
	Addr netip.Addr
	// Reliability overrides the connection success probability
	// (defaults by actual region — §5.2 found far lower reliability
	// outside North America and Europe).
	Reliability float64
}

// ProviderSpec declares a provider before construction.
type ProviderSpec struct {
	Name   string
	Domain string
	Client ClientType
	Behavior
	VantagePoints []VantagePointSpec
	// ManipulatedDomains lists names the provider's resolver hijacks
	// when ManipulateDNS is set.
	ManipulatedDomains []string
}

// VantagePoint is a constructed, reachable vantage point.
type VantagePoint struct {
	Provider *Provider
	Index    int
	Spec     VantagePointSpec
	Host     *netsim.Host
	// ClaimedCountry mirrors Spec for convenience.
	ClaimedCountry geo.Country
	// ActualCity is the resolved city record.
	ActualCity geo.City
	sessionKey uint32
	resolver   *dnssim.Resolver
	// flows holds the flow handles the tunnel terminator sends on, made
	// when the vantage point first serves a tunnel packet, so a world
	// pays only for the vantage points it measures. Its serving scratch
	// lives in the world's ServerEnv.
	flows *relayFlows
}

// relayFlows are a vantage point's flow handles, revalidated per packet:
// wrap carries tunnel replies to the client, fwd the forwarded packet
// from the egress, and reply the inner response back to the
// tunnel-internal client.
type relayFlows struct {
	wrap, fwd, reply netsim.Flow
}

// ID returns a stable identifier like "HideMyAss#17".
func (vp *VantagePoint) ID() string {
	return fmt.Sprintf("%s#%d", vp.Provider.Name(), vp.Index)
}

// Addr returns the vantage point's public address.
func (vp *VantagePoint) Addr() netip.Addr { return vp.Host.Addr }

// IsVirtual reports the ground truth: is the machine outside its
// advertised country?
func (vp *VantagePoint) IsVirtual() bool {
	return vp.ActualCity.Country != vp.ClaimedCountry
}

// Provider is a constructed provider with live vantage points.
type Provider struct {
	Spec ProviderSpec
	VPs  []*VantagePoint
	// MITMCA is the CA an intercepting provider signs MITM leaves with.
	MITMCA *tlssim.CA
	// env is the world context the provider was built into; its
	// clients scramble with the world's keystream.
	env *ServerEnv
}

// Name returns the provider's name.
func (p *Provider) Name() string { return p.Spec.Name }

// BeginSlot resets the provider's slot-scoped stochastic state at a
// vantage-point slot boundary. Today that is only the MITM CA's serial
// counter: pinning it to a slot-derived base makes intercepted-leaf
// fingerprints a pure function of (slot, issue order within the slot)
// instead of global campaign history, which is what lets a worker
// measure slots in any order and still produce the bytes a sequential
// run would. The 32-bit shift leaves room for any realistic number of
// per-slot issuances without colliding with a neighboring slot's range.
func (p *Provider) BeginSlot(slot int) {
	if p.MITMCA != nil {
		p.MITMCA.ResetSerial(uint64(slot) << 32)
	}
}

// TunnelInternalClient and TunnelInternalDNS are the RFC 1918 addresses
// used inside every tunnel: the client's tunnel interface and the
// provider's tunnel-internal resolver.
var (
	TunnelInternalClient = netip.MustParseAddr("10.8.0.2")
	TunnelInternalDNS    = netip.MustParseAddr("10.8.0.1")
)
