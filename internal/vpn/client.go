package vpn

import (
	"errors"
	"fmt"
	"net/netip"
	"strconv"
	"time"

	"vpnscope/internal/capture"
	"vpnscope/internal/dnssim"
	"vpnscope/internal/netsim"
)

// Client errors.
var (
	// ErrConnectFailed means the vantage point could not be reached —
	// the flaky-endpoint behavior §5.2 describes.
	ErrConnectFailed = errors.New("vpn: could not connect to vantage point")
	// ErrTunnelDown means the tunnel is in a failed state and the
	// client has not (or will never) fail open.
	ErrTunnelDown = errors.New("vpn: tunnel down")
)

// Carrier abstracts how tunnel packets reach the vantage point: the
// physical interface directly, or an onion circuit for VPN-over-Tor.
type Carrier interface {
	// Send carries one raw IP packet (the encapsulated tunnel frame)
	// and returns the response packet.
	Send(pkt []byte) ([]byte, error)
	// Endpoint is the address the client's machine actually talks to —
	// the vantage point directly, or the circuit's guard relay.
	Endpoint() netip.Addr
}

// Client is the provider's desktop software: it owns a tunnel interface
// on the user's stack and reconfigures routing, DNS, IPv6, and the
// firewall according to the provider's (possibly unsafe) defaults.
type Client struct {
	Provider *Provider
	VP       *VantagePoint
	Stack    *netsim.Stack
	carrier  Carrier

	failOpened    bool
	failedAt      time.Duration
	failing       bool
	origResolvers []netip.Addr
	sendCount     int
	peerSeq       int
	// dnsBuf is the reusable encode scratch for peer-exit queries.
	dnsBuf []byte
	// ls backs the encapsulation headers tunnelSend builds; the client
	// runs on its world's single goroutine and every build serializes
	// before the scratch is reused.
	ls capture.LayerScratch
	// downCause/downWrapped memoize tunnelSend's ErrTunnelDown wrap:
	// a failing tunnel surfaces the same underlying carrier error (the
	// netsim layer interns its exchange failures) over and over, so the
	// wrap is built once per distinct cause instead of per send.
	downCause   error
	downWrapped error
	// encap is the tunnel's outer flow, host to vantage point out the
	// physical interface, held for the client's life.
	encap netsim.Flow
}

// tunnelError mirrors fmt.Errorf("%w: %v", ErrTunnelDown, cause): the
// same rendered text and the same errors.Is(ErrTunnelDown) behavior,
// without the fmt machinery on a path every failed send of a lossy
// campaign crosses.
type tunnelError struct{ msg string }

func (e *tunnelError) Error() string { return e.msg }
func (e *tunnelError) Unwrap() error { return ErrTunnelDown }

// errNonTunnelResponse is the constant-text variant for a response that
// came back unencapsulated.
var errNonTunnelResponse = &tunnelError{ErrTunnelDown.Error() + ": non-tunnel response"}

// wrapTunnelDown returns the memoized ErrTunnelDown wrap for cause.
func (c *Client) wrapTunnelDown(cause error) error {
	if cause != c.downCause {
		c.downCause = cause
		c.downWrapped = &tunnelError{ErrTunnelDown.Error() + ": " + cause.Error()}
	}
	return c.downWrapped
}

// directCarrier ships tunnel frames straight to the vantage point over
// the physical interface, on a flow handle held for the carrier's life.
type directCarrier struct {
	stack *netsim.Stack
	vp    *VantagePoint
	flow  netsim.Flow
}

func (d *directCarrier) Send(pkt []byte) ([]byte, error) {
	d.stack.PhysicalFlow(&d.flow, d.vp.Addr())
	return d.stack.SendFlow(&d.flow, pkt)
}

func (d *directCarrier) Endpoint() netip.Addr { return d.vp.Addr() }

// Connect attaches the client to a vantage point: verifies
// reachability, installs the tunnel interface and routes, and applies
// the provider's DNS/IPv6/kill-switch defaults.
func Connect(stack *netsim.Stack, vp *VantagePoint) (*Client, error) {
	return connect(stack, vp, &directCarrier{stack: stack, vp: vp})
}

// ConnectVia attaches the client through a custom carrier — the
// VPN-over-Tor configuration some providers offer routes the tunnel's
// transport through an onion circuit, so the provider never sees the
// member's address and the member's ISP sees only the circuit's guard.
func ConnectVia(stack *netsim.Stack, vp *VantagePoint, carrier Carrier) (*Client, error) {
	return connect(stack, vp, carrier)
}

func connect(stack *netsim.Stack, vp *VantagePoint, carrier Carrier) (*Client, error) {
	// Reachability check against whatever we actually talk to: flaky
	// endpoints fail here, like the buggy clients and dead servers the
	// paper kept hitting.
	if _, err := stack.Ping(carrier.Endpoint()); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrConnectFailed, vp.ID(), err)
	}
	c := &Client{Provider: vp.Provider, VP: vp, Stack: stack, carrier: carrier}
	c.origResolvers = stack.Resolvers()
	spec := &vp.Provider.Spec

	// Carrier route: tunnel transport must keep using the physical path.
	stack.AddRoute(netsim.Route{
		Prefix: netip.PrefixFrom(carrier.Endpoint(), carrier.Endpoint().BitLen()),
		Iface:  netsim.PhysicalName,
	})
	stack.AddInterface(netsim.TunnelName, TunnelInternalClient, c.tunnelSend)
	stack.AddRoute(netsim.Route{Prefix: netip.MustParsePrefix("0.0.0.0/0"), Iface: netsim.TunnelName})

	switch {
	case spec.SupportsIPv6:
		stack.AddRoute(netsim.Route{Prefix: netip.MustParsePrefix("::/0"), Iface: netsim.TunnelName})
	case spec.BlocksIPv6:
		stack.AddRoute(netsim.Route{Prefix: netip.MustParsePrefix("::/0"), Iface: netsim.PhysicalName, Blackhole: true})
		// Neither: the host's own v6 default via the physical interface
		// stays live — the Table 6 IPv6 leak.
	}

	if spec.SetsDNS {
		stack.SetResolvers(TunnelInternalDNS)
		// Otherwise the system resolver (the user's ISP resolver,
		// reached over the physical interface) keeps serving queries —
		// the Table 6 DNS leak.
	}

	if spec.KillSwitch == KillSwitchOnByDefault {
		stack.SetAllowOnly([]netip.Addr{carrier.Endpoint()})
	}
	if spec.MasksWebRTC {
		stack.SetWebRTCMasked(true)
	}
	return c, nil
}

// FailedOpen reports whether the client has torn down its protections
// after a tunnel failure.
func (c *Client) FailedOpen() bool {
	return c.failOpened
}

// tunnelSend encapsulates one inner packet, carries it over the
// physical interface, and decapsulates the response.
func (c *Client) tunnelSend(inner []byte) ([]byte, error) {
	if c.failOpened {
		return nil, ErrTunnelDown
	}
	c.sendCount++
	if c.Provider.Spec.PeerExit && c.sendCount%5 == 0 {
		c.emitPeerTraffic()
	}

	// The scrambled frame dies inside this send — slot-arena scratch.
	ks := &c.Provider.env.ks
	enc := c.Stack.Net.SlotArena().Bytes(len(inner))
	ks.XORInto(c.VP.sessionKey, enc, inner)
	buf := c.Stack.Net.AcquireBuffer()
	defer c.Stack.Net.ReleaseBuffer(buf)
	c.ls.Tunnel = capture.Tunnel{SessionID: c.VP.sessionKey}
	c.Stack.PhysicalFlow(&c.encap, c.VP.Addr())
	outer, err := c.encap.BuildInto(buf, 64, c.ls.Pair(&c.ls.Tunnel, enc)...)
	if err != nil {
		return nil, err
	}
	resp, err := c.carrier.Send(outer)
	if err != nil {
		c.noteFailure(err)
		return nil, c.wrapTunnelDown(err)
	}
	c.noteSuccess()
	if resp == nil {
		return nil, nil
	}
	var v capture.PacketView
	if capture.ParseView(resp, &v) != nil || v.Transport != capture.TypeTunnel {
		return nil, errNonTunnelResponse
	}
	// resp is owned by this call, so unscramble the tunnel payload in
	// place instead of copying it out first.
	dec := v.Payload
	ks.XOR(c.VP.sessionKey, dec)
	return dec, nil
}

// emitPeerTraffic originates one exit request on behalf of a remote
// peer: a cleartext DNS query leaving the member's physical interface
// for a name the member never asked for — the §6.6 signature.
func (c *Client) emitPeerTraffic() {
	c.peerSeq++
	seq := c.peerSeq
	name := "exit-" + strconv.Itoa(seq) + ".peer-traffic.example"
	wire, err := dnssim.AppendQueryEncode(c.dnsBuf[:0], uint16(seq), name, dnssim.TypeA)
	if err != nil {
		return
	}
	c.dnsBuf = wire[:0]
	resolver := netip.AddrFrom4([4]byte{8, 8, 8, 8})
	buf := c.Stack.Net.AcquireBuffer()
	defer c.Stack.Net.ReleaseBuffer(buf)
	c.ls.UDP = capture.UDP{SrcPort: 53000, DstPort: 53}
	pkt, err := c.Stack.Net.BuildPacketInto(buf, c.Stack.Host.Addr, resolver,
		c.ls.Pair(&c.ls.UDP, wire)...)
	if err != nil {
		return
	}
	// Best effort: a kill switch or the failure-test firewall may drop
	// it, exactly as it would in the field.
	_, _ = c.Stack.SendVia(netsim.PhysicalName, pkt)
}

// noteFailure tracks tunnel failures and, once the provider's detection
// delay has elapsed, applies the provider's failure mode.
func (c *Client) noteFailure(cause error) {
	now := c.Stack.Net.Clock.Now()
	if !c.failing {
		c.failing = true
		c.failedAt = now
		return
	}
	if now-c.failedAt < c.Provider.Spec.FailureDetectionDelay {
		return
	}
	// Failure detected.
	if c.Provider.Spec.FailOpen {
		c.failOpen()
	}
	// Fail-closed clients keep their routes pointed at the dead
	// tunnel; traffic keeps erroring, which is the safe behavior.
}

func (c *Client) noteSuccess() {
	c.failing = false
}

// failOpen tears down the client's protections: tunnel routes,
// kill-switch firewall, and provider DNS all revert, so traffic flows
// directly over the physical interface.
func (c *Client) failOpen() {
	if c.failOpened {
		return
	}
	c.failOpened = true
	c.Stack.RemoveRoutes(func(r netsim.Route) bool { return r.Iface == netsim.TunnelName })
	c.Stack.SetAllowOnly(nil)
	if c.Provider.Spec.SetsDNS {
		c.Stack.SetResolvers(c.origResolvers...)
	}
}

// Disconnect cleanly tears the tunnel down and restores the stack.
func (c *Client) Disconnect() {
	c.Stack.RemoveInterface(netsim.TunnelName)
	ep := c.carrier.Endpoint()
	c.Stack.RemoveRoutes(func(r netsim.Route) bool {
		return r.Iface == netsim.TunnelName ||
			(r.Blackhole && r.Prefix == netip.MustParsePrefix("::/0")) ||
			(r.Prefix == netip.PrefixFrom(ep, ep.BitLen()) && r.Iface == netsim.PhysicalName)
	})
	c.Stack.SetAllowOnly(nil)
	c.Stack.SetResolvers(c.origResolvers...)
	c.Stack.SetWebRTCMasked(false)
}
