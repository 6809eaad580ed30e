package netsim

import (
	"net/netip"

	"vpnscope/internal/geo"
)

// UDPHandler serves one UDP request datagram and returns the response
// payload, or nil for no response.
type UDPHandler func(src netip.Addr, srcPort uint16, payload []byte) []byte

// TCPHandler serves one request/response exchange on a TCP port. The
// simulator models an established connection carrying one application
// message each way (sufficient for the HTTP- and TLS-style exchanges the
// measurement suite performs).
type TCPHandler func(src netip.Addr, srcPort uint16, payload []byte) []byte

// RawHandler receives a whole raw IP packet addressed to the host and
// emits any response packets (raw IP, addressed back to the sender)
// through emit — batched delivery queues them all in one pass instead
// of a return-value round trip each. It reports whether it consumed the
// packet; false falls through to the host's port dispatch (a VPN host
// serves both raw tunnel frames and plain provider DNS). VPN servers
// use this to terminate tunnel encapsulation; the Network is passed so
// the handler can originate onward exchanges (decapsulate and forward)
// on the caller's virtual-time budget. Emitted packets must be owned
// (not aliases of freelist scratch); build them with Network.BuildPacket
// or copy into the slot arena.
type RawHandler func(n *Network, packet []byte, emit func([]byte)) bool

// Host is a machine on the simulated Internet: one or more addresses,
// a physical location, and registered service handlers. Like the
// Network it joins, a host is driven only by the world's owner
// goroutine.
type Host struct {
	Name    string
	Coord   geo.Coord
	Country geo.Country
	Addr    netip.Addr // primary IPv4 address
	Addr6   netip.Addr // optional IPv6 address (zero if none)
	Block   Block      // the address block the host lives in
	// Reliability is the probability an exchange with this host
	// succeeds. The paper found vantage points outside North America
	// and Europe notably flaky; the simulator reproduces that here.
	// Zero means "use 1.0".
	Reliability float64

	udp  map[uint16]UDPHandler
	tcp  map[uint16]TCPHandler
	raw  RawHandler
	drop bool // administratively down
}

// NewHost creates a host at the given city.
func NewHost(name string, city geo.City, addr netip.Addr) *Host {
	return &Host{Name: name, Coord: city.Coord, Country: city.Country, Addr: addr}
}

// HandleUDP registers a UDP service on port.
func (h *Host) HandleUDP(port uint16, fn UDPHandler) {
	if h.udp == nil {
		h.udp = make(map[uint16]UDPHandler)
	}
	h.udp[port] = fn
}

// HandleTCP registers a TCP service on port.
func (h *Host) HandleTCP(port uint16, fn TCPHandler) {
	if h.tcp == nil {
		h.tcp = make(map[uint16]TCPHandler)
	}
	h.tcp[port] = fn
}

// HandleRaw registers a whole-packet handler consulted before port
// dispatch (tunnel termination).
func (h *Host) HandleRaw(fn RawHandler) { h.raw = fn }

// SetDown marks the host administratively down (all exchanges time out).
func (h *Host) SetDown(down bool) { h.drop = down }

// HasIPv6 reports whether the host has an IPv6 address.
func (h *Host) HasIPv6() bool { return h.Addr6.IsValid() }

// reliability returns the effective success probability.
func (h *Host) reliability() float64 {
	if h.Reliability <= 0 || h.Reliability > 1 {
		return 1
	}
	return h.Reliability
}
