// Package torsim is a minimal onion-routing substrate supporting the
// "VPN over Tor" feature ten of the catalog's providers advertise (§4
// of the paper): the VPN tunnel's carrier traffic is routed through a
// three-hop circuit of relays, so the provider never learns the user's
// address and the user's ISP sees only a connection to a guard relay.
//
// Onion layering uses the same involutive scrambling as the tunnel
// encapsulation (capture.Scramble): each relay holds a key, cells are
// wrapped innermost-exit-first, and each hop unwraps exactly one layer.
// As with tlssim, this models the routing and visibility properties,
// not real cryptography.
package torsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"

	"vpnscope/internal/capture"
	"vpnscope/internal/geo"
	"vpnscope/internal/netsim"
	"vpnscope/internal/simrand"
)

// RelayPort is the UDP port relays listen on.
const RelayPort = 9001

// cell wire format (after the magic, scrambled with the relay's key):
//
//	"TOR1" | next[16] | len[2] | payload
//
// next == 0 marks the exit position: payload is a raw IP packet to
// forward from the relay's own address.
const cellMagic = "TOR1"

// Relay is one onion router.
type Relay struct {
	Name string
	Host *netsim.Host
	key  uint32
}

// Addr returns the relay's address.
func (r *Relay) Addr() netip.Addr { return r.Host.Addr }

// Mesh is a set of relays forming the overlay on one network.
type Mesh struct {
	Relays []*Relay
	net    *netsim.Network
}

// Errors.
var (
	ErrTooFewRelays = errors.New("torsim: need at least 3 relays for a circuit")
	ErrBadCell      = errors.New("torsim: malformed cell")
	ErrCircuitDead  = errors.New("torsim: circuit exchange failed")
)

// BuildMesh creates n relays spread across the simulator's cities and
// registers them on the network.
func BuildMesh(n *netsim.Network, count int, seed uint64) (*Mesh, error) {
	if count < 3 {
		return nil, ErrTooFewRelays
	}
	rng := simrand.New(seed).Fork("torsim")
	blk := netsim.Block{
		Prefix: netip.MustParsePrefix("171.25.192.0/20"),
		ASN:    197422, Org: "Onion Overlay Sim",
	}
	alloc := netsim.NewAllocator(blk)
	cities := geo.Cities()
	mesh := &Mesh{net: n}
	for i := 0; i < count; i++ {
		city := cities[rng.Intn(len(cities))]
		addr, err := alloc.Next()
		if err != nil {
			return nil, err
		}
		host := netsim.NewHost(fmt.Sprintf("relay:%d:%s", i, city.Name), city, addr)
		host.Block = blk
		if err := n.AddHost(host); err != nil {
			return nil, err
		}
		relay := &Relay{
			Name: fmt.Sprintf("relay-%d", i),
			Host: host,
			key:  uint32(rng.Uint64()) | 1,
		}
		relay.install(n)
		mesh.Relays = append(mesh.Relays, relay)
	}
	return mesh, nil
}

// install wires the relay's cell handler.
func (r *Relay) install(n *netsim.Network) {
	r.Host.HandleUDP(RelayPort, func(src netip.Addr, srcPort uint16, payload []byte) []byte {
		return r.handleCell(n, payload)
	})
}

// handleCell unwraps one onion layer and forwards.
func (r *Relay) handleCell(n *netsim.Network, cell []byte) []byte {
	if len(cell) < 4+18 || string(cell[:4]) != cellMagic {
		return nil
	}
	body := make([]byte, len(cell)-4)
	copy(body, cell[4:])
	capture.Scramble(r.key, body)
	nextRaw := body[:16]
	plen := int(binary.BigEndian.Uint16(body[16:18]))
	if 18+plen > len(body) {
		return nil
	}
	payload := body[18 : 18+plen]

	next, _ := netip.AddrFromSlice(nextRaw)
	next = next.Unmap()
	var respPayload []byte
	if !next.IsValid() || next.IsUnspecified() {
		// Exit position: payload is a raw IP packet; rewrite its source
		// to the exit's own address and forward.
		buf := n.AcquireBuffer()
		defer n.ReleaseBuffer(buf)
		fwd := rewriteSrcInto(n, buf, payload, r.Addr())
		if fwd == nil {
			return nil
		}
		resp, err := n.Exchange(r.Host, fwd)
		if err != nil || resp == nil {
			return nil
		}
		respPayload = resp
	} else {
		// Forward the inner cell to the next relay.
		buf := n.AcquireBuffer()
		defer n.ReleaseBuffer(buf)
		pkt, err := n.BuildPacketInto(buf, r.Addr(), next,
			&capture.UDP{SrcPort: RelayPort, DstPort: RelayPort},
			capture.Payload(payload))
		if err != nil {
			return nil
		}
		resp, err := n.Exchange(r.Host, pkt)
		if err != nil || resp == nil {
			return nil
		}
		d := capture.AcquirePacketDecoder()
		defer d.Release()
		_ = d.Decode(resp, capture.TypeIPv4)
		u, ok := d.UDP()
		if !ok {
			return nil
		}
		respPayload = u.LayerPayload()
	}
	// Wrap the response in this hop's layer on the way back. respPayload
	// is (or aliases) the exchange response this relay owns, so the
	// scramble can run in place.
	capture.Scramble(r.key, respPayload)
	return respPayload
}

// rewriteSrcInto rebuilds a raw IP packet with a new source address,
// preserving transport and payload, serializing into buf (the result
// aliases buf). Only IPv4 exits are modeled.
func rewriteSrcInto(n *netsim.Network, buf *capture.SerializeBuffer, pkt []byte, src netip.Addr) []byte {
	p := capture.AcquirePacketDecoder()
	defer p.Release()
	_ = p.Decode(pkt, capture.TypeIPv4)
	_, dst, okAddr := p.Addrs()
	if !okAddr {
		return nil
	}
	var layers []capture.SerializableLayer
	switch {
	case p.Layer(capture.TypeTunnel) != nil:
		tun, _ := p.Tunnel()
		layers = []capture.SerializableLayer{
			&capture.Tunnel{SessionID: tun.SessionID},
			capture.Payload(tun.LayerPayload()),
		}
	case p.Layer(capture.TypeUDP) != nil:
		u, _ := p.UDP()
		layers = []capture.SerializableLayer{
			&capture.UDP{SrcPort: u.SrcPort, DstPort: u.DstPort},
			capture.Payload(u.LayerPayload()),
		}
	case p.Layer(capture.TypeTCP) != nil:
		t, _ := p.TCP()
		layers = []capture.SerializableLayer{
			&capture.TCP{SrcPort: t.SrcPort, DstPort: t.DstPort, Flags: t.Flags},
			capture.Payload(t.LayerPayload()),
		}
	case p.Layer(capture.TypeICMP) != nil:
		ic, _ := p.ICMP()
		layers = []capture.SerializableLayer{
			&capture.ICMP{TypeCode: ic.TypeCode, ID: ic.ID, Seq: ic.Seq},
			capture.Payload(ic.LayerPayload()),
		}
	default:
		return nil
	}
	out, err := n.BuildPacketInto(buf, src, dst, layers...)
	if err != nil {
		return nil
	}
	return out
}

// Circuit is a client's three-hop path through the mesh.
type Circuit struct {
	Guard, Middle, Exit *Relay
	// send carries a raw IP packet from the client (normally the
	// stack's physical interface).
	send func(pkt []byte) ([]byte, error)
	src  netip.Addr
	net  *netsim.Network
}

// NewCircuit selects three distinct relays deterministically from seed
// and binds the circuit to a client send function and source address.
func (m *Mesh) NewCircuit(seed uint64, src netip.Addr, send func([]byte) ([]byte, error)) (*Circuit, error) {
	if len(m.Relays) < 3 {
		return nil, ErrTooFewRelays
	}
	rng := simrand.New(seed).Fork("circuit")
	perm := rng.Perm(len(m.Relays))
	return &Circuit{
		Guard:  m.Relays[perm[0]],
		Middle: m.Relays[perm[1]],
		Exit:   m.Relays[perm[2]],
		send:   send,
		src:    src,
		net:    m.net,
	}, nil
}

// Endpoint returns the guard relay's address — the only machine the
// client ever talks to directly (satisfies vpn.Carrier).
func (c *Circuit) Endpoint() netip.Addr { return c.Guard.Addr() }

// wrap builds one onion layer: scramble(next | len | payload) with key.
func wrap(key uint32, next netip.Addr, payload []byte) []byte {
	body := make([]byte, 16+2+len(payload))
	if next.IsValid() {
		b16 := netip.AddrFrom16(next.As16()).As16()
		copy(body[:16], b16[:])
	}
	binary.BigEndian.PutUint16(body[16:18], uint16(len(payload)))
	copy(body[18:], payload)
	capture.Scramble(key, body)
	return append([]byte(cellMagic), body...)
}

// Send routes one raw IP packet through the circuit and returns the
// response packet as seen by the exit.
func (c *Circuit) Send(pkt []byte) ([]byte, error) {
	// Innermost layer: the exit forwards the raw packet.
	exitCell := wrap(c.Exit.key, netip.Addr{}, pkt)
	midCell := wrap(c.Middle.key, c.Exit.Addr(), exitCell)
	guardCell := wrap(c.Guard.key, c.Middle.Addr(), midCell)

	buf := c.net.AcquireBuffer()
	defer c.net.ReleaseBuffer(buf)
	out, err := c.net.BuildPacketInto(buf, c.src, c.Guard.Addr(),
		&capture.UDP{SrcPort: RelayPort, DstPort: RelayPort},
		capture.Payload(guardCell))
	if err != nil {
		return nil, err
	}
	resp, err := c.send(out)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCircuitDead, err)
	}
	if resp == nil {
		return nil, nil
	}
	p := capture.AcquirePacketDecoder()
	defer p.Release()
	_ = p.Decode(resp, capture.TypeIPv4)
	u, ok := p.UDP()
	if !ok {
		return nil, ErrBadCell
	}
	// Peel the response layers guard-out, in place: resp is owned by
	// this exchange and the body slice aliases it, not the decoder.
	body := u.LayerPayload()
	capture.Scramble(c.Guard.key, body)
	capture.Scramble(c.Middle.key, body)
	capture.Scramble(c.Exit.key, body)
	return body, nil
}
