package vpn

import (
	"fmt"
	"net/netip"

	"vpnscope/internal/geo"
	"vpnscope/internal/netsim"
	"vpnscope/internal/tlssim"
)

// Builder constructs providers onto a network. It manages address
// allocation so that vantage points pinned to the same block (the Table
// 5 overlaps) genuinely share CIDRs, and so that two providers pinned to
// the same address (the Boxpn/Anonine finding) genuinely share a server.
type Builder struct {
	Net  *netsim.Network
	Env  *ServerEnv
	Seed uint64

	allocators map[string]*netsim.Allocator // keyed by prefix
	cityBlocks map[string]netsim.Block      // default hosting block per city
	demuxes    map[*netsim.Host]*tunnelDemux
	nextCityIP byte
}

// NewBuilder returns a builder over the given network and environment.
func NewBuilder(n *netsim.Network, env *ServerEnv, seed uint64) *Builder {
	return &Builder{
		Net:        n,
		Env:        env,
		Seed:       seed,
		allocators: make(map[string]*netsim.Allocator),
		cityBlocks: make(map[string]netsim.Block),
		demuxes:    make(map[*netsim.Host]*tunnelDemux),
	}
}

// hostingOrgs rotate as the default owners of per-city hosting blocks —
// the well-known providers the paper found VPN endpoints clustering in.
var hostingOrgs = []string{"Digital Ocean Sim", "LeaseWeb Sim", "SoftLayer Sim", "OVH Sim"}

// defaultBlock returns (creating on demand) the generic hosting block
// for a city. Distinct providers placing vantage points in the same city
// therefore share CIDRs organically, reproducing the "40 VPN services
// with vantage points in the same CIDR block" finding.
func (b *Builder) defaultBlock(city geo.City) netsim.Block {
	if blk, ok := b.cityBlocks[city.Name]; ok {
		return blk
	}
	idx := len(b.cityBlocks)
	// Synthesize a /22 per city inside 100.64.0.0/10 (CGNAT space —
	// guaranteed not to collide with the web or client ranges).
	prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 64 + byte(idx>>6), byte(idx<<2) & 0xFC, 0}), 22)
	blk := netsim.Block{
		Prefix:  prefix,
		ASN:     64600 + idx,
		Org:     hostingOrgs[idx%len(hostingOrgs)],
		Country: string(city.Country),
	}
	b.cityBlocks[city.Name] = blk
	return blk
}

func (b *Builder) allocatorFor(blk netsim.Block) *netsim.Allocator {
	key := blk.Prefix.String()
	if a, ok := b.allocators[key]; ok {
		return a
	}
	a := netsim.NewAllocator(blk)
	b.allocators[key] = a
	return a
}

// Build constructs the provider: hosts for every vantage point, tunnel
// terminators, and (for intercepting providers) a MITM CA.
func (b *Builder) Build(spec ProviderSpec) (*Provider, error) {
	p := &Provider{Spec: spec, env: b.Env}
	if spec.InterceptTLS {
		p.MITMCA = tlssim.NewCA(spec.Name+" Proxy CA", b.Seed)
	}
	for i, vps := range spec.VantagePoints {
		vp, err := b.buildVP(p, i, vps)
		if err != nil {
			return nil, fmt.Errorf("vpn: building %s vantage point %d: %w", spec.Name, i, err)
		}
		p.VPs = append(p.VPs, vp)
	}
	return p, nil
}

func (b *Builder) buildVP(p *Provider, index int, spec VantagePointSpec) (*VantagePoint, error) {
	city, ok := geo.CityByName(spec.ActualCity)
	if !ok {
		return nil, fmt.Errorf("unknown city %q", spec.ActualCity)
	}
	blk := b.defaultBlock(city)
	if spec.Block != nil {
		blk = *spec.Block
	}
	var addr netip.Addr
	if spec.Addr.IsValid() {
		if !blk.Prefix.Contains(spec.Addr) {
			return nil, fmt.Errorf("pinned address %v outside block %v", spec.Addr, blk.Prefix)
		}
		addr = spec.Addr
	} else {
		var err error
		addr, err = b.allocatorFor(blk).Next()
		if err != nil {
			return nil, err
		}
	}

	host := b.Net.HostByAddr(addr)
	if host == nil {
		host = netsim.NewHost(fmt.Sprintf("vp:%s#%d", p.Name(), index), city, addr)
		host.Block = blk
		host.Reliability = spec.Reliability
		if host.Reliability == 0 {
			host.Reliability = regionReliability(city.Country)
		}
		if p.Spec.SupportsIPv6 {
			host.Addr6 = vpV6For(addr)
		}
		if err := b.Net.AddHost(host); err != nil {
			return nil, err
		}
	}

	vp := &VantagePoint{
		Provider:       p,
		Index:          index,
		Spec:           spec,
		Host:           host,
		ClaimedCountry: spec.ClaimedCountry,
		ActualCity:     city,
		sessionKey:     sessionKeyFor(p.Name(), index),
	}
	vp.installDemuxed(b.demuxFor(host))
	return vp, nil
}

// regionReliability mirrors §5.2: North American and European vantage
// points connect dependably, others far less so.
func regionReliability(c geo.Country) float64 {
	switch c {
	case "US", "CA", "GB", "DE", "FR", "NL", "SE", "NO", "DK", "FI", "CH",
		"AT", "IT", "ES", "PT", "IE", "BE", "LU", "PL", "CZ", "SK", "HU",
		"RO", "BG", "GR", "EE", "LV", "LT", "IS", "RS", "UA", "MD":
		return 0.98
	default:
		return 0.85
	}
}

// sessionKeyFor derives the tunnel session key for one vantage point.
func sessionKeyFor(provider string, index int) uint32 {
	var h uint64 = 0xCBF29CE484222325
	for i := 0; i < len(provider); i++ {
		h ^= uint64(provider[i])
		h *= 0x100000001B3
	}
	h ^= uint64(index)
	h *= 0x100000001B3
	k := uint32(h ^ h>>32)
	if k == 0 {
		k = 1
	}
	return k
}

// vpV6For derives a vantage point's IPv6 egress address.
func vpV6For(a netip.Addr) netip.Addr {
	v4 := a.As4()
	return netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0, 0xee, 0, 0,
		0, 0, 0, 0, v4[0], v4[1], v4[2], v4[3]})
}

// tunnelDemux lets multiple vantage points (possibly belonging to
// different providers, as with shared servers) terminate tunnels on one
// host, dispatched by session key.
type tunnelDemux struct {
	vps map[uint32]*VantagePoint
	env *ServerEnv
}

func (b *Builder) demuxFor(host *netsim.Host) *tunnelDemux {
	if d, ok := b.demuxes[host]; ok {
		return d
	}
	d := &tunnelDemux{vps: make(map[uint32]*VantagePoint), env: b.Env}
	b.demuxes[host] = d
	host.HandleRaw(d.handle)
	return d
}

func (d *tunnelDemux) handle(n *netsim.Network, pkt []byte, emit func([]byte)) bool {
	key, ok := peekSessionKey(pkt)
	if !ok {
		// Not a tunnel frame — fall through to the host's port dispatch
		// (the same machine serves plain provider DNS on UDP 53).
		return false
	}
	vp := d.vps[key]
	if vp == nil {
		// A tunnel frame for an unknown session is consumed silently,
		// exactly as port dispatch would drop the proto-99 packet.
		return true
	}
	vp.serveTunnel(n, d.env, pkt, emit)
	return true
}

// peekSessionKey extracts the tunnel session id from a raw IPv4 packet
// without a full decode.
func peekSessionKey(pkt []byte) (uint32, bool) {
	// IPv4 header (20) + "VPN0" magic (4) + session id (4).
	if len(pkt) < 28 || pkt[0]>>4 != 4 || pkt[9] != 99 {
		return 0, false
	}
	if string(pkt[20:24]) != "VPN0" {
		return 0, false
	}
	return uint32(pkt[24])<<24 | uint32(pkt[25])<<16 | uint32(pkt[26])<<8 | uint32(pkt[27]), true
}
