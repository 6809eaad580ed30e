package vpn

import (
	"net/netip"

	"vpnscope/internal/capture"
	"vpnscope/internal/dnssim"
	"vpnscope/internal/netsim"
	"vpnscope/internal/tlssim"
	"vpnscope/internal/websim"
)

// ServerEnv supplies the world context a vantage point needs to forward
// traffic: the DNS directory (for its resolver) and the web (to
// classify hosts for censorship). It also holds the caches and scratch
// every tunnel terminator in the world shares, so none keeps its own
// alive after its slot: Names, the DNS name interner every resolver in
// the world decodes through; DNSScratch, the serving scratch every
// resolver in the world answers in; the tunnel keystream, which both
// ends of every tunnel scramble with; and the terminators' serving
// scratch. All are held by value and ready at their zero values, and
// the world's one goroutine drives everything that touches them.
type ServerEnv struct {
	Dir   *dnssim.Directory
	Web   *websim.Web
	Names dnssim.Interner
	// DNSScratch is the one dnssim.ServeScratch of the world's
	// resolvers: each answer is built into a reply packet before the
	// next query, so one scratch serves them all.
	DNSScratch dnssim.ServeScratch

	// ks is the tunnel keystream; a call under another session key
	// re-keys it, so sharing it cannot change a byte.
	ks capture.Keystream

	// ls backs the layer headers the tunnel terminators build. The
	// world's single goroutine serves one packet at a time, and every
	// build serializes before the next scratch use, so one scratch
	// suffices even for nested forwards.
	ls capture.LayerScratch
	// helloBuf/mitmBuf are the TLS-interception frame scratch buffers
	// (same single-goroutine, serialize-before-reuse contract as ls).
	helloBuf []byte
	mitmBuf  []byte
	// regen is the transparent proxy's rewrite scratch (same contract).
	regen websim.HeaderRegenerator
}

// installDemuxed builds the vantage point's tunnel-internal resolver
// and registers it with the host's session demultiplexer.
func (vp *VantagePoint) installDemuxed(d *tunnelDemux) {
	resolver := &dnssim.Resolver{
		Name:    vp.Provider.Name() + "-dns",
		Addr:    vp.Addr(),
		Dir:     d.env.Dir,
		Names:   &d.env.Names,
		Scratch: &d.env.DNSScratch,
	}
	if vp.Provider.Spec.ManipulateDNS && len(vp.Provider.Spec.ManipulatedDomains) > 0 {
		hijacked := make(map[string]bool)
		for _, dom := range vp.Provider.Spec.ManipulatedDomains {
			hijacked[dom] = true
		}
		// Hijacked answers point into the provider's own block so a
		// WHOIS lookup attributes them to the provider (the paper's
		// manual verification step).
		target := vp.Addr()
		resolver.Manipulate = func(name string, qtype uint16, addrs []netip.Addr) []netip.Addr {
			if qtype == dnssim.TypeA && hijacked[name] {
				return []netip.Addr{target}
			}
			return addrs
		}
	}
	vp.resolver = resolver
	d.vps[vp.sessionKey] = vp
}

// serveTunnel terminates one encapsulated packet: unscramble, apply
// provider behaviors, forward from the egress address, and emit the
// wrapped response back toward the client.
func (vp *VantagePoint) serveTunnel(n *netsim.Network, env *ServerEnv, pkt []byte, emit func([]byte)) {
	resolver := vp.resolver
	var outer capture.PacketView
	if capture.ParseView(pkt, &outer) != nil || outer.Transport != capture.TypeTunnel {
		return // not tunnel traffic
	}
	if outer.Session != vp.sessionKey {
		return // unknown session
	}
	clientAddr := outer.Src
	if vp.flows == nil {
		vp.flows = new(relayFlows)
	}

	// The decapsulated inner packet lives only for this delivery — a
	// slot-arena copy when the world has one installed.
	inner := n.SlotArena().Bytes(len(outer.Payload))
	env.ks.XORInto(vp.sessionKey, inner, outer.Payload)

	respInner := vp.serveInner(n, env, resolver, inner)
	if respInner == nil {
		return
	}
	env.ks.XOR(vp.sessionKey, respInner)
	env.ls.Tunnel = capture.Tunnel{SessionID: vp.sessionKey}
	n.Resolve(&vp.flows.wrap, nil, vp.Addr(), clientAddr)
	wrapped, err := vp.flows.wrap.Build(env.ls.Pair(&env.ls.Tunnel, respInner)...)
	if err != nil {
		return
	}
	emit(wrapped)
}

// serveInner processes one decapsulated client packet and returns the
// raw inner response packet (addressed back to the tunnel-internal
// client), or nil.
func (vp *VantagePoint) serveInner(n *netsim.Network, env *ServerEnv, resolver *dnssim.Resolver, inner []byte) []byte {
	var v capture.PacketView
	if capture.ParseView(inner, &v) != nil || !v.HasNet {
		return nil
	}
	src, dst := v.Src, v.Dst

	// IPv6 through a tunnel the provider cannot carry is dropped.
	if dst.Is6() && !vp.Provider.Spec.SupportsIPv6 {
		return nil
	}
	egress := vp.Addr()
	if dst.Is6() {
		if !vp.Host.HasIPv6() {
			return nil
		}
		egress = vp.Host.Addr6
	}

	// Tunnel-internal DNS service.
	if dst == TunnelInternalDNS {
		if v.Transport == capture.TypeUDP && v.DstPort == 53 {
			answer := resolver.HandleQuery(v.Payload)
			if answer == nil {
				return nil
			}
			env.ls.UDP = capture.UDP{SrcPort: 53, DstPort: v.SrcPort}
			n.Resolve(&vp.flows.reply, nil, TunnelInternalDNS, src)
			resp, err := vp.flows.reply.Build(env.ls.Pair(&env.ls.UDP, answer)...)
			if err != nil {
				return nil
			}
			return resp
		}
		return nil
	}

	switch v.Transport {
	// ICMP: forward the echo from the egress. The vantage point acts
	// as a router: it decrements the inner TTL, answers Time Exceeded
	// as the tunnel gateway when the TTL dies here, and preserves the
	// responder's address so traceroute through the tunnel shows the
	// hops beyond the vantage point.
	case capture.TypeICMP:
		ttl := v.TTL
		if ttl <= 1 {
			env.ls.ICMP = capture.ICMP{TypeCode: capture.ICMPTimeExceeded}
			n.Resolve(&vp.flows.reply, nil, TunnelInternalDNS, src)
			out, err := vp.flows.reply.Build(env.ls.One(&env.ls.ICMP)...)
			if err != nil {
				return nil
			}
			return out
		}
		buf := n.AcquireBuffer()
		defer n.ReleaseBuffer(buf)
		env.ls.ICMP = capture.ICMP{TypeCode: v.ICMPType, ID: v.ICMPID, Seq: v.ICMPSeq}
		n.Resolve(&vp.flows.fwd, vp.Host, egress, dst)
		fwd, err := vp.flows.fwd.BuildInto(buf, ttl-1, env.ls.Pair(&env.ls.ICMP, v.Payload)...)
		if err != nil {
			return nil
		}
		resp, err := vp.flows.fwd.Exchange(fwd)
		if err != nil || resp == nil {
			return nil
		}
		var rv capture.PacketView
		if capture.ParseView(resp, &rv) != nil || rv.Transport != capture.TypeICMP {
			return nil
		}
		// Relay the response from whoever actually sent it — the
		// destination for echo replies, a mid-path router for Time
		// Exceeded.
		responder := dst
		if rv.Src.IsValid() {
			responder = rv.Src
		}
		env.ls.ICMP = capture.ICMP{TypeCode: rv.ICMPType, ID: rv.ICMPID, Seq: rv.ICMPSeq}
		n.ResolveRelay(&vp.flows.reply, &vp.flows.fwd, responder, src)
		out, err := vp.flows.reply.Build(env.ls.Pair(&env.ls.ICMP, rv.Payload)...)
		if err != nil {
			return nil
		}
		return out

	case capture.TypeUDP:
		return vp.forwardUDP(n, env, egress, src, dst, v.SrcPort, v.DstPort, v.Payload)
	case capture.TypeTCP:
		return vp.forwardTCP(n, env, egress, src, dst, v.SrcPort, v.DstPort, v.Payload)
	}
	return nil
}

func (vp *VantagePoint) forwardUDP(n *netsim.Network, env *ServerEnv, egress, src, dst netip.Addr, srcPort, dstPort uint16, payload []byte) []byte {
	buf := n.AcquireBuffer()
	defer n.ReleaseBuffer(buf)
	env.ls.UDP = capture.UDP{SrcPort: srcPort, DstPort: dstPort}
	n.Resolve(&vp.flows.fwd, vp.Host, egress, dst)
	fwd, err := vp.flows.fwd.BuildInto(buf, 64, env.ls.Pair(&env.ls.UDP, payload)...)
	if err != nil {
		return nil
	}
	resp, err := vp.flows.fwd.Exchange(fwd)
	if err != nil || resp == nil {
		return nil
	}
	var rv capture.PacketView
	if capture.ParseView(resp, &rv) != nil || rv.Transport != capture.TypeUDP {
		return nil
	}
	env.ls.UDP = capture.UDP{SrcPort: rv.SrcPort, DstPort: rv.DstPort}
	n.ResolveRelay(&vp.flows.reply, &vp.flows.fwd, dst, src)
	out, err := vp.flows.reply.Build(env.ls.Pair(&env.ls.UDP, rv.Payload)...)
	if err != nil {
		return nil
	}
	return out
}

func (vp *VantagePoint) forwardTCP(n *netsim.Network, env *ServerEnv, egress, src, dst netip.Addr, srcPort, dstPort uint16, payload []byte) []byte {
	spec := &vp.Provider.Spec

	// National censorship applies where the machine physically sits —
	// this is exactly why redirections appeared "only on endpoints
	// claiming to be in their respective countries" (§6.1.1): those
	// endpoints really were there.
	if dstPort == 80 && env.Web != nil {
		if policy := websim.PolicyFor(vp.ActualCity.Country); policy != nil {
			if host, ok := websim.RequestHost(payload); ok {
				if resp, blocked := policy.Apply(vp.Host.Block.Org, host, env.Web.SiteByName); blocked {
					return vp.buildTCPResponse(n, env, dst, src, srcPort, dstPort, resp.Encode())
				}
			}
		}
	}

	// Transparent proxy: parse and regenerate HTTP request headers.
	if dstPort == 80 && spec.TransparentProxy {
		payload = env.regen.Regenerate(payload)
	}

	// TLS interception: terminate the client's hello, fetch upstream,
	// re-sign with the provider CA.
	if dstPort == 443 && spec.InterceptTLS && vp.Provider.MITMCA != nil {
		if sni, innerReq, err := tlssim.ParseClientHello(payload); err == nil {
			env.helloBuf = tlssim.AppendClientHello(env.helloBuf[:0], sni, innerReq)
			upstream := vp.exchangeTCP(n, env, egress, dst, srcPort, dstPort, env.helloBuf)
			if upstream == nil {
				return nil
			}
			_, serverInner, err := tlssim.ParseServerHello(upstream)
			if err != nil {
				return nil
			}
			mitm, err := tlssim.AppendServerHello(env.mitmBuf[:0], vp.Provider.MITMCA.Issue(sni), serverInner)
			if err != nil {
				return nil
			}
			env.mitmBuf = mitm
			return vp.buildTCPResponse(n, env, dst, src, srcPort, dstPort, mitm)
		}
	}

	respPayload := vp.exchangeTCP(n, env, egress, dst, srcPort, dstPort, payload)
	if respPayload == nil {
		return nil
	}

	// Content injection on HTTP responses.
	if dstPort == 80 && spec.InjectContent {
		respPayload = websim.InjectOverlay(respPayload, vp.Provider.Spec.Domain)
	}
	return vp.buildTCPResponse(n, env, dst, src, srcPort, dstPort, respPayload)
}

// exchangeTCP forwards a TCP request payload from the egress address and
// returns the response payload.
func (vp *VantagePoint) exchangeTCP(n *netsim.Network, env *ServerEnv, egress, dst netip.Addr, srcPort, dstPort uint16, payload []byte) []byte {
	buf := n.AcquireBuffer()
	defer n.ReleaseBuffer(buf)
	env.ls.TCP = capture.TCP{SrcPort: srcPort, DstPort: dstPort, Flags: capture.FlagACK | capture.FlagPSH}
	n.Resolve(&vp.flows.fwd, vp.Host, egress, dst)
	fwd, err := vp.flows.fwd.BuildInto(buf, 64, env.ls.Pair(&env.ls.TCP, payload)...)
	if err != nil {
		return nil
	}
	resp, err := vp.flows.fwd.Exchange(fwd)
	if err != nil || resp == nil {
		return nil
	}
	var rv capture.PacketView
	if capture.ParseView(resp, &rv) != nil || rv.Transport != capture.TypeTCP {
		return nil
	}
	// The returned payload aliases resp (owned by this exchange), so it
	// stays valid for the caller.
	return rv.Payload
}

// buildTCPResponse builds the inner response packet back to the client
// (slot-arena owned, like every packet on the delivery path). Ports are
// the client's original request ports; the reply swaps them.
func (vp *VantagePoint) buildTCPResponse(n *netsim.Network, env *ServerEnv, fromDst, toSrc netip.Addr, reqSrcPort, reqDstPort uint16, payload []byte) []byte {
	env.ls.TCP = capture.TCP{SrcPort: reqDstPort, DstPort: reqSrcPort, Flags: capture.FlagACK | capture.FlagPSH}
	n.ResolveRelay(&vp.flows.reply, &vp.flows.fwd, fromDst, toSrc)
	out, err := vp.flows.reply.Build(env.ls.Pair(&env.ls.TCP, payload)...)
	if err != nil {
		return nil
	}
	return out
}
