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
// traffic: the DNS directory (for its resolver), the web (to classify
// hosts for censorship), and the trusted CA whose leaves an intercepting
// provider swaps out.
type ServerEnv struct {
	Dir *dnssim.Directory
	Web *websim.Web
}

// installDemuxed builds the vantage point's tunnel-internal resolver
// and registers it with the host's session demultiplexer.
func (vp *VantagePoint) installDemuxed(d *tunnelDemux) {
	resolver := &dnssim.Resolver{
		Name: vp.Provider.Name() + "-dns",
		Addr: vp.Addr(),
		Dir:  d.env.Dir,
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
	d.mu.Lock()
	d.vps[vp.sessionKey] = vp
	d.mu.Unlock()
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

	// The decapsulated inner packet lives only for this delivery — a
	// slot-arena copy when the world has one installed.
	inner := n.SlotArena().Copy(outer.Payload)
	vp.ks.XOR(vp.sessionKey, inner)

	respInner := vp.serveInner(n, env, resolver, inner)
	if respInner == nil {
		return
	}
	vp.ks.XOR(vp.sessionKey, respInner)
	vp.ls.Tunnel = capture.Tunnel{SessionID: vp.sessionKey}
	wrapped, err := n.BuildPacket(vp.Addr(), clientAddr,
		vp.ls.Pair(&vp.ls.Tunnel, respInner)...)
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
			vp.ls.UDP = capture.UDP{SrcPort: 53, DstPort: v.SrcPort}
			resp, err := n.BuildPacket(TunnelInternalDNS, src,
				vp.ls.Pair(&vp.ls.UDP, answer)...)
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
			vp.ls.ICMP = capture.ICMP{TypeCode: capture.ICMPTimeExceeded}
			out, err := n.BuildPacket(TunnelInternalDNS, src,
				vp.ls.One(&vp.ls.ICMP)...)
			if err != nil {
				return nil
			}
			return out
		}
		buf := n.AcquireBuffer()
		defer n.ReleaseBuffer(buf)
		vp.ls.ICMP = capture.ICMP{TypeCode: v.ICMPType, ID: v.ICMPID, Seq: v.ICMPSeq}
		fwd, err := n.BuildPacketTTLInto(buf, ttl-1, egress, dst,
			vp.ls.Pair(&vp.ls.ICMP, v.Payload)...)
		if err != nil {
			return nil
		}
		resp, err := n.Exchange(vp.Host, fwd)
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
		vp.ls.ICMP = capture.ICMP{TypeCode: rv.ICMPType, ID: rv.ICMPID, Seq: rv.ICMPSeq}
		out, err := n.BuildPacket(responder, src,
			vp.ls.Pair(&vp.ls.ICMP, rv.Payload)...)
		if err != nil {
			return nil
		}
		return out

	case capture.TypeUDP:
		return vp.forwardUDP(n, egress, src, dst, v.SrcPort, v.DstPort, v.Payload)
	case capture.TypeTCP:
		return vp.forwardTCP(n, env, egress, src, dst, v.SrcPort, v.DstPort, v.Payload)
	}
	return nil
}

func (vp *VantagePoint) forwardUDP(n *netsim.Network, egress, src, dst netip.Addr, srcPort, dstPort uint16, payload []byte) []byte {
	buf := n.AcquireBuffer()
	defer n.ReleaseBuffer(buf)
	vp.ls.UDP = capture.UDP{SrcPort: srcPort, DstPort: dstPort}
	fwd, err := n.BuildPacketInto(buf, egress, dst,
		vp.ls.Pair(&vp.ls.UDP, payload)...)
	if err != nil {
		return nil
	}
	resp, err := n.Exchange(vp.Host, fwd)
	if err != nil || resp == nil {
		return nil
	}
	var rv capture.PacketView
	if capture.ParseView(resp, &rv) != nil || rv.Transport != capture.TypeUDP {
		return nil
	}
	vp.ls.UDP = capture.UDP{SrcPort: rv.SrcPort, DstPort: rv.DstPort}
	out, err := n.BuildPacket(dst, src,
		vp.ls.Pair(&vp.ls.UDP, rv.Payload)...)
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
	if dstPort == 80 && env != nil && env.Web != nil {
		if policy := websim.PolicyFor(vp.ActualCity.Country); policy != nil {
			if host, ok := websim.RequestHost(payload); ok {
				if resp, blocked := policy.Apply(vp.Host.Block.Org, host, env.Web.SiteByName); blocked {
					return vp.buildTCPResponse(n, dst, src, srcPort, dstPort, resp.Encode())
				}
			}
		}
	}

	// Transparent proxy: parse and regenerate HTTP request headers.
	if dstPort == 80 && spec.TransparentProxy {
		payload = vp.regen.Regenerate(payload)
	}

	// TLS interception: terminate the client's hello, fetch upstream,
	// re-sign with the provider CA.
	if dstPort == 443 && spec.InterceptTLS && vp.Provider.MITMCA != nil {
		if sni, innerReq, err := tlssim.ParseClientHello(payload); err == nil {
			vp.helloBuf = tlssim.AppendClientHello(vp.helloBuf[:0], sni, innerReq)
			upstream := vp.exchangeTCP(n, egress, dst, srcPort, dstPort, vp.helloBuf)
			if upstream == nil {
				return nil
			}
			_, serverInner, err := tlssim.ParseServerHello(upstream)
			if err != nil {
				return nil
			}
			mitm, err := tlssim.AppendServerHello(vp.mitmBuf[:0], vp.Provider.MITMCA.Issue(sni), serverInner)
			if err != nil {
				return nil
			}
			vp.mitmBuf = mitm
			return vp.buildTCPResponse(n, dst, src, srcPort, dstPort, mitm)
		}
	}

	respPayload := vp.exchangeTCP(n, egress, dst, srcPort, dstPort, payload)
	if respPayload == nil {
		return nil
	}

	// Content injection on HTTP responses.
	if dstPort == 80 && spec.InjectContent {
		respPayload = websim.InjectOverlay(respPayload, vp.Provider.Spec.Domain)
	}
	return vp.buildTCPResponse(n, dst, src, srcPort, dstPort, respPayload)
}

// exchangeTCP forwards a TCP request payload from the egress address and
// returns the response payload.
func (vp *VantagePoint) exchangeTCP(n *netsim.Network, egress, dst netip.Addr, srcPort, dstPort uint16, payload []byte) []byte {
	buf := n.AcquireBuffer()
	defer n.ReleaseBuffer(buf)
	vp.ls.TCP = capture.TCP{SrcPort: srcPort, DstPort: dstPort, Flags: capture.FlagACK | capture.FlagPSH}
	fwd, err := n.BuildPacketInto(buf, egress, dst,
		vp.ls.Pair(&vp.ls.TCP, payload)...)
	if err != nil {
		return nil
	}
	resp, err := n.Exchange(vp.Host, fwd)
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
func (vp *VantagePoint) buildTCPResponse(n *netsim.Network, fromDst, toSrc netip.Addr, reqSrcPort, reqDstPort uint16, payload []byte) []byte {
	vp.ls.TCP = capture.TCP{SrcPort: reqDstPort, DstPort: reqSrcPort, Flags: capture.FlagACK | capture.FlagPSH}
	out, err := n.BuildPacket(fromDst, toSrc,
		vp.ls.Pair(&vp.ls.TCP, payload)...)
	if err != nil {
		return nil
	}
	return out
}
