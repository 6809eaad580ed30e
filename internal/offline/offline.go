// Package offline re-analyzes collected packet traces without any live
// network: the paper's workflow of capturing everything during a run
// and deriving verdicts from the traces afterwards (§5.3.4: "We
// subsequently analyze this traffic to detect non-VPN-traversing
// leakage..."). It consumes capture records — from a live Sink or a
// pcap file — and reproduces the DNS-leak, IPv6-leak, and
// unexpected-DNS (P2P) verdicts, plus flow-level summaries.
package offline

import (
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strings"

	"vpnscope/internal/capture"
	"vpnscope/internal/dnssim"
)

// FlowSummary aggregates one directed transport flow in a trace.
type FlowSummary struct {
	Src, Dst  netip.Addr
	Proto     string // "udp", "tcp", "icmp", "tunnel", "other"
	SrcPort   uint16
	DstPort   uint16
	Packets   int
	Bytes     int
	FirstSeen int // record index
}

// Findings is the outcome of offline trace analysis.
type Findings struct {
	// Records analyzed.
	Records int
	// TunnelPackets counts encapsulated frames (the protected path).
	TunnelPackets int
	// CleartextDNSQueries maps qname -> count for plain-text DNS
	// questions leaving the interface.
	CleartextDNSQueries map[string]int
	// IPv6Packets counts outbound cleartext IPv6 frames.
	IPv6Packets int
	// Flows summarizes every directed flow.
	Flows []FlowSummary
	// PeersContacted are the distinct remote addresses of outbound
	// traffic.
	PeersContacted []netip.Addr
}

// DNSLeak reports whether any cleartext DNS left the interface.
func (f *Findings) DNSLeak() bool { return len(f.CleartextDNSQueries) > 0 }

// IPv6Leak reports whether cleartext IPv6 left the interface.
func (f *Findings) IPv6Leak() bool { return f.IPv6Packets > 0 }

// UnexpectedDNS returns cleartext qnames outside the legit predicate —
// the §6.6 peer-exit signature. A nil predicate treats everything as
// unexpected.
func (f *Findings) UnexpectedDNS(legit func(string) bool) []string {
	var out []string
	for name := range f.CleartextDNSQueries {
		if legit == nil || !legit(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Analyze walks a trace (typically the physical interface's records)
// and derives the findings.
func Analyze(records []capture.Record) *Findings {
	f := &Findings{CleartextDNSQueries: map[string]int{}}
	flows := map[string]*FlowSummary{}
	peers := map[netip.Addr]bool{}

	for i, rec := range records {
		f.Records++
		first := capture.TypeIPv4
		if len(rec.Data) > 0 && rec.Data[0]>>4 == 6 {
			first = capture.TypeIPv6
		}
		p := capture.NewPacket(rec.Data, first, capture.Default)
		nl := p.NetworkLayer()
		if nl == nil {
			continue
		}
		src, _ := netip.AddrFromSlice(nl.NetworkFlow().Src())
		dst, _ := netip.AddrFromSlice(nl.NetworkFlow().Dst())

		fs := &FlowSummary{Src: src, Dst: dst, Proto: "other", FirstSeen: i}
		switch {
		case p.Layer(capture.TypeTunnel) != nil:
			fs.Proto = "tunnel"
			if rec.Dir == capture.DirOut {
				f.TunnelPackets++
			}
		case p.Layer(capture.TypeUDP) != nil:
			u := p.Layer(capture.TypeUDP).(*capture.UDP)
			fs.Proto = "udp"
			fs.SrcPort, fs.DstPort = u.SrcPort, u.DstPort
			if rec.Dir == capture.DirOut && u.DstPort == 53 {
				if msg, err := dnssim.Decode(u.LayerPayload()); err == nil &&
					!msg.Response && len(msg.Questions) > 0 {
					f.CleartextDNSQueries[msg.Questions[0].Name]++
				}
			}
		case p.Layer(capture.TypeTCP) != nil:
			t := p.Layer(capture.TypeTCP).(*capture.TCP)
			fs.Proto = "tcp"
			fs.SrcPort, fs.DstPort = t.SrcPort, t.DstPort
		case p.Layer(capture.TypeICMP) != nil:
			fs.Proto = "icmp"
		}
		if rec.Dir == capture.DirOut {
			if first == capture.TypeIPv6 && fs.Proto != "tunnel" {
				f.IPv6Packets++
			}
			peers[dst] = true
		}

		key := flowKey(fs)
		if existing, ok := flows[key]; ok {
			existing.Packets++
			existing.Bytes += len(rec.Data)
		} else {
			fs.Packets = 1
			fs.Bytes = len(rec.Data)
			flows[key] = fs
		}
	}
	for _, fs := range flows {
		f.Flows = append(f.Flows, *fs)
	}
	sort.Slice(f.Flows, func(i, j int) bool { return f.Flows[i].FirstSeen < f.Flows[j].FirstSeen })
	for peer := range peers {
		f.PeersContacted = append(f.PeersContacted, peer)
	}
	sort.Slice(f.PeersContacted, func(i, j int) bool {
		return f.PeersContacted[i].String() < f.PeersContacted[j].String()
	})
	return f
}

func flowKey(fs *FlowSummary) string {
	return fmt.Sprintf("%s|%s>%s|%d>%d", fs.Proto, fs.Src, fs.Dst, fs.SrcPort, fs.DstPort)
}

// AnalyzePcap reads a pcap stream (as written by capture.WritePcap or
// vpnaudit -pcap) and analyzes it. Direction metadata is not part of
// the pcap format, so the caller supplies the set of local addresses;
// packets sourced from them count as outbound.
func AnalyzePcap(r io.Reader, localAddrs []netip.Addr) (*Findings, error) {
	records, err := capture.ReadPcap(r)
	if err != nil {
		return nil, fmt.Errorf("offline: reading pcap: %w", err)
	}
	local := make(map[netip.Addr]bool, len(localAddrs))
	for _, a := range localAddrs {
		local[a] = true
	}
	for i := range records {
		src, _, err := peekAddrs(records[i].Data)
		if err != nil {
			continue
		}
		if local[src] {
			records[i].Dir = capture.DirOut
		} else {
			records[i].Dir = capture.DirIn
		}
	}
	return Analyze(records), nil
}

// peekAddrs extracts src/dst from a raw IP packet.
func peekAddrs(pkt []byte) (src, dst netip.Addr, err error) {
	switch {
	case len(pkt) >= 20 && pkt[0]>>4 == 4:
		s, _ := netip.AddrFromSlice(pkt[12:16])
		d, _ := netip.AddrFromSlice(pkt[16:20])
		return s, d, nil
	case len(pkt) >= 40 && pkt[0]>>4 == 6:
		s, _ := netip.AddrFromSlice(pkt[8:24])
		d, _ := netip.AddrFromSlice(pkt[24:40])
		return s, d, nil
	default:
		return netip.Addr{}, netip.Addr{}, fmt.Errorf("offline: not an IP packet")
	}
}

// Summary renders a short human-readable digest of the findings.
func (f *Findings) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d records, %d flows, %d tunnel frames\n", f.Records, len(f.Flows), f.TunnelPackets)
	fmt.Fprintf(&b, "cleartext DNS queries: %d distinct", len(f.CleartextDNSQueries))
	if f.DNSLeak() {
		b.WriteString(" (DNS LEAK)")
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "cleartext IPv6 frames: %d", f.IPv6Packets)
	if f.IPv6Leak() {
		b.WriteString(" (IPv6 LEAK)")
	}
	b.WriteByte('\n')
	return b.String()
}
