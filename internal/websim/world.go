package websim

import (
	"fmt"
	"net/netip"
	"strings"

	"vpnscope/internal/dnssim"
	"vpnscope/internal/geo"
	"vpnscope/internal/netsim"
	"vpnscope/internal/simrand"
	"vpnscope/internal/tlssim"
)

// Web is the assembled simulated web the measurement suite works
// against: the 55 DOM-test sites (§5.3.1) including two honeysites, the
// ~150 additional TLS-test hosts, and the header-echo service.
type Web struct {
	Sites       []*Site // every site, DOM-test and TLS-extra
	DOMSites    []*Site // the 55 sites the DOM-collection test loads
	TLSSites    []*Site // the 200+ hosts the TLS test probes
	Echo        *EchoService
	IPEcho      *IPEchoService
	WebRTCProbe *WebRTCProbeService

	byName    map[string]*Site
	vpnRanges []netip.Prefix
}

// SiteByName resolves a hostname to its simulated site (nil if unknown).
func (w *Web) SiteByName(name string) *Site {
	return w.byName[name]
}

// SetVPNRanges installs the address ranges that VPN-hostile sites
// blanket-block with HTTP 403 (the §6.1.2 behavior of services that
// discriminate against known VPN egress blocks).
func (w *Web) SetVPNRanges(prefixes []netip.Prefix) {
	w.vpnRanges = append([]netip.Prefix(nil), prefixes...)
}

func (w *Web) isVPNAddr(a netip.Addr) bool {
	for _, p := range w.vpnRanges {
		if p.Contains(a) {
			return true
		}
	}
	return false
}

// domSiteSpecs is the 55-site corpus (53 content sites + 2 honeysites)
// mirroring the paper's category mix: sites that do not upgrade to
// HTTPS, spanning sensitive categories.
var domSiteSpecs = []struct {
	host string
	cat  Category
}{
	{"honeysite-ads.example", CatHoneysite},
	{"honeysite-static.example", CatHoneysite},
	{"daily-news.example", CatNews},
	{"world-report.example", CatNews},
	{"metro-times.example", CatNews},
	{"evening-post.example", CatNews},
	{"wire-briefs.example", CatNews},
	{"free-press.example", CatNews},
	{"city-herald.example", CatNews},
	{"opposition-voice.example", CatPolitics},
	{"policy-watch.example", CatPolitics},
	{"election-monitor.example", CatPolitics},
	{"rights-forum.example", CatPolitics},
	{"dissident-blog.example", CatPolitics},
	{"protest-net.example", CatPolitics},
	{"adult-video.example", CatPorn},
	{"cam-site.example", CatPorn},
	{"adult-tube.example", CatPorn},
	{"red-lounge.example", CatPorn},
	{"late-night.example", CatPorn},
	{"ministry-info.example", CatGovernment},
	{"city-services.example", CatGovernment},
	{"tax-portal.example", CatGovernment},
	{"visa-office.example", CatGovernment},
	{"public-records.example", CatGovernment},
	{"defense-systems.example", CatDefense},
	{"aero-contractor.example", CatDefense},
	{"naval-works.example", CatDefense},
	{"radar-tech.example", CatDefense},
	{"torrent-bay.example", CatFileShare},
	{"seed-box.example", CatFileShare},
	{"file-locker.example", CatFileShare},
	{"share-hub.example", CatFileShare},
	{"magnet-index.example", CatFileShare},
	{"wikipedia.example", CatUtility},
	{"jw-org.example", CatUtility},
	{"linkedin.example", CatSocial},
	{"buddy-net.example", CatSocial},
	{"photo-wall.example", CatSocial},
	{"micro-blog.example", CatSocial},
	{"chat-rooms.example", CatSocial},
	{"mega-mart.example", CatShopping},
	{"deal-finder.example", CatShopping},
	{"auction-house.example", CatShopping},
	{"coupon-clip.example", CatShopping},
	{"price-compare.example", CatShopping},
	{"weather-now.example", CatUtility},
	{"unit-convert.example", CatUtility},
	{"time-zones.example", CatUtility},
	{"dictionary.example", CatUtility},
	{"recipe-box.example", CatUtility},
	{"map-quest.example", CatUtility},
	{"sports-wire.example", CatNews},
	{"finance-daily.example", CatNews},
	{"tech-review.example", CatNews},
}

// hostingBlocks are the content-hosting networks sites live in.
var hostingBlocks = []struct {
	block netsim.Block
	city  string
}{
	{netsim.Block{Prefix: netip.MustParsePrefix("23.32.0.0/20"), ASN: 20940, Org: "EdgeHost CDN", Country: "US"}, "New York"},
	{netsim.Block{Prefix: netip.MustParsePrefix("146.75.0.0/20"), ASN: 54113, Org: "FastServe CDN", Country: "DE"}, "Frankfurt"},
	{netsim.Block{Prefix: netip.MustParsePrefix("151.101.0.0/20"), ASN: 54113, Org: "FastServe CDN", Country: "US"}, "San Jose"},
	{netsim.Block{Prefix: netip.MustParsePrefix("103.244.50.0/24"), ASN: 133752, Org: "AsiaEdge Hosting", Country: "SG"}, "Singapore"},
}

// EchoHostName, IPEchoHostName, and WebRTCProbeHostName are where the
// header-echo, what-is-my-IP, and WebRTC-leak services live.
const (
	EchoHostName        = "echo.vpnscope.test"
	IPEchoHostName      = "whoami.vpnscope.test"
	WebRTCProbeHostName = "rtcprobe.vpnscope.test"
)

// BuildWeb constructs the whole simulated web on the network, registers
// every hostname in the DNS directory, and issues certificates from ca.
// extraTLS is the number of additional TLS-only probe hosts (the paper
// used "more than 150"); a handful of them are VPN-hostile.
func BuildWeb(n *netsim.Network, dir *dnssim.Directory, ca *tlssim.CA, seed uint64, extraTLS int) (*Web, error) {
	rng := simrand.New(seed).Fork("websim")
	w := &Web{byName: make(map[string]*Site)}

	allocators := make([]*netsim.Allocator, len(hostingBlocks))
	cities := make([]geo.City, len(hostingBlocks))
	for i, hb := range hostingBlocks {
		allocators[i] = netsim.NewAllocator(hb.block)
		city, ok := geo.CityByName(hb.city)
		if !ok {
			return nil, fmt.Errorf("websim: unknown hosting city %q", hb.city)
		}
		cities[i] = city
	}

	install := func(site *Site, hostIdx int) error {
		alloc, city := allocators[hostIdx], cities[hostIdx]
		addr, err := alloc.Next()
		if err != nil {
			return err
		}
		host := netsim.NewHost("web:"+site.HostName, city, addr)
		host.Block = alloc.Block()
		// Give every site an IPv6 address so IPv6-leak probes have
		// real destinations.
		host.Addr6 = v6For(addr)
		if err := n.AddHost(host); err != nil {
			return err
		}
		site.Cert = ca.Issue(site.HostName)
		site.Install(host)
		w.byName[site.HostName] = site
		w.Sites = append(w.Sites, site)
		dir.Register(site.HostName, addr, host.Addr6)
		return nil
	}

	// DOM-test corpus: plain-HTTP sites with two subresources each.
	for i, spec := range domSiteSpecs {
		site := &Site{
			HostName:       spec.host,
			Category:       spec.cat,
			NoHTTPSUpgrade: true,
			AdSlots:        spec.host == "honeysite-ads.example",
			Resources: []string{
				fmt.Sprintf("http://%s/static/app.js", spec.host),
				fmt.Sprintf("http://%s/static/base.js", spec.host),
			},
		}
		if err := install(site, i%len(allocators)); err != nil {
			return nil, err
		}
		w.DOMSites = append(w.DOMSites, site)
		w.TLSSites = append(w.TLSSites, site)
	}

	// Extra TLS-test hosts; roughly 5% are VPN-hostile (they 403 known
	// VPN ranges over both HTTP and HTTPS).
	for i := 0; i < extraTLS; i++ {
		site := &Site{
			HostName: fmt.Sprintf("tls-host-%03d.example", i),
			Category: CatUtility,
		}
		hostile := rng.Bool(0.05)
		if err := install(site, rng.Intn(len(allocators))); err != nil {
			return nil, err
		}
		if hostile {
			w.installHostility(site)
		}
		w.TLSSites = append(w.TLSSites, site)
	}

	// Censorship block pages: every destination in the national
	// policies is a real, resolvable host serving a static notice (the
	// TTK page in Figure 6, warning.or.kr, etc.).
	if err := buildBlockPages(n, dir); err != nil {
		return nil, err
	}

	// Header-echo service.
	echoAddr := allocators[0].MustNext()
	echoHost := netsim.NewHost("web:"+EchoHostName, cities[0], echoAddr)
	echoHost.Block = allocators[0].Block()
	if err := n.AddHost(echoHost); err != nil {
		return nil, err
	}
	w.Echo = &EchoService{HostName: EchoHostName}
	w.Echo.Install(echoHost)
	dir.Register(EchoHostName, echoAddr)

	// What-is-my-IP service.
	ipAddr := allocators[0].MustNext()
	ipHost := netsim.NewHost("web:"+IPEchoHostName, cities[0], ipAddr)
	ipHost.Block = allocators[0].Block()
	if err := n.AddHost(ipHost); err != nil {
		return nil, err
	}
	w.IPEcho = &IPEchoService{HostName: IPEchoHostName}
	w.IPEcho.Install(ipHost)
	dir.Register(IPEchoHostName, ipAddr)

	// WebRTC leak-test page.
	rtcAddr := allocators[0].MustNext()
	rtcHost := netsim.NewHost("web:"+WebRTCProbeHostName, cities[0], rtcAddr)
	rtcHost.Block = allocators[0].Block()
	if err := n.AddHost(rtcHost); err != nil {
		return nil, err
	}
	w.WebRTCProbe = &WebRTCProbeService{HostName: WebRTCProbeHostName}
	w.WebRTCProbe.Install(rtcHost)
	dir.Register(WebRTCProbeHostName, rtcAddr)

	return w, nil
}

// forbiddenWire is the encoded bare-403 every hostile handler returns;
// never mutated (netsim copies handler payloads before reuse).
var forbiddenWire = Forbidden().Encode()

// installHostility rewraps a site's handlers so requests from known VPN
// ranges receive a bare 403 (HTTP) or a certificate-then-403 (HTTPS).
func (w *Web) installHostility(site *Site) {
	host := site.Host
	host.HandleTCP(80, func(src netip.Addr, _ uint16, payload []byte) []byte {
		if w.isVPNAddr(src) {
			return forbiddenWire
		}
		if err := ParseRequestInto(&site.req, payload); err != nil {
			return (&Response{Status: 400}).Encode()
		}
		return site.upgradeRedirect(site.req.Path)
	})
	host.HandleTCP(443, func(src netip.Addr, _ uint16, payload []byte) []byte {
		inner, err := tlssim.ClientHelloInner(payload)
		if err != nil {
			return nil
		}
		if w.isVPNAddr(src) {
			return site.tlsFrame(forbiddenWire)
		}
		if err := ParseRequestInto(&site.req, inner); err != nil {
			return site.tlsFrame((&Response{Status: 400}).Encode())
		}
		return site.tlsFrame(site.encode(site.serve(&site.req)))
	})
}

// blockPageBlock hosts every national block page.
var blockPageBlock = netsim.Block{
	Prefix: netip.MustParsePrefix("185.40.16.0/22"), ASN: 8359, Org: "National ISP Sim",
}

// buildBlockPages creates a host for every censorship redirect
// destination across all national policies, serving a static notice.
func buildBlockPages(n *netsim.Network, dir *dnssim.Directory) error {
	alloc := netsim.NewAllocator(blockPageBlock)
	seen := map[string]bool{}
	for _, country := range []geo.Country{"TR", "KR", "RU", "NL", "TH"} {
		policy := PolicyFor(country)
		if policy == nil {
			continue
		}
		cities := geo.CitiesIn(country)
		if len(cities) == 0 {
			continue
		}
		city := cities[0]
		for _, dest := range policy.Destinations {
			hostname, scheme := hostOfURL(dest)
			if hostname == "" || seen[hostname] {
				continue
			}
			seen[hostname] = true
			var addr netip.Addr
			if ip, err := netip.ParseAddr(hostname); err == nil {
				addr = ip // IP-literal destination: host lives at that address
			} else {
				var aerr error
				addr, aerr = alloc.Next()
				if aerr != nil {
					return aerr
				}
				dir.Register(hostname, addr)
			}
			host := netsim.NewHost("blockpage:"+hostname, city, addr)
			host.Block = blockPageBlock
			if err := n.AddHost(host); err != nil {
				return err
			}
			notice := &Response{
				Status:  200,
				Headers: []Header{{"Content-Type", "text/html"}},
				Body:    []byte("<html><body><h1>Access to this resource is restricted by national regulation.</h1></body></html>"),
			}
			// The notice never changes, so encode it (and its TLS
			// framing) once at world build instead of per request.
			noticeWire := notice.Encode()
			host.HandleTCP(80, func(_ netip.Addr, _ uint16, _ []byte) []byte { return noticeWire })
			if scheme == "https" {
				// The NL ziggo.nl destination is HTTPS; serve a
				// self-signed-style cert (clients don't validate block
				// pages in the study).
				ca := tlssim.NewCA(hostname+" self-signed", 1)
				cert := ca.Issue(hostname)
				framedNotice, ferr := tlssim.EncodeServerHello(cert, noticeWire)
				if ferr != nil {
					return ferr
				}
				host.HandleTCP(443, func(_ netip.Addr, _ uint16, payload []byte) []byte {
					if _, err := tlssim.ClientHelloInner(payload); err != nil {
						return nil
					}
					return framedNotice
				})
			}
		}
	}
	return nil
}

// hostOfURL extracts hostname and scheme from a policy destination URL.
func hostOfURL(raw string) (host, scheme string) {
	rest := raw
	if s, r, ok := strings.Cut(raw, "://"); ok {
		scheme, rest = s, r
	}
	host, _, _ = strings.Cut(rest, "/")
	return host, scheme
}

// v6For derives a deterministic IPv6 address from an IPv4 one, placing
// every web host in a documentation prefix.
func v6For(a netip.Addr) netip.Addr {
	v4 := a.As4()
	return netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0, 0x64, 0, 0,
		0, 0, 0, 0, v4[0], v4[1], v4[2], v4[3]})
}
