package websim

import (
	"fmt"
	"net/netip"
	"strings"

	"vpnscope/internal/netsim"
	"vpnscope/internal/tlssim"
)

// Category classifies a test site; the paper chose sensitive categories
// to maximize manipulation opportunities.
type Category string

// Site categories.
const (
	CatNews       Category = "news"
	CatPolitics   Category = "politics"
	CatPorn       Category = "pornography"
	CatGovernment Category = "government"
	CatDefense    Category = "defense"
	CatFileShare  Category = "filesharing"
	CatShopping   Category = "shopping"
	CatSocial     Category = "social"
	CatHoneysite  Category = "honeysite"
	CatUtility    Category = "utility"
)

// Site is one simulated web property.
type Site struct {
	HostName string
	Category Category
	// NoHTTPSUpgrade keeps the site serving plain HTTP without
	// redirecting to HTTPS — the paper chose such sites deliberately to
	// maximize the opportunity for manipulation.
	NoHTTPSUpgrade bool
	// Resources are the subresource URLs the homepage references; the
	// DOM-collection test fetches them and diffs the loaded set.
	Resources []string
	// AdSlots marks the honeysite that carries ad-inclusion markup with
	// invalid publisher identifiers.
	AdSlots bool
	// Cert is the site's TLS certificate (ground truth for the
	// interception test).
	Cert tlssim.Certificate

	Host *netsim.Host

	// Serving scratch. A world is driven by one goroutine at a time
	// (the same contract dnssim.Resolver's reply scratch relies on), so
	// the site can reuse its homepage bytes, per-resource script
	// bodies, request and response structs, and encode buffer across
	// requests. req's strings alias its parse scratch (see
	// ParseRequestInto), so the caches below clone the paths they key
	// on.
	dom      string
	domBody  []byte
	jsBodies map[string][]byte
	req      Request
	resp     Response
	encBuf   []byte
	tlsBuf   []byte
	// redirects caches the encoded HTTPS-upgrade redirect per request
	// path; a campaign fetches the same handful of paths from a site
	// thousands of times.
	redirects map[string][]byte
}

// Static response furniture shared by every site; never mutated.
var (
	siteHTMLHeaders = []Header{
		{"Content-Type", "text/html; charset=utf-8"},
		{"Server", "simhttpd/1.0"},
	}
	siteJSHeaders = []Header{{"Content-Type", "application/javascript"}}
	notFoundBody  = []byte("not found")
)

// DOM returns the site's homepage document. It is static per site —
// honeysites exist precisely so any modification is attributable to the
// network path, not to dynamic content — so the first render is cached.
func (s *Site) DOM() string {
	if s.dom != "" {
		return s.dom
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<!doctype html>\n<html>\n<head><title>%s</title></head>\n<body>\n", s.HostName)
	fmt.Fprintf(&b, "<h1>%s (%s)</h1>\n", s.HostName, s.Category)
	fmt.Fprintf(&b, "<p>Static reference content for %s.</p>\n", s.HostName)
	if s.AdSlots {
		b.WriteString(`<div class="ad-unit" data-publisher="pub-0000000000000000" data-slot="invalid"></div>` + "\n")
		b.WriteString(`<script src="http://adnet.example/ads.js" data-publisher="pub-0000000000000000"></script>` + "\n")
	}
	for _, r := range s.Resources {
		fmt.Fprintf(&b, "<script src=%q></script>\n", r)
	}
	b.WriteString("</body>\n</html>\n")
	s.dom = b.String()
	s.domBody = []byte(s.dom)
	return s.dom
}

// serve handles one parsed HTTP request for the site. The returned
// Response is the site's reusable scratch — callers encode it before
// the next request reaches the site.
func (s *Site) serve(req *Request) *Response {
	if req.Method != "GET" {
		s.resp = Response{Status: 404}
		return &s.resp
	}
	switch {
	case req.Path == "/" || req.Path == "/index.html":
		s.DOM()
		s.resp = Response{Status: 200, Headers: siteHTMLHeaders, Body: s.domBody}
		return &s.resp
	case strings.HasSuffix(req.Path, ".js"):
		body, ok := s.jsBodies[req.Path]
		if !ok {
			body = []byte(fmt.Sprintf("/* %s%s */ window.loaded=true;\n", s.HostName, req.Path))
			if s.jsBodies == nil {
				s.jsBodies = make(map[string][]byte)
			}
			s.jsBodies[strings.Clone(req.Path)] = body
		}
		s.resp = Response{Status: 200, Headers: siteJSHeaders, Body: body}
		return &s.resp
	default:
		s.resp = Response{Status: 404, Body: notFoundBody}
		return &s.resp
	}
}

// encode serializes resp into the site's reusable wire buffer (safe by
// the same one-exchange-at-a-time contract as serve's scratch: netsim
// copies a handler's returned payload into the reply packet before the
// next exchange with the host begins).
func (s *Site) encode(resp *Response) []byte {
	s.encBuf = resp.AppendEncode(s.encBuf[:0])
	return s.encBuf
}

// Install wires the site onto a netsim host: plain HTTP on :80 (or an
// upgrade redirect when the site enforces HTTPS) and TLS on :443.
func (s *Site) Install(host *netsim.Host) {
	s.Host = host
	host.HandleTCP(80, func(_ netip.Addr, _ uint16, payload []byte) []byte {
		if err := ParseRequestInto(&s.req, payload); err != nil {
			return (&Response{Status: 400, Body: []byte(err.Error())}).Encode()
		}
		if !s.NoHTTPSUpgrade {
			return s.upgradeRedirect(s.req.Path)
		}
		return s.encode(s.serve(&s.req))
	})
	host.HandleTCP(443, func(_ netip.Addr, _ uint16, payload []byte) []byte {
		// The simulated listener never branches on SNI, so skip
		// extracting it.
		inner, err := tlssim.ClientHelloInner(payload)
		if err != nil {
			return nil // not TLS: silently dropped, like a real listener
		}
		if err := ParseRequestInto(&s.req, inner); err != nil {
			return s.tlsFrame((&Response{Status: 400}).Encode())
		}
		return s.tlsFrame(s.encode(s.serve(&s.req)))
	})
}

// upgradeRedirect returns the encoded HTTPS-upgrade redirect for path,
// cached after the first request for it.
func (s *Site) upgradeRedirect(path string) []byte {
	if wire, ok := s.redirects[path]; ok {
		return wire
	}
	wire := Redirect("https://" + s.HostName + path).Encode()
	if s.redirects == nil {
		s.redirects = make(map[string][]byte, 8)
	}
	if len(s.redirects) < 64 {
		s.redirects[strings.Clone(path)] = wire
	}
	return wire
}

// tlsFrame wraps a response in a server hello using the site's reusable
// frame buffer (same one-exchange-at-a-time contract as encode); an
// encoding failure drops the response (the client records an
// unreachable host) rather than killing the handler.
func (s *Site) tlsFrame(inner []byte) []byte {
	framed, err := tlssim.AppendServerHello(s.tlsBuf[:0], s.Cert, inner)
	if err != nil {
		return nil
	}
	s.tlsBuf = framed
	return framed
}

// EchoService is the header-echo endpoint: it returns exactly the raw
// request bytes it received as the response body, so a client can diff
// what it sent against what the server saw.
type EchoService struct {
	HostName string
	Host     *netsim.Host
}

// Install wires the echo service onto a host (plain HTTP only).
func (e *EchoService) Install(host *netsim.Host) {
	e.Host = host
	host.HandleTCP(80, func(_ netip.Addr, _ uint16, payload []byte) []byte {
		return (&Response{
			Status:  200,
			Headers: []Header{{"Content-Type", "text/plain"}},
			Body:    payload,
		}).Encode()
	})
}

// WebRTCProbeService simulates the WebRTC-leak test pages of §7's
// related work: its homepage carries an ICE-gathering script marker,
// and the /report endpoint receives whatever candidate addresses the
// visiting browser's WebRTC stack revealed, echoing them back so the
// "page" (and therefore the auditor) can see them.
type WebRTCProbeService struct {
	HostName string
	Host     *netsim.Host
}

// WebRTCMarker is the script marker a gathering-capable browser reacts
// to on the probe page.
const WebRTCMarker = "webrtc-ice-gather"

// Install wires the probe service onto a host (plain HTTP only).
func (s *WebRTCProbeService) Install(host *netsim.Host) {
	s.Host = host
	host.HandleTCP(80, func(src netip.Addr, _ uint16, payload []byte) []byte {
		req, err := ParseRequest(payload)
		if err != nil {
			return (&Response{Status: 400}).Encode()
		}
		switch {
		case req.Method == "GET" && req.Path == "/":
			body := "<!doctype html>\n<html><body>" +
				`<script class="` + WebRTCMarker + `">/* gather ICE candidates and POST to /report */</script>` +
				"</body></html>"
			return (&Response{
				Status:  200,
				Headers: []Header{{"Content-Type", "text/html"}},
				Body:    []byte(body),
			}).Encode()
		case req.Method == "POST" && req.Path == "/report":
			// The page reflects the candidate list plus the apparent
			// (server-observed) address, like real leak-test pages do.
			body := "seen=" + src.String() + "\ncandidates=" + string(req.Body)
			return (&Response{
				Status:  200,
				Headers: []Header{{"Content-Type", "text/plain"}},
				Body:    []byte(body),
			}).Encode()
		default:
			return (&Response{Status: 404}).Encode()
		}
	})
}

// IPEchoService reports the requester's source address (an ipify-style
// "what is my IP" endpoint) — how the measurement suite learns a tunnel's
// egress address without any inside knowledge.
type IPEchoService struct {
	HostName string
	Host     *netsim.Host
}

// Install wires the IP-echo service onto a host (plain HTTP only).
func (e *IPEchoService) Install(host *netsim.Host) {
	e.Host = host
	host.HandleTCP(80, func(src netip.Addr, _ uint16, _ []byte) []byte {
		return (&Response{
			Status:  200,
			Headers: []Header{{"Content-Type", "text/plain"}},
			Body:    []byte(src.String()),
		}).Encode()
	})
}
