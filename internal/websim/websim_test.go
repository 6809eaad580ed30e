package websim

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"

	"vpnscope/internal/dnssim"
	"vpnscope/internal/geo"
	"vpnscope/internal/netsim"
	"vpnscope/internal/tlssim"
)

func TestRequestRoundTrip(t *testing.T) {
	req := NewRequest("GET", "www.example.com", "/index.html")
	raw := req.Encode()
	back, err := ParseRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Method != "GET" || back.Path != "/index.html" || back.Host() != "www.example.com" {
		t.Fatalf("back = %+v", back)
	}
	// Header order and casing are preserved exactly.
	if back.Headers[1].Name != "user-agent" {
		t.Errorf("header casing lost: %q", back.Headers[1].Name)
	}
	if !bytes.Equal(back.Encode(), raw) {
		t.Error("re-encode must be byte-identical")
	}
}

func TestRequestWithBody(t *testing.T) {
	req := &Request{Method: "POST", Path: "/submit", Headers: []Header{{"Host", "x.test"}}, Body: []byte("a=1&b=2")}
	back, err := ParseRequest(req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if string(back.Body) != "a=1&b=2" {
		t.Fatalf("body = %q", back.Body)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := &Response{Status: 200, Headers: []Header{{"Content-Type", "text/html"}}, Body: []byte("<html></html>")}
	back, err := ParseResponse(resp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Status != 200 || string(back.Body) != "<html></html>" {
		t.Fatalf("back = %+v", back)
	}
	if ct, ok := back.Header("content-type"); !ok || ct != "text/html" {
		t.Error("case-insensitive header lookup failed")
	}
}

func TestParseErrors(t *testing.T) {
	for _, raw := range []string{"", "garbage", "GET /\r\n\r\n", "GET / HTTP/1.1\r\nNoColonHeader\r\n\r\n"} {
		if _, err := ParseRequest([]byte(raw)); err == nil {
			t.Errorf("ParseRequest(%q) should fail", raw)
		}
	}
	if _, err := ParseResponse([]byte("HTTP/1.1 abc OK\r\n\r\n")); err == nil {
		t.Error("bad status must fail")
	}
}

func TestRedirectAndForbiddenHelpers(t *testing.T) {
	r := Redirect("http://dest.test/x")
	if r.Status != 302 {
		t.Errorf("status = %d", r.Status)
	}
	if loc, _ := r.Header("Location"); loc != "http://dest.test/x" {
		t.Errorf("location = %q", loc)
	}
	if Forbidden().Status != 403 || len(Forbidden().Body) != 0 {
		t.Error("Forbidden should be an empty 403")
	}
}

func TestRegenerateHeadersDetectableButEquivalent(t *testing.T) {
	req := NewRequest("GET", "site.test", "/")
	orig := req.Encode()
	regen := new(HeaderRegenerator).Regenerate(orig)
	if bytes.Equal(orig, regen) {
		t.Fatal("regeneration must be observable")
	}
	back, err := ParseRequest(regen)
	if err != nil {
		t.Fatal(err)
	}
	// Semantics preserved: same header set (case-insensitive), same
	// values, no additions.
	if len(back.Headers) != len(req.Headers) {
		t.Fatalf("header count changed: %d -> %d", len(req.Headers), len(back.Headers))
	}
	for _, h := range req.Headers {
		if v, ok := back.Header(h.Name); !ok || v != h.Value {
			t.Errorf("header %q lost or changed: %q", h.Name, v)
		}
	}
	// Canonicalized names are Title-Case.
	if _, ok := back.Header("User-Agent"); !ok {
		t.Error("user-agent not found after regeneration")
	}
	for _, h := range back.Headers {
		if h.Name != canonicalHeaderName(h.Name) {
			t.Errorf("header %q not canonical", h.Name)
		}
	}
	// Non-HTTP bytes pass through.
	if got := new(HeaderRegenerator).Regenerate([]byte("binary\x00junk")); string(got) != "binary\x00junk" {
		t.Error("non-HTTP payloads must pass through")
	}
}

func TestCanonicalHeaderName(t *testing.T) {
	cases := map[string]string{
		"user-agent":        "User-Agent",
		"ACCEPT":            "Accept",
		"x-vpnscope-canary": "X-Vpnscope-Canary",
		"host":              "Host",
	}
	for in, want := range cases {
		if got := canonicalHeaderName(in); got != want {
			t.Errorf("canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestInjectOverlay(t *testing.T) {
	resp := &Response{
		Status:  200,
		Headers: []Header{{"Content-Type", "text/html"}},
		Body:    []byte("<html><body><p>page</p></body></html>"),
	}
	out := InjectOverlay(resp.Encode(), "seed4-me.example")
	back, err := ParseResponse(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(back.Body), "cdn.seed4-me.example/overlay.js") {
		t.Error("injected script missing")
	}
	if !strings.Contains(string(back.Body), "upgrade-overlay") {
		t.Error("overlay div missing")
	}
	// Injection goes before </body>.
	if strings.Index(string(back.Body), "overlay.js") > strings.Index(string(back.Body), "</body>") {
		t.Error("injection must precede </body>")
	}
	// Non-HTML untouched.
	js := &Response{Status: 200, Headers: []Header{{"Content-Type", "application/javascript"}}, Body: []byte("x")}
	if !bytes.Equal(InjectOverlay(js.Encode(), "p.example"), js.Encode()) {
		t.Error("non-HTML must pass through")
	}
	// Non-200 untouched.
	nf := &Response{Status: 404, Headers: []Header{{"Content-Type", "text/html"}}}
	if !bytes.Equal(InjectOverlay(nf.Encode(), "p.example"), nf.Encode()) {
		t.Error("non-200 must pass through")
	}
}

func TestCensorPolicies(t *testing.T) {
	for _, c := range []geo.Country{"TR", "KR", "RU", "NL", "TH"} {
		if PolicyFor(c) == nil {
			t.Errorf("no policy for %s", c)
		}
	}
	if PolicyFor("US") != nil {
		t.Error("US must not have a policy")
	}
	ru := PolicyFor("RU")
	porn := &Site{HostName: "adult-video.example", Category: CatPorn}
	news := &Site{HostName: "daily-news.example", Category: CatNews}
	if !ru.Blocks(porn) || ru.Blocks(news) {
		t.Error("RU category blocking wrong")
	}
	if !ru.Blocks(&Site{HostName: "jw-org.example", Category: CatUtility}) {
		t.Error("RU must block jw-org.example")
	}
	tr := PolicyFor("TR")
	if !tr.Blocks(&Site{HostName: "wikipedia.example", Category: CatUtility}) {
		t.Error("TR must block wikipedia.example")
	}
	// Destination is stable per ISP and drawn from the table.
	d1 := ru.DestinationFor("TTK Backbone")
	d2 := ru.DestinationFor("TTK Backbone")
	if d1 != d2 {
		t.Error("destination must be stable")
	}
	found := false
	for _, d := range ru.Destinations {
		if d == d1 {
			found = true
		}
	}
	if !found {
		t.Errorf("destination %q not in policy table", d1)
	}
	// Apply returns a 302 to the destination.
	resp, blocked := ru.Apply("TTK Backbone", "adult-video.example", func(h string) *Site {
		if h == "adult-video.example" {
			return porn
		}
		return nil
	})
	if !blocked || resp.Status != 302 {
		t.Fatalf("apply = %+v, %v", resp, blocked)
	}
	if loc, _ := resp.Header("Location"); loc != d1 {
		t.Errorf("location = %q, want %q", loc, d1)
	}
	// Unknown hosts never blocked.
	if _, blocked := ru.Apply("x", "unknown.example", func(string) *Site { return nil }); blocked {
		t.Error("unknown host blocked")
	}
	// Nil policy blocks nothing.
	if _, blocked := (*CensorPolicy)(nil).Apply("x", "adult-video.example", func(string) *Site { return porn }); blocked {
		t.Error("nil policy blocked")
	}
}

// buildTestWeb assembles a small web world for client tests.
func buildTestWeb(t testing.TB) (*netsim.Network, *Web, *dnssim.Directory, *Client) {
	t.Helper()
	n := netsim.New(5)
	dir := dnssim.NewDirectory()
	ca := tlssim.NewCA("SimTrust Root", 1)
	web, err := BuildWeb(n, dir, ca, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	// A public resolver.
	city, _ := geo.CityByName("New York")
	resolverHost := netsim.NewHost("dns:public", city, netip.MustParseAddr("8.8.8.8"))
	if err := n.AddHost(resolverHost); err != nil {
		t.Fatal(err)
	}
	res := &dnssim.Resolver{Name: "public", Addr: resolverHost.Addr, Dir: dir}
	resolverHost.HandleUDP(53, res.Handler())
	// The client machine.
	chi, _ := geo.CityByName("Chicago")
	clientHost := netsim.NewHost("client", chi, netip.MustParseAddr("203.0.113.10"))
	clientHost.Addr6 = netip.MustParseAddr("2001:db8:c::10")
	if err := n.AddHost(clientHost); err != nil {
		t.Fatal(err)
	}
	stack := netsim.NewStack(n, clientHost)
	stack.SetResolvers(resolverHost.Addr)
	return n, web, dir, &Client{Stack: stack}
}

func TestBuildWebShape(t *testing.T) {
	_, web, dir, _ := buildTestWeb(t)
	if len(web.DOMSites) != 55 {
		t.Errorf("DOM sites = %d, want 55", len(web.DOMSites))
	}
	honeys := 0
	for _, s := range web.DOMSites {
		if s.Category == CatHoneysite {
			honeys++
		}
		if !s.NoHTTPSUpgrade {
			t.Errorf("DOM site %s upgrades to HTTPS", s.HostName)
		}
		if !dir.Exists(s.HostName) {
			t.Errorf("site %s not in DNS", s.HostName)
		}
	}
	if honeys != 2 {
		t.Errorf("honeysites = %d, want 2", honeys)
	}
	if len(web.TLSSites) != 75 {
		t.Errorf("TLS sites = %d, want 55+20", len(web.TLSSites))
	}
	if web.SiteByName("daily-news.example") == nil {
		t.Error("SiteByName failed")
	}
	if !dir.Exists(EchoHostName) {
		t.Error("echo service not in DNS")
	}
}

func TestClientPlainHTTPFetch(t *testing.T) {
	_, _, _, client := buildTestWeb(t)
	chain, err := client.Get("http://daily-news.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1 || chain[0].Response.Status != 200 {
		t.Fatalf("chain = %+v", chain)
	}
	if !strings.Contains(string(chain[0].Response.Body), "daily-news.example") {
		t.Error("DOM content missing")
	}
}

func TestClientHTTPSWithCert(t *testing.T) {
	_, web, _, client := buildTestWeb(t)
	chain, err := client.Get("https://tls-host-000.example/")
	if err != nil {
		t.Fatal(err)
	}
	final := chain[len(chain)-1]
	if !final.TLS {
		t.Fatal("expected TLS result")
	}
	site := web.SiteByName("tls-host-000.example")
	if final.Cert.Fingerprint() != site.Cert.Fingerprint() {
		t.Error("served cert differs from ground truth")
	}
	ca := tlssim.NewCA("SimTrust Root", 1)
	_ = ca // pool verification exercised in the tlssim tests
}

func TestClientFollowsUpgradeRedirect(t *testing.T) {
	_, _, _, client := buildTestWeb(t)
	// TLS-extra hosts redirect HTTP -> HTTPS.
	chain, err := client.Get("http://tls-host-001.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 {
		t.Fatalf("chain length = %d, want 2 (redirect+final)", len(chain))
	}
	if chain[0].Response.Status != 302 {
		t.Errorf("first hop = %d", chain[0].Response.Status)
	}
	if !chain[1].TLS || chain[1].Response.Status != 200 {
		t.Errorf("final hop = %+v", chain[1])
	}
}

func TestClientLoadPage(t *testing.T) {
	_, _, _, client := buildTestWeb(t)
	final, hosts, dom, err := client.LoadPage("http://honeysite-ads.example/")
	if err != nil {
		t.Fatal(err)
	}
	if final.Response.Status != 200 {
		t.Fatalf("status = %d", final.Response.Status)
	}
	if !strings.Contains(dom, "ad-unit") {
		t.Error("honeysite must carry ad markup")
	}
	// The ad host and the site's own resources appear in hosts.
	var sawAd, sawSelf bool
	for _, h := range hosts {
		if h == "adnet.example" {
			sawAd = true
		}
		if h == "honeysite-ads.example" {
			sawSelf = true
		}
	}
	if !sawAd || !sawSelf {
		t.Errorf("hosts = %v", hosts)
	}
}

// A site's request scratch is overwritten by every request, and the
// parsed path aliases it, so the redirect and script caches must key
// on copies. The paths share a length so each request rewrites the
// previous one's bytes in place.
func TestSiteCachesKeepTheirPaths(t *testing.T) {
	_, web, _, client := buildTestWeb(t)
	fetch := func(site *Site, path string) *Response {
		t.Helper()
		raw, err := client.Stack.ExchangeTCP(site.Host.Addr, 80, NewRequest("GET", site.HostName, path).Encode())
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ParseResponse(raw)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	paths := []string{"/a.js", "/b.js", "/c.js"}

	upgrading := web.SiteByName("tls-host-001.example")
	for _, p := range paths {
		fetch(upgrading, p)
	}
	for k, wire := range upgrading.redirects {
		resp, err := ParseResponse(wire)
		if err != nil {
			t.Fatal(err)
		}
		if loc, _ := resp.Header("Location"); loc != "https://"+upgrading.HostName+k {
			t.Errorf("redirect cached under %q points to %q", k, loc)
		}
	}
	if loc, _ := fetch(upgrading, paths[0]).Header("Location"); loc != "https://"+upgrading.HostName+paths[0] {
		t.Errorf("%s redirects to %q after other paths", paths[0], loc)
	}

	plain := web.DOMSites[0]
	for _, p := range paths {
		fetch(plain, p)
	}
	for k, body := range plain.jsBodies {
		if want := "/* " + plain.HostName + k + " */"; !strings.HasPrefix(string(body), want) {
			t.Errorf("script cached under %q is %q", k, body)
		}
	}
	if body := fetch(plain, paths[0]).Body; !strings.Contains(string(body), paths[0]) {
		t.Errorf("%s serves %q after other paths", paths[0], body)
	}
}

// A redirect's Location lives in the client's response scratch, which
// the next Get reuses; the URL a chain reports for the hop it led to
// escapes into results and must survive that.
func TestRedirectURLSurvivesNextGet(t *testing.T) {
	_, _, _, client := buildTestWeb(t)
	chain, err := client.Get("http://tls-host-001.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 {
		t.Fatalf("chain length = %d, want 2", len(chain))
	}
	kept := chain[1].URL
	if _, err := client.Get("http://tls-host-002.example/"); err != nil {
		t.Fatal(err)
	}
	if kept != "https://tls-host-001.example/" {
		t.Errorf("redirect URL became %q after the next Get", kept)
	}
}

func TestEchoService(t *testing.T) {
	_, _, _, client := buildTestWeb(t)
	addr, err := client.Resolve(EchoHostName, false)
	if err != nil {
		t.Fatal(err)
	}
	req := NewRequest("GET", EchoHostName, "/")
	raw, err := client.Stack.ExchangeTCP(addr, 80, req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Body, req.Encode()) {
		t.Error("echo body must be the exact request bytes")
	}
}

func TestVPNHostileSites(t *testing.T) {
	_, web, _, client := buildTestWeb(t)
	vpnPrefix := netip.MustParsePrefix("203.0.113.0/24")
	web.SetVPNRanges([]netip.Prefix{vpnPrefix})
	// Our client is inside the "VPN" range; a hostile site 403s it.
	var hostile *Site
	for _, s := range web.TLSSites {
		if strings.HasPrefix(s.HostName, "tls-host-") {
			chain, err := client.Get("http://" + s.HostName + "/")
			if err != nil {
				continue
			}
			if chain[0].Response.Status == 403 {
				hostile = s
				break
			}
		}
	}
	if hostile == nil {
		t.Fatal("expected at least one VPN-hostile site in 20 extras")
	}
	// Clearing ranges restores access.
	web.SetVPNRanges(nil)
	chain, err := client.Get("http://" + hostile.HostName + "/")
	if err != nil {
		t.Fatal(err)
	}
	if chain[len(chain)-1].Response.Status != 200 {
		t.Errorf("status after unblock = %d", chain[len(chain)-1].Response.Status)
	}
}

func TestExtractScriptSrcs(t *testing.T) {
	dom := `<script src="http://a.test/x.js"></script><img src="http://b.test/i.png"><script src="http://c.test/y.js"></script>`
	got := ExtractScriptSrcs(dom)
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestResolveRefRelativeAndAbsolute(t *testing.T) {
	got, err := resolveRef("http://a.test/x", "/y")
	if err != nil || got != "http://a.test/y" {
		t.Errorf("relative: %q, %v", got, err)
	}
	got, err = resolveRef("http://a.test/x", "https://b.test/z")
	if err != nil || got != "https://b.test/z" {
		t.Errorf("absolute: %q, %v", got, err)
	}
}

func TestRequestEncodeParsePreservesProperty(t *testing.T) {
	names := []string{"Host", "x-custom", "ACCEPT", "Via-Proxy"}
	if err := quick.Check(func(i uint8, val uint16) bool {
		h := Header{names[int(i)%len(names)], strings.TrimSpace(strings.Repeat("v", int(val%20)+1))}
		req := &Request{Method: "GET", Path: "/p", Headers: []Header{h}}
		back, err := ParseRequest(req.Encode())
		if err != nil {
			return false
		}
		return len(back.Headers) == 1 && back.Headers[0] == h
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkClientGet(b *testing.B) {
	_, _, _, client := buildTestWeb(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Get("http://daily-news.example/"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegenerateHeaders(b *testing.B) {
	raw := NewRequest("GET", "site.test", "/").Encode()
	var g HeaderRegenerator
	for i := 0; i < b.N; i++ {
		_ = g.Regenerate(raw)
	}
}

func TestHTTPParsersArbitraryBytesNeverPanic(t *testing.T) {
	if err := quick.Check(func(data []byte) bool {
		_, _ = ParseRequest(data)
		_, _ = ParseResponse(data)
		_ = new(HeaderRegenerator).Regenerate(data)
		_ = InjectOverlay(data, "p.example")
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
