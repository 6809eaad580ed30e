package analysis

import (
	"net/netip"
	"testing"

	"vpnscope/internal/geo"
	"vpnscope/internal/geodb"
	"vpnscope/internal/netsim"
	"vpnscope/internal/vpntest"
)

// mkReport builds a minimal report for aggregation tests.
func mkReport(provider, label string, claimed geo.Country) *vpntest.VPReport {
	return &vpntest.VPReport{Provider: provider, VPLabel: label, ClaimedCountry: claimed}
}

func TestRedirections(t *testing.T) {
	r1 := mkReport("VPN-A", "VPN-A#0 (TR)", "TR")
	r1.DOM = &vpntest.DOMResult{Redirections: []vpntest.Redirection{
		{FromURL: "http://adult-video.example/", Destination: "http://195.175.254.2/", Status: 302},
		{FromURL: "http://torrent-bay.example/", Destination: "http://195.175.254.2/", Status: 302},
	}}
	r2 := mkReport("VPN-B", "VPN-B#0 (TR)", "TR")
	r2.TLS = &vpntest.TLSResult{Redirections: []vpntest.Redirection{
		{FromURL: "http://adult-video.example/", Destination: "http://195.175.254.2/", Status: 302},
	}}
	r3 := mkReport("VPN-C", "VPN-C#0 (KR)", "KR")
	r3.DOM = &vpntest.DOMResult{Redirections: []vpntest.Redirection{
		{FromURL: "http://adult-video.example/", Destination: "http://warning.or.kr/", Status: 302},
	}}

	rows := Redirections(Slice([]*vpntest.VPReport{r1, r2, r3}))
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	// Sorted by VPN count: the TR destination first with 2 providers.
	if rows[0].Destination != "http://195.175.254.2" || rows[0].VPNs != 2 || rows[0].Country != "TR" {
		t.Errorf("row 0 = %+v", rows[0])
	}
	if rows[1].Destination != "http://warning.or.kr" || rows[1].VPNs != 1 {
		t.Errorf("row 1 = %+v", rows[1])
	}
}

func TestInjectionsAggregation(t *testing.T) {
	r := mkReport("Seed4.me", "Seed4.me#0 (CH)", "CH")
	r.DOM = &vpntest.DOMResult{Injections: []vpntest.Injection{
		{PageURL: "http://a/", InjectedHosts: []string{"cdn.seed4-me.example"}},
		{PageURL: "http://b/", InjectedHosts: []string{"cdn.seed4-me.example"}},
	}}
	clean := mkReport("Clean", "Clean#0 (US)", "US")
	clean.DOM = &vpntest.DOMResult{}

	out := Injections(Slice([]*vpntest.VPReport{r, clean}))
	if len(out) != 1 || out[0].Provider != "Seed4.me" || out[0].Pages != 2 {
		t.Fatalf("out = %+v", out)
	}
	if len(out[0].InjectedHosts) != 1 {
		t.Errorf("hosts must dedupe: %v", out[0].InjectedHosts)
	}
}

func TestTransparentProxies(t *testing.T) {
	proxied := mkReport("ProxyVPN", "ProxyVPN#0 (US)", "US")
	proxied.Proxy = &vpntest.ProxyResult{Modified: true, Regenerated: true}
	adder := mkReport("AdderVPN", "AdderVPN#0 (US)", "US")
	adder.Proxy = &vpntest.ProxyResult{Modified: true, Regenerated: false, HeadersAdded: []string{"Via"}}
	clean := mkReport("CleanVPN", "CleanVPN#0 (US)", "US")
	clean.Proxy = &vpntest.ProxyResult{}

	got := TransparentProxies(Slice([]*vpntest.VPReport{proxied, adder, clean}))
	if len(got) != 1 || got[0] != "ProxyVPN" {
		t.Fatalf("got %v; header-adding proxies are not 'regeneration'", got)
	}
}

func TestTLSSummary(t *testing.T) {
	a := mkReport("A", "A#0 (US)", "US")
	a.TLS = &vpntest.TLSResult{
		Intercepted: []vpntest.CertAnomaly{{Host: "x.example"}},
		Blocked:     []vpntest.BlockedLoad{{Host: "y.example", Status: 403}},
	}
	b := mkReport("B", "B#0 (US)", "US")
	b.TLS = &vpntest.TLSResult{Downgraded: []string{"z.example"}}

	s := TLSSummary(Slice([]*vpntest.VPReport{a, b}))
	if s.Providers != 2 {
		t.Errorf("providers = %d", s.Providers)
	}
	if len(s.InterceptedProviders) != 1 || s.InterceptedProviders[0] != "A" {
		t.Errorf("intercepted = %v", s.InterceptedProviders)
	}
	if len(s.DowngradedProviders) != 1 || s.DowngradedProviders[0] != "B" {
		t.Errorf("downgraded = %v", s.DowngradedProviders)
	}
	if s.BlockedLoads != 1 {
		t.Errorf("blocked loads = %d", s.BlockedLoads)
	}
}

func TestInfrastructure(t *testing.T) {
	blockA := netsim.Block{Prefix: netip.MustParsePrefix("10.1.0.0/24"), ASN: 1, Org: "HostA", Country: "NO"}
	blockB := netsim.Block{Prefix: netip.MustParsePrefix("10.2.0.0/24"), ASN: 2, Org: "HostB", Country: "LU"}
	mk := func(provider string, ip string, blk netsim.Block) *vpntest.VPReport {
		r := mkReport(provider, provider+"#0", "US")
		r.Geo = &vpntest.GeoResult{
			EgressIP:   netip.MustParseAddr(ip),
			WhoisBlock: blk,
			WhoisFound: true,
		}
		return r
	}
	reports := []*vpntest.VPReport{
		mk("P1", "10.1.0.1", blockA),
		mk("P2", "10.1.0.2", blockA),
		mk("P3", "10.1.0.3", blockA),
		mk("P4", "10.2.0.1", blockB),
		mk("P5", "10.2.0.1", blockB), // exact IP shared with P4
	}
	s := Infrastructure(Slice(reports), 3)
	if s.VantagePoints != 5 || s.DistinctIPs != 4 || s.DistinctCIDRs != 2 {
		t.Fatalf("totals = %+v", s)
	}
	if len(s.SharedBlocks) != 1 || s.SharedBlocks[0].Prefix != "10.1.0.0/24" {
		t.Fatalf("shared blocks = %+v", s.SharedBlocks)
	}
	if len(s.SharedExactIP) != 1 {
		t.Fatalf("exact IP shares = %+v", s.SharedExactIP)
	}
	provs := s.SharedExactIP["10.2.0.1"]
	if len(provs) != 2 || provs[0] != "P4" || provs[1] != "P5" {
		t.Fatalf("exact IP providers = %v", provs)
	}
	if s.ProvidersSharingCIDR != 5 {
		t.Errorf("sharing providers = %d, want all 5", s.ProvidersSharingCIDR)
	}
	// Reports without geo data are skipped, not fatal.
	s = Infrastructure(Slice([]*vpntest.VPReport{mkReport("X", "X#0", "US")}), 3)
	if s.VantagePoints != 0 {
		t.Error("geo-less report counted")
	}
}

func TestGeoAgreement(t *testing.T) {
	truth := geodb.TruthFunc(func(a netip.Addr) (geo.Country, geo.Country, bool, bool) {
		return "DE", "DE", false, true
	})
	perfect := geodb.New(geodb.Profile{Name: "perfect", Coverage: 1, Accuracy: 1}, truth, 1)
	r1 := mkReport("A", "A#0 (DE)", "DE")
	r1.Geo = &vpntest.GeoResult{EgressIP: netip.MustParseAddr("10.0.0.1")}
	r2 := mkReport("B", "B#0 (KP)", "KP") // claims KP, actually DE
	r2.Geo = &vpntest.GeoResult{EgressIP: netip.MustParseAddr("10.0.0.2")}

	rows := GeoAgreement(Slice([]*vpntest.VPReport{r1, r2}), []*geodb.Database{perfect})
	if len(rows) != 1 {
		t.Fatal("row count")
	}
	row := rows[0]
	if row.Compared != 2 || row.Located != 2 || row.Agreed != 1 {
		t.Fatalf("row = %+v", row)
	}
	if row.AgreeRate != 0.5 {
		t.Errorf("rate = %v", row.AgreeRate)
	}
}

func TestLeaksSummary(t *testing.T) {
	l1 := mkReport("A", "A#0 (US)", "US")
	l1.Leaks = &vpntest.LeakResult{DNSLeak: true}
	l1.Failure = &vpntest.FailureResult{Leaked: true}
	l2 := mkReport("B", "B#0 (US)", "US")
	l2.Leaks = &vpntest.LeakResult{IPv6Leak: true}
	l2.Failure = &vpntest.FailureResult{}
	l3 := mkReport("C", "C#0 (US)", "US") // third-party: no leak tests

	s := Leaks(Slice([]*vpntest.VPReport{l1, l2, l3}))
	if len(s.DNSLeakers) != 1 || s.DNSLeakers[0] != "A" {
		t.Errorf("dns = %v", s.DNSLeakers)
	}
	if len(s.IPv6Leakers) != 1 || s.IPv6Leakers[0] != "B" {
		t.Errorf("v6 = %v", s.IPv6Leakers)
	}
	if s.Applicable != 2 || len(s.FailOpen) != 1 {
		t.Errorf("failure = %+v", s)
	}
	if s.FailOpenRate() != 0.5 {
		t.Errorf("rate = %v", s.FailOpenRate())
	}
	if (LeakSummary{}).FailOpenRate() != 0 {
		t.Error("empty rate must be 0")
	}
}

func TestConnectReliability(t *testing.T) {
	s := ConnectReliability(10, []string{"X#1 (IR)", "Y#0 (EG)", "Z#2 (IR)"})
	if s.Attempted != 10 || s.Failed != 3 {
		t.Fatalf("s = %+v", s)
	}
	if s.FailedByCountry["IR"] != 2 || s.FailedByCountry["EG"] != 1 {
		t.Errorf("by country = %v", s.FailedByCountry)
	}
}

func TestDNSManipulationSummary(t *testing.T) {
	bad := mkReport("Hijacker", "H#0 (US)", "US")
	bad.DNS = &vpntest.DNSManipulationResult{Diffs: []vpntest.DNSDiff{{Host: "x", Suspicious: true}}}
	benign := mkReport("Benign", "B#0 (US)", "US")
	benign.DNS = &vpntest.DNSManipulationResult{Diffs: []vpntest.DNSDiff{{Host: "x", Suspicious: false}}}

	got := DNSManipulationSummary(Slice([]*vpntest.VPReport{bad, benign}))
	if len(got) != 1 || got[0] != "Hijacker" {
		t.Fatalf("got %v", got)
	}
}

func TestNormalizeDest(t *testing.T) {
	cases := map[string]string{
		"http://195.175.254.2":          "http://195.175.254.2",
		"http://warning.or.kr/path?x=1": "http://warning.or.kr",
		"https://www.ziggo.nl/blocked":  "https://www.ziggo.nl",
		"not a url":                     "not a url",
	}
	for in, want := range cases {
		if got := normalizeDest(in); got != want {
			t.Errorf("normalizeDest(%q) = %q, want %q", in, got, want)
		}
	}
}
