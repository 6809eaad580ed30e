package ecosystem

import (
	"math"
	"testing"

	"vpnscope/internal/vpn"
)

func TestReviewSitesTable1(t *testing.T) {
	sites := ReviewSites()
	if len(sites) != 20 {
		t.Fatalf("review sites = %d, want 20", len(sites))
	}
	nonAffiliate := 0
	for _, s := range sites {
		if !s.Affiliate {
			nonAffiliate++
			if s.Domain != "reddit.com" && s.Domain != "thatoneprivacysite.net" {
				t.Errorf("unexpected non-affiliate site %q", s.Domain)
			}
		}
	}
	if nonAffiliate != 2 {
		t.Errorf("non-affiliate sites = %d, want 2", nonAffiliate)
	}
}

func TestTestedListShape(t *testing.T) {
	names := TestedNames()
	if len(names) != 62 {
		t.Fatalf("tested providers = %d, want 62", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate provider %q", n)
		}
		seen[n] = true
	}
	// Subscription lookups for named rows.
	for name, want := range map[string]SubscriptionKind{
		"NordVPN": SubPaid, "TunnelBear": SubFree, "Avira": SubTrial,
		"Seed4.me": SubTrial, "VPN Gate": SubFree,
	} {
		got, err := SubscriptionOf(name)
		if err != nil || got != want {
			t.Errorf("SubscriptionOf(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := SubscriptionOf("NotAProvider"); err == nil {
		t.Error("unknown provider must error")
	}
}

func specsByName(t *testing.T) map[string]vpn.ProviderSpec {
	t.Helper()
	specs := TestedSpecs(1, 5)
	if len(specs) != 62 {
		t.Fatalf("specs = %d, want 62", len(specs))
	}
	m := map[string]vpn.ProviderSpec{}
	for _, s := range specs {
		m[s.Name] = s
	}
	return m
}

func TestPlantedBehaviors(t *testing.T) {
	m := specsByName(t)

	// Table 6 DNS leakers.
	for _, n := range []string{"Freedome VPN", "WorldVPN"} {
		if m[n].SetsDNS {
			t.Errorf("%s should not set DNS (planted leak)", n)
		}
	}
	if !m["NordVPN"].SetsDNS {
		t.Error("NordVPN should set DNS")
	}
	// Table 6 IPv6 leakers neither support nor block v6.
	for _, n := range []string{"Buffered VPN", "Le VPN", "Seed4.me", "VPN.ht"} {
		s := m[n]
		if s.SupportsIPv6 || s.BlocksIPv6 {
			t.Errorf("%s should leak IPv6", n)
		}
	}
	// Transparent proxies.
	for _, n := range []string{"AceVPN", "Freedome VPN", "SurfEasy", "CyberGhost", "VPN Gate"} {
		if !m[n].TransparentProxy {
			t.Errorf("%s should proxy transparently", n)
		}
	}
	if m["NordVPN"].TransparentProxy {
		t.Error("NordVPN should not proxy")
	}
	// The one injector.
	injectors := 0
	for _, s := range m {
		if s.InjectContent {
			injectors++
		}
	}
	if injectors != 1 || !m["Seed4.me"].InjectContent {
		t.Errorf("injectors = %d (Seed4.me=%v), want exactly Seed4.me", injectors, m["Seed4.me"].InjectContent)
	}
	// No provider intercepts TLS (§6.1.2 found none).
	for n, s := range m {
		if s.InterceptTLS {
			t.Errorf("%s intercepts TLS; the paper found none", n)
		}
	}
	// Marquee fail-open providers.
	for _, n := range []string{"NordVPN", "ExpressVPN", "TunnelBear", "Hotspot Shield", "IPVanish"} {
		if !m[n].FailOpen {
			t.Errorf("%s should fail open", n)
		}
		if m[n].KillSwitch == vpn.KillSwitchNone {
			t.Errorf("%s features a kill switch (disabled/per-app)", n)
		}
		if m[n].KillSwitch == vpn.KillSwitchOnByDefault {
			t.Errorf("%s kill switch must not be on by default", n)
		}
	}
	if m["NordVPN"].KillSwitch != vpn.KillSwitchPerApp {
		t.Error("NordVPN's kill switch is per-app")
	}
}

func TestFailOpenCount(t *testing.T) {
	m := specsByName(t)
	failOpen, custom := 0, 0
	for _, s := range m {
		if s.Client == vpn.CustomClient {
			custom++
			if s.FailOpen {
				failOpen++
			}
		}
	}
	if custom != 43 {
		t.Errorf("custom clients = %d, want 43 (62 - 19 third-party)", custom)
	}
	if failOpen != 25 {
		t.Errorf("fail-open custom clients = %d, want 25", failOpen)
	}
}

func TestThirdPartyClients(t *testing.T) {
	m := specsByName(t)
	thirdParty := 0
	for _, s := range m {
		if s.Client == vpn.ThirdPartyOpenVPN {
			thirdParty++
			if s.SetsDNS || s.BlocksIPv6 {
				t.Errorf("%s: OpenVPN configs cannot set DNS or block IPv6", s.Name)
			}
		}
	}
	if thirdParty != 19 {
		t.Errorf("third-party clients = %d, want 19", thirdParty)
	}
}

func TestVirtualVPPlants(t *testing.T) {
	m := specsByName(t)
	virtual := map[string]bool{}
	for name, s := range m {
		for _, v := range s.VantagePoints {
			if v.SeedsGeoDB {
				virtual[name] = true
			}
		}
	}
	want := []string{"HideMyAss", "Avira", "Le VPN", "Freedom IP", "MyIP.io", "VPNUK"}
	if len(virtual) != len(want) {
		t.Errorf("virtual-VP providers = %v, want %v", virtual, want)
	}
	for _, n := range want {
		if !virtual[n] {
			t.Errorf("%s missing virtual VPs", n)
		}
	}
	// HideMyAss claims many countries out of five physical sites.
	hma := m["HideMyAss"]
	if len(hma.VantagePoints) < 60 {
		t.Errorf("HideMyAss VPs = %d, want many", len(hma.VantagePoints))
	}
	cities := map[string]bool{}
	for _, v := range hma.VantagePoints {
		if v.SeedsGeoDB {
			cities[v.ActualCity] = true
		}
	}
	if len(cities) > 6 {
		t.Errorf("HideMyAss physical sites = %d, want <= 6", len(cities))
	}
	// Avira's US claim sits in Frankfurt.
	var found bool
	for _, v := range m["Avira"].VantagePoints {
		if v.ClaimedCountry == "US" && v.ActualCity == "Frankfurt" {
			found = true
		}
	}
	if !found {
		t.Error("Avira 'US' VP should be in Frankfurt")
	}
}

func TestSharedBlockPlants(t *testing.T) {
	m := specsByName(t)
	// Every Table 5 block row yields >= 3 providers with VPs in it.
	blockProviders := map[string]map[string]bool{}
	for name, s := range m {
		for _, v := range s.VantagePoints {
			if v.Block != nil {
				key := v.Block.Prefix.String()
				if blockProviders[key] == nil {
					blockProviders[key] = map[string]bool{}
				}
				blockProviders[key][name] = true
			}
		}
	}
	for _, sb := range sharedBlocks {
		got := blockProviders[sb.prefix]
		if len(got) < 3 {
			t.Errorf("block %s shared by %d providers, want >= 3", sb.prefix, len(got))
		}
		for _, p := range sb.providers {
			if !got[p] {
				t.Errorf("block %s missing provider %s", sb.prefix, p)
			}
		}
	}
	// Boxpn and Anonine share four exact addresses.
	addrsOf := func(name string) map[string]bool {
		out := map[string]bool{}
		for _, v := range m[name].VantagePoints {
			if v.Addr.IsValid() {
				out[v.Addr.String()] = true
			}
		}
		return out
	}
	a, b := addrsOf("Boxpn"), addrsOf("Anonine")
	shared := 0
	for addr := range a {
		if b[addr] {
			shared++
		}
	}
	if shared != 4 {
		t.Errorf("Boxpn/Anonine shared addresses = %d, want 4", shared)
	}
}

func TestCensorshipPlants(t *testing.T) {
	m := specsByName(t)
	counts := map[string]int{} // country -> distinct providers with a VP there
	for _, s := range m {
		seen := map[string]bool{}
		for _, v := range s.VantagePoints {
			c := string(v.ClaimedCountry)
			if !seen[c] {
				seen[c] = true
				counts[c]++
			}
		}
	}
	// Table 4 minimums: TR 8, KR 5, RU 10, NL 2, TH 1.
	for c, want := range map[string]int{"TR": 8, "KR": 5, "RU": 10, "NL": 2, "TH": 1} {
		if counts[c] < want {
			t.Errorf("providers with %s vantage points = %d, want >= %d", c, counts[c], want)
		}
	}
}

func TestSpecsDeterministic(t *testing.T) {
	a := TestedSpecs(9, 5)
	b := TestedSpecs(9, 5)
	for i := range a {
		if a[i].Name != b[i].Name || a[i].FailOpen != b[i].FailOpen ||
			len(a[i].VantagePoints) != len(b[i].VantagePoints) {
			t.Fatalf("specs differ at %d", i)
		}
	}
}

func TestCatalogShape(t *testing.T) {
	entries := BuildCatalog(1)
	if len(entries) != CatalogSize {
		t.Fatalf("catalog = %d, want %d", len(entries), CatalogSize)
	}
	tested := 0
	china := 0
	for _, e := range entries {
		if e.Tested != nil {
			tested++
		}
		if e.BusinessCountry == "CN" {
			china++
		}
		if e.Founded < 1999 || e.Founded > 2018 {
			t.Errorf("%s founded %d", e.Name, e.Founded)
		}
		if e.ClaimedServers <= 0 {
			t.Errorf("%s claims %d servers", e.Name, e.ClaimedServers)
		}
	}
	if tested != 62 {
		t.Errorf("tested entries = %d, want 62", tested)
	}
	if china != 2 {
		t.Errorf("China-based = %d, want 2", china)
	}
}

func TestCatalogAggregates(t *testing.T) {
	entries := BuildCatalog(1)
	n := float64(len(entries))

	within := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s = %.2f, want %.2f±%.2f", name, got, want, tol)
		}
	}
	// Table 3 plan counts.
	stats := SubscriptionStats(entries)
	within("monthly plans", float64(stats[0].Count), 161, 16)
	within("quarterly plans", float64(stats[1].Count), 55, 14)
	within("six-month plans", float64(stats[2].Count), 57, 14)
	within("annual plans", float64(stats[3].Count), 134, 16)
	within("monthly avg $", stats[0].Avg, 10.10, 1.5)
	within("annual avg $", stats[3].Avg, 4.80, 1.0)
	if stats[0].Min < 0.99 || stats[0].Max > 29.95 {
		t.Errorf("monthly range [%v, %v] outside the paper's", stats[0].Min, stats[0].Max)
	}

	// Figure 4 marginals.
	cards := CountBy(entries, func(e CatalogEntry) bool {
		for _, p := range e.Payments {
			if p == PayVisa || p == PayMastercard || p == PayAmex {
				return true
			}
		}
		return false
	})
	within("card acceptance", float64(cards)/n, 0.61, 0.08)
	crypto := CountBy(entries, func(e CatalogEntry) bool {
		for _, p := range e.Payments {
			if p == PayBitcoin || p == PayEthereum || p == PayLitecoin {
				return true
			}
		}
		return false
	})
	within("crypto acceptance", float64(crypto)/n, 0.46, 0.10)
	pc := PaymentCounts(entries)
	if pc[PayBitcoin] < pc[PayEthereum] || pc[PayBitcoin] < pc[PayLitecoin] {
		t.Error("Bitcoin must dominate crypto methods")
	}

	// Figure 5 shape.
	proto := ProtocolCounts(entries)
	if proto[ProtoOpenVPN] < proto[ProtoIPsec] || proto[ProtoPPTP] < proto[ProtoSSTP] {
		t.Errorf("protocol ordering wrong: %v", proto)
	}

	// Figure 2: ~80% claim <= 750 servers.
	small := CountBy(entries, func(e CatalogEntry) bool { return e.ClaimedServers <= 750 })
	within("<=750 servers", float64(small)/n, 0.80, 0.07)

	// Transparency: 25% missing privacy policy, 42% missing ToS, 45
	// no-logs claims.
	within("missing privacy policy", float64(CountBy(entries, func(e CatalogEntry) bool { return !e.HasPrivacyPolicy }))/n, 0.25, 0.07)
	within("missing ToS", float64(CountBy(entries, func(e CatalogEntry) bool { return !e.HasTermsOfService }))/n, 0.42, 0.08)
	within("no-logs claims", float64(CountBy(entries, func(e CatalogEntry) bool { return e.ClaimsNoLogs })), 45, 12)

	// Founding-year claim: ~90% founded 2005+.
	post2005 := CountBy(entries, func(e CatalogEntry) bool { return e.Founded >= 2005 })
	within("founded 2005+", float64(post2005)/n, 0.90, 0.06)

	// Policy word lengths respect the observed bounds.
	for _, e := range entries {
		if e.HasPrivacyPolicy && (e.PrivacyPolicyWords < 70 || e.PrivacyPolicyWords > 10965) {
			t.Errorf("%s policy words = %d", e.Name, e.PrivacyPolicyWords)
		}
	}
}

func TestCategoriesTable2(t *testing.T) {
	entries := BuildCatalog(1)
	c := Categories(entries)
	if c.Total != 200 {
		t.Fatalf("total = %d", c.Total)
	}
	check := func(name string, got, want, tol int) {
		t.Helper()
		if got < want-tol || got > want+tol {
			t.Errorf("%s = %d, want %d±%d", name, got, want, tol)
		}
	}
	check("popular", c.Popular, 74, 15)
	check("reddit", c.Reddit, 31, 12)
	check("personal", c.Personal, 13, 8)
	check("cheap&free", c.CheapFree, 78, 20)
	check("multi-language", c.MultiLang, 53, 15)
	check("many VPs", c.ManyVPs, 58, 35)
	check("other", c.Other, 45, 25)
}

func TestBusinessLocationsFigure1(t *testing.T) {
	entries := BuildCatalog(1)
	locs := BusinessLocationCounts(entries)
	if locs[0].Country != "US" {
		t.Errorf("top business country = %s, want US", locs[0].Country)
	}
	// NordVPN pinned to Panama.
	e, err := Lookup(entries, "NordVPN")
	if err != nil || e.BusinessCountry != "PA" {
		t.Errorf("NordVPN country = %v, %v", e.BusinessCountry, err)
	}
	if e.ClaimedServers != 3500 {
		t.Errorf("NordVPN servers = %d", e.ClaimedServers)
	}
}

func TestCatalogDeterminism(t *testing.T) {
	a := BuildCatalog(3)
	b := BuildCatalog(3)
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Prices != b[i].Prices ||
			a[i].BusinessCountry != b[i].BusinessCountry {
			t.Fatalf("catalog differs at %d", i)
		}
	}
}

func TestLookupMiss(t *testing.T) {
	if _, err := Lookup(BuildCatalog(1), "Nope VPN"); err == nil {
		t.Fatal("expected error")
	}
}

func BenchmarkBuildCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = BuildCatalog(uint64(i))
	}
}

func BenchmarkTestedSpecs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = TestedSpecs(uint64(i), 5)
	}
}

// TestDomainOfAllocs pins domainOf to four objects per call (the
// lowered name, the replacer's buffer and its string, the suffixed
// result): building the Replacer per call instead cost a
// daemon about 390 KB per campaign, since every world build derives all
// 62 tested providers' domains.
func TestDomainOfAllocs(t *testing.T) {
	if got := domainOf("Private Internet.Access"); got != "privateinternet-access.example" {
		t.Fatalf("domainOf = %q", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = domainOf("Private Internet.Access") }); allocs > 4 {
		t.Fatalf("domainOf allocates %.0f objects per call, want at most 4", allocs)
	}
}
