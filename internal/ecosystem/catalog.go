package ecosystem

import (
	"fmt"
	"sort"

	"vpnscope/internal/geo"
	"vpnscope/internal/simrand"
)

// pinnedFacts records provider facts the paper states individually.
type pinnedFacts struct {
	BusinessCountry  geo.Country
	Founded          int
	ClaimedServers   int
	ClaimedCountries int
}

// pinned holds the per-provider details named in §4.
var pinned = map[string]pinnedFacts{
	// Founded 2005: the oldest cohort named in the paper.
	"HideMyAss":  {BusinessCountry: "GB", Founded: 2005, ClaimedServers: 940, ClaimedCountries: 190},
	"IPVanish":   {BusinessCountry: "US", Founded: 2005, ClaimedServers: 1300, ClaimedCountries: 60},
	"Ironsocket": {BusinessCountry: "HK", Founded: 2005, ClaimedServers: 400, ClaimedCountries: 36},
	// NordVPN: Panama-based, 1665 US servers alone, warrant canary.
	"NordVPN": {BusinessCountry: "PA", Founded: 2012, ClaimedServers: 3500, ClaimedCountries: 61},
	// The other providers the paper cites with 2000-4000 servers.
	"Private Internet Access": {BusinessCountry: "US", Founded: 2010, ClaimedServers: 3100, ClaimedCountries: 33},
	"Hotspot Shield":          {BusinessCountry: "US", Founded: 2008, ClaimedServers: 2500, ClaimedCountries: 25},
	"CyberGhost":              {BusinessCountry: "RO", Founded: 2011, ClaimedServers: 2700, ClaimedCountries: 60},
	"ExpressVPN":              {BusinessCountry: "VG", Founded: 2009, ClaimedServers: 2000, ClaimedCountries: 94},
	"TunnelBear":              {BusinessCountry: "CA", Founded: 2011, ClaimedServers: 350, ClaimedCountries: 22},
	"Seed4.me":                {BusinessCountry: "CN", Founded: 2012, ClaimedServers: 30, ClaimedCountries: 20},
	"Avast":                   {BusinessCountry: "CZ", Founded: 2014, ClaimedServers: 700, ClaimedCountries: 34},
	"Avira":                   {BusinessCountry: "DE", Founded: 2014, ClaimedServers: 150, ClaimedCountries: 36},
	"Mullvad":                 {BusinessCountry: "SE", Founded: 2009, ClaimedServers: 300, ClaimedCountries: 31},
	"ProtonVPN":               {BusinessCountry: "CH", Founded: 2017, ClaimedServers: 300, ClaimedCountries: 30},
	"Windscribe":              {BusinessCountry: "CA", Founded: 2016, ClaimedServers: 480, ClaimedCountries: 60},
	"PureVPN":                 {BusinessCountry: "HK", Founded: 2007, ClaimedServers: 2000, ClaimedCountries: 140},
	"TorGuard":                {BusinessCountry: "US", Founded: 2012, ClaimedServers: 3000, ClaimedCountries: 50},
	"FreeVPN Ninja":           {BusinessCountry: "CN", Founded: 2015, ClaimedServers: 20, ClaimedCountries: 8},
	"CrypticVPN":              {BusinessCountry: "US", Founded: 2013, ClaimedServers: 40, ClaimedCountries: 12},
	"HideMyIP":                {BusinessCountry: "US", Founded: 2011, ClaimedServers: 110, ClaimedCountries: 45},
}

// businessCountryWeights drives Figure 1's shape: most services based in
// non-censoring jurisdictions, a handful in small offshore havens, two
// in China.
var businessCountryWeights = []struct {
	c geo.Country
	w float64
}{
	{"US", 24}, {"GB", 12}, {"DE", 6}, {"SE", 5}, {"CA", 6},
	{"NL", 4}, {"CH", 4}, {"RO", 3}, {"FR", 3}, {"AU", 2},
	{"SG", 3}, {"HK", 4}, {"IL", 2}, {"CZ", 2}, {"BG", 1},
	{"PA", 2}, {"SC", 2}, {"BZ", 2}, {"RU", 2}, {"CY", 1},
	{"ES", 1}, {"IT", 1}, {"PL", 1}, {"IN", 1}, {"MY", 1},
	{"VG", 1}, {"CN", 0}, // CN pinned explicitly to exactly two providers
}

// syntheticNames pads the catalog with plausible provider names not on
// the evaluated list (the paper enumerates only the tested 62). The
// adjective×suffix grid yields 210 base combinations; past that a roman
// generation tag ("Mark II", ...) keeps every name — and therefore every
// domainOf — unique for arbitrarily large fleets.
func syntheticNames(n int) []string {
	adjectives := []string{
		"Arctic", "Atlas", "Aegis", "Borealis", "Cipher", "Cobalt",
		"Drift", "Echo", "Falcon", "Ghostline", "Harbor", "Ion",
		"Jet", "Krypt", "Lumen", "Meridian", "Nimbus", "Onyx",
		"Pylon", "Quartz", "Raven", "Sable", "Tundra", "Umbra",
		"Vertex", "Willow", "Xenon", "Yonder", "Zephyr", "Argo",
		"Bastion", "Citadel", "Dynamo", "Ember", "Fjord",
	}
	suffixes := []string{"VPN", "Proxy", "Tunnel", "Shield", "Privacy", "Net"}
	grid := len(adjectives) * len(suffixes)
	var out []string
	for i := 0; len(out) < n; i++ {
		name := adjectives[i%len(adjectives)] + " " + suffixes[(i/len(adjectives))%len(suffixes)]
		if gen := i / grid; gen > 0 {
			name = fmt.Sprintf("%s Mark %d", name, gen+1)
		}
		out = append(out, name)
	}
	return out
}

// CatalogSize is the number of unique services the merged selection
// lists produced (§3).
const CatalogSize = 200

// BuildCatalog synthesizes the 200-provider catalog with the paper's
// aggregate statistics. It is deterministic per seed.
func BuildCatalog(seed uint64) []CatalogEntry {
	return BuildCatalogN(seed, CatalogSize)
}

// BuildCatalogN synthesizes an n-provider catalog. The first CatalogSize
// entries are identical to BuildCatalog's (names are generated up front
// and the attribute draws are strictly sequential per entry), so larger
// fleets extend — never perturb — the paper's catalog.
func BuildCatalogN(seed uint64, n int) []CatalogEntry {
	if n <= 0 {
		return nil
	}
	rng := simrand.New(seed).Fork("catalog")
	names := TestedNames()
	names = append(names, "TorGuard", "FreeVPN Ninja", "HideMyIP", "StrongVPN", "EasyHideIP")
	names = append(names, syntheticNames(n-len(names))...)
	names = names[:n]

	entries := make([]CatalogEntry, 0, n)
	chinaCount := 0
	for idx, name := range names {
		e := CatalogEntry{Name: name, Domain: domainOf(name)}

		if pf, ok := pinned[name]; ok {
			e.BusinessCountry = pf.BusinessCountry
			e.Founded = pf.Founded
			e.ClaimedServers = pf.ClaimedServers
			e.ClaimedCountries = pf.ClaimedCountries
		} else if name == "StrongVPN" {
			e.BusinessCountry, e.Founded = "US", 2005
		}
		if e.BusinessCountry == "" {
			// Exactly two China-based services exist in the catalog
			// (FreeVPN Ninja and Seed4.me are pinned); weights exclude CN.
			weights := make([]float64, len(businessCountryWeights))
			for i, bw := range businessCountryWeights {
				weights[i] = bw.w
			}
			e.BusinessCountry = businessCountryWeights[rng.Weighted(weights)].c
		}
		if e.BusinessCountry == "CN" {
			chinaCount++
		}
		if e.Founded == 0 {
			// 90% founded 2005 or later, clustered 2009-2016.
			if rng.Bool(0.1) {
				e.Founded = 1999 + rng.Intn(6)
			} else {
				e.Founded = 2005 + rng.Intn(13)
			}
		}
		if e.ClaimedServers == 0 {
			// Figure 2: 80% of providers claim <= 750 servers.
			if rng.Bool(0.8) {
				e.ClaimedServers = 10 + rng.Intn(740)
			} else {
				e.ClaimedServers = 750 + rng.Intn(3250)
			}
		}
		if e.ClaimedCountries == 0 {
			// Table 2: 58 of 200 providers claim >= 30 countries.
			if rng.Bool(0.29) {
				e.ClaimedCountries = 30 + rng.Intn(65)
			} else {
				e.ClaimedCountries = 3 + rng.Intn(27)
			}
		}

		// Subscriptions (Table 3): 161/200 monthly, 55 quarterly,
		// 57 six-month, 134 annual; annual ~half the monthly rate.
		if rng.Bool(0.805) {
			e.Prices.Monthly = clampPrice(0.99, 29.95, 10.10+4.5*rng.NormFloat64())
		}
		if rng.Bool(0.275) {
			e.Prices.Quarterly = clampPrice(2.20, 18.33, 6.71+3.0*rng.NormFloat64())
		}
		if rng.Bool(0.285) {
			e.Prices.SixMonth = clampPrice(2.00, 16.33, 6.81+3.0*rng.NormFloat64())
		}
		if rng.Bool(0.67) {
			e.Prices.Annual = clampPrice(0.38, 12.83, 4.80+2.2*rng.NormFloat64())
		}
		e.LongTermPlan = rng.Bool(19.0 / 200.0)
		e.FreeOrTrial = rng.Bool(0.45)
		if tested := subscriptionLookup(name); tested != "" {
			e.Tested = &TestedInfo{Subscription: tested}
			if tested != SubPaid {
				e.FreeOrTrial = true
			}
		}
		// Refunds: 7-day full refund is the modal policy (40%).
		switch {
		case rng.Bool(0.40):
			e.RefundDays = 7
		case rng.Bool(0.5):
			e.RefundDays = []int{1, 3, 14, 30, 45, 60}[rng.Intn(6)]
		}

		e.Payments = drawPayments(rng)
		e.Protocols = drawProtocols(rng)

		// Platforms: 87% Windows+macOS, 61% Linux, 56% both mobile OSes.
		e.Windows = rng.Bool(0.93)
		e.MacOS = e.Windows && rng.Bool(0.935)
		if !e.Windows {
			e.MacOS = rng.Bool(0.5)
		}
		e.Linux = rng.Bool(0.61)
		mobileBoth := rng.Bool(0.56)
		e.Android = mobileBoth || rng.Bool(0.15)
		e.IOS = mobileBoth || rng.Bool(0.10)
		e.BrowserOnly = !e.Windows && !e.MacOS && !e.Linux && rng.Bool(0.5)

		// Marketing & transparency (§4): 126/200 Facebook, 131/200
		// Twitter, 88/200 affiliate programs, 25% missing privacy
		// policy, 42% missing ToS, 45/200 no-logs claims.
		e.HasFacebook = rng.Bool(0.63)
		e.HasTwitter = rng.Bool(0.655)
		e.AffiliateProgram = rng.Bool(0.44)
		e.HasPrivacyPolicy = rng.Bool(0.75)
		if e.HasPrivacyPolicy {
			e.PrivacyPolicyWords = policyLength(rng)
		}
		e.HasTermsOfService = rng.Bool(0.58)
		e.ClaimsNoLogs = rng.Bool(45.0 / 200.0)
		e.ClaimsKillSwitch = rng.Bool(18.0 / 200.0)
		e.VPNOverTor = rng.Bool(10.0 / 200.0)
		e.AllowsP2P = rng.Bool(64.0 / 200.0)
		e.MilitaryGradeMarketing = name == "Hotspot Shield" || rng.Bool(0.2)

		// Selection categories (Table 2, overlapping): 74 popular, 31
		// reddit, 13 personal, 78 cheap&free, 53 multi-language, 58
		// many vantage points, 45 other.
		e.FromPopular = idx < 50 || rng.Bool(0.16)
		e.FromReddit = rng.Bool(31.0 / 200.0)
		e.FromPersonal = rng.Bool(13.0 / 200.0)
		cheap := e.Prices.Monthly > 0 && e.Prices.Monthly < 3.99
		e.FromCheapFree = cheap || e.FreeOrTrial && rng.Bool(0.5)
		e.FromMultiLang = rng.Bool(53.0 / 200.0)
		e.FromManyVPs = e.ClaimedCountries >= 30
		// "Others" lands near 45 via a low base rate plus the fallback
		// for entries no other category covers.
		e.FromOther = rng.Bool(0.10)
		if !e.FromPopular && !e.FromReddit && !e.FromPersonal &&
			!e.FromCheapFree && !e.FromMultiLang && !e.FromManyVPs {
			e.FromOther = true
		}
		entries = append(entries, e)
	}
	if err := ValidateCatalog(entries); err != nil {
		// The name generator guarantees uniqueness; a collision here is
		// a construction bug, not bad input.
		panic(err)
	}
	return entries
}

// ValidateCatalog rejects catalogs with duplicate provider names or
// domains: either aliases two providers to one simulated host and
// silently corrupts per-provider verdicts downstream.
func ValidateCatalog(entries []CatalogEntry) error {
	names := make(map[string]int, len(entries))
	domains := make(map[string]int, len(entries))
	for i, e := range entries {
		if j, ok := names[e.Name]; ok {
			return fmt.Errorf("ecosystem: duplicate provider name %q (entries %d and %d)", e.Name, j, i)
		}
		if j, ok := domains[e.Domain]; ok {
			return fmt.Errorf("ecosystem: duplicate provider domain %q (entries %d and %d: %q, %q)",
				e.Domain, j, i, entries[j].Name, e.Name)
		}
		names[e.Name] = i
		domains[e.Domain] = i
	}
	return nil
}

func clampPrice(min, max, v float64) float64 {
	if v < min {
		v = min
	}
	if v > max {
		v = max
	}
	return float64(int(v*100)) / 100
}

// policyLength draws a privacy-policy word count: 70 to 10,965 words
// with a mean near 1,340 (§4) — a lognormal-ish skew.
func policyLength(rng *simrand.Source) int {
	w := int(900 + 1100*rng.ExpFloat64())
	if w < 70 {
		w = 70
	}
	if w > 10965 {
		w = 10965
	}
	return w
}

// drawPayments fills Figure 4's marginals: 61% credit cards, 59% online
// payments, 46% cryptocurrencies, Bitcoin dominant among crypto, 32%
// cardless-but-both.
func drawPayments(rng *simrand.Source) []string {
	var out []string
	// Joint structure implied by §4: 61% take cards; 32% take no cards
	// but both online payments and crypto; crypto totals 46% and
	// online 59%.
	cards := rng.Bool(0.61)
	var online, crypto bool
	if cards {
		online = rng.Bool(0.44)
		crypto = rng.Bool(0.23)
	} else if rng.Bool(0.82) {
		online, crypto = true, true
	} else {
		online = rng.Bool(0.3)
	}
	if cards {
		out = append(out, PayVisa, PayMastercard)
		if rng.Bool(0.7) {
			out = append(out, PayAmex)
		}
	}
	if online {
		out = append(out, PayPaypal)
		if rng.Bool(0.25) {
			out = append(out, PayAlipay)
		}
		if rng.Bool(0.2) {
			out = append(out, PayWebMoney)
		}
	}
	if crypto {
		out = append(out, PayBitcoin)
		if rng.Bool(0.35) {
			out = append(out, PayEthereum)
		}
		if rng.Bool(0.25) {
			out = append(out, PayLitecoin)
		}
	}
	return out
}

// drawProtocols fills Figure 5's shape: OpenVPN and PPTP dominant, then
// IPsec, SSTP, SSL, SSH tapering off.
func drawProtocols(rng *simrand.Source) []string {
	var out []string
	if rng.Bool(0.70) {
		out = append(out, ProtoOpenVPN)
	}
	if rng.Bool(0.60) {
		out = append(out, ProtoPPTP)
	}
	if rng.Bool(0.42) {
		out = append(out, ProtoIPsec)
	}
	if rng.Bool(0.18) {
		out = append(out, ProtoSSTP)
	}
	if rng.Bool(0.13) {
		out = append(out, ProtoSSL)
	}
	if rng.Bool(0.09) {
		out = append(out, ProtoSSH)
	}
	if len(out) == 0 {
		out = append(out, ProtoOpenVPN)
	}
	return out
}

func subscriptionLookup(name string) SubscriptionKind {
	k, err := SubscriptionOf(name)
	if err != nil {
		return ""
	}
	return k
}

// PriceStats summarizes one plan column of Table 3.
type PriceStats struct {
	Plan  string
	Count int
	Min   float64
	Avg   float64
	Max   float64
}

// SubscriptionStats computes Table 3 from the catalog.
func SubscriptionStats(entries []CatalogEntry) []PriceStats {
	collect := func(plan string, get func(PlanPrices) float64) PriceStats {
		s := PriceStats{Plan: plan, Min: 1e9}
		for _, e := range entries {
			v := get(e.Prices)
			if v <= 0 {
				continue
			}
			s.Count++
			s.Avg += v
			if v < s.Min {
				s.Min = v
			}
			if v > s.Max {
				s.Max = v
			}
		}
		if s.Count > 0 {
			s.Avg /= float64(s.Count)
		} else {
			s.Min = 0
		}
		return s
	}
	return []PriceStats{
		collect("Monthly", func(p PlanPrices) float64 { return p.Monthly }),
		collect("Quarterly", func(p PlanPrices) float64 { return p.Quarterly }),
		collect("6 Months", func(p PlanPrices) float64 { return p.SixMonth }),
		collect("Annual", func(p PlanPrices) float64 { return p.Annual }),
	}
}

// CountBy tallies entries matching pred.
func CountBy(entries []CatalogEntry, pred func(CatalogEntry) bool) int {
	n := 0
	for _, e := range entries {
		if pred(e) {
			n++
		}
	}
	return n
}

// PaymentCounts tallies Figure 4's per-method provider counts.
func PaymentCounts(entries []CatalogEntry) map[string]int {
	out := map[string]int{}
	for _, e := range entries {
		for _, p := range e.Payments {
			out[p]++
		}
	}
	return out
}

// ProtocolCounts tallies Figure 5's per-protocol provider counts.
func ProtocolCounts(entries []CatalogEntry) map[string]int {
	out := map[string]int{}
	for _, e := range entries {
		for _, p := range e.Protocols {
			out[p]++
		}
	}
	return out
}

// BusinessLocationCounts tallies Figure 1's country histogram, sorted
// descending.
func BusinessLocationCounts(entries []CatalogEntry) []struct {
	Country geo.Country
	Count   int
} {
	m := map[geo.Country]int{}
	for _, e := range entries {
		m[e.BusinessCountry]++
	}
	out := make([]struct {
		Country geo.Country
		Count   int
	}, 0, len(m))
	for c, n := range m {
		out = append(out, struct {
			Country geo.Country
			Count   int
		}{c, n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Country < out[j].Country
	})
	return out
}

// ClaimedServerCounts extracts Figure 2's sample.
func ClaimedServerCounts(entries []CatalogEntry) []float64 {
	out := make([]float64, 0, len(entries))
	for _, e := range entries {
		out = append(out, float64(e.ClaimedServers))
	}
	return out
}

// Lookup returns the catalog entry by name.
func Lookup(entries []CatalogEntry, name string) (CatalogEntry, error) {
	for _, e := range entries {
		if e.Name == name {
			return e, nil
		}
	}
	return CatalogEntry{}, fmt.Errorf("ecosystem: no catalog entry %q", name)
}
