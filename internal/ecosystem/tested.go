package ecosystem

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"vpnscope/internal/geo"
	"vpnscope/internal/netsim"
	"vpnscope/internal/simrand"
	"vpnscope/internal/vpn"
)

// testedVPN is one row of the paper's Appendix A: an evaluated service
// and the subscription type used.
type testedVPN struct {
	Name         string
	Subscription SubscriptionKind
}

// testedVPNs reproduces Appendix A (Table 7): the 62 services evaluated,
// keeping the paper's spellings.
var testedVPNs = []testedVPN{
	{"AceVPN", SubPaid}, {"AirVPN", SubPaid}, {"Anonine", SubPaid},
	{"Avast", SubTrial}, {"Avira", SubTrial}, {"Betternet", SubFree},
	{"Boxpn", SubPaid}, {"Buffered VPN", SubPaid}, {"BulletVPN", SubPaid},
	{"Celo.net", SubTrial}, {"CrypticVPN", SubPaid}, {"CyberGhost", SubPaid},
	{"Encrypt.me", SubTrial}, {"ExpressVPN", SubPaid}, {"FinchVPN", SubPaid},
	{"FlowVPN", SubTrial}, {"FlyVPN", SubPaid}, {"Freedome VPN", SubPaid},
	{"Freedom IP", SubPaid}, {"Goose VPN", SubPaid}, {"GoTrusted VPN", SubPaid},
	{"HideIPVPN", SubTrial}, {"HideMyAss", SubPaid}, {"Hotspot Shield", SubPaid},
	{"IB VPN", SubTrial}, {"IPVanish", SubPaid}, {"Ironsocket", SubPaid},
	{"Le VPN", SubPaid}, {"LimeVPN", SubPaid}, {"LiquidVPN", SubPaid},
	{"Mullvad", SubPaid}, {"MyIP.io", SubPaid}, {"NordVPN", SubPaid},
	{"NVPN", SubPaid}, {"PrivateVPN", SubTrial}, {"Private Tunnel", SubTrial},
	{"Private Internet Access", SubPaid}, {"ProtonVPN", SubFree}, {"ProxVPN", SubFree},
	{"PureVPN", SubPaid}, {"RA4W VPN", SubPaid}, {"SaferVPN", SubTrial},
	{"SecureVPN", SubTrial}, {"Seed4.me", SubTrial}, {"ShadeYouVPN", SubTrial},
	{"Shellfire", SubFree}, {"Steganos Online Shield", SubTrial}, {"SurfEasy", SubTrial},
	{"SwitchVPN", SubTrial}, {"TorVPN", SubTrial}, {"Trust.zone", SubTrial},
	{"TunnelBear", SubFree}, {"VPNBook", SubFree}, {"VPNUK", SubTrial},
	{"VPNLand", SubTrial}, {"VPN Gate", SubFree}, {"VPN Monster", SubTrial},
	{"VPN.ht", SubPaid}, {"WorldVPN", SubTrial}, {"Windscribe", SubTrial},
	{"ZenVPN", SubTrial}, {"Zoog VPN", SubTrial},
}

// Ground-truth behavior plants, straight from §6's findings.
var (
	// §6.5: providers whose clients leaked on induced tunnel failure —
	// including five marquee names that ship kill switches disabled or
	// per-app. The full fail-open set is filled to 25 of the 43
	// custom-client providers below.
	namedFailOpen = []string{"NordVPN", "ExpressVPN", "TunnelBear", "Hotspot Shield", "IPVanish"}

	// Table 6.
	dnsLeakers  = []string{"Freedome VPN", "WorldVPN"}
	ipv6Leakers = []string{
		"Buffered VPN", "BulletVPN", "FlyVPN", "HideIPVPN",
		"Le VPN", "LiquidVPN", "PrivateVPN", "Zoog VPN",
		"Private Tunnel", "Seed4.me", "VPN.ht", "WorldVPN",
	}

	// §6.2.1: transparent proxies.
	transparentProxies = []string{"AceVPN", "Freedome VPN", "SurfEasy", "CyberGhost", "VPN Gate"}

	// §6.1.3: the single content injector.
	injectors = []string{"Seed4.me"}

	// §6.4.2: providers with virtual vantage points.
	virtualVPProviders = []string{"HideMyAss", "Avira", "Le VPN", "Freedom IP", "MyIP.io", "VPNUK"}

	// §7 WebRTC audit: desktop clients generally cannot suppress the
	// browser's ICE gathering; only providers shipping a companion
	// browser extension mask it.
	webrtcMaskers = []string{"Windscribe", "NordVPN", "CyberGhost", "Betternet"}

	// §6.5: providers relying on third-party OpenVPN clients. Their
	// configs cannot set DNS or block IPv6, so DNS/IPv6 leak tests
	// were skipped for them, leaving 43 providers with their own
	// clients (the paper's "applicable services" denominator).
	thirdPartyClients = []string{
		"AirVPN", "Anonine", "Boxpn", "CrypticVPN", "FinchVPN",
		"GoTrusted VPN", "IB VPN", "Ironsocket", "LimeVPN", "Mullvad",
		"NVPN", "RA4W VPN", "SecureVPN", "ShadeYouVPN",
		"SwitchVPN", "TorVPN", "Trust.zone", "VPNBook", "VPNLand",
	}
)

// sharedBlocks reproduces Table 5: address blocks hosting vantage
// points of at least three providers, with the advertised country.
var sharedBlocks = []struct {
	prefix    string
	asn       int
	country   geo.Country
	city      string
	providers []string
}{
	{"82.102.27.0/24", 9009, "NO", "Oslo", []string{"IPVanish", "AirVPN", "CyberGhost"}},
	{"94.242.192.0/18", 5577, "LU", "Luxembourg", []string{"AceVPN", "CyberGhost", "Anonine"}},
	{"139.59.0.0/18", 14061, "IN", "Bangalore", []string{"RA4W VPN", "LimeVPN", "Ironsocket"}},
	{"169.57.0.0/17", 36351, "MX", "Mexico City", []string{"AceVPN", "TunnelBear", "Freedome VPN"}},
	{"179.43.128.0/18", 51852, "CH", "Zurich", []string{"IPVanish", "AceVPN", "Anonine", "HideMyAss"}},
	{"185.108.128.0/22", 30900, "IE", "Dublin", []string{"AceVPN", "TunnelBear", "CyberGhost"}},
	{"202.176.4.0/24", 55720, "MY", "Kuala Lumpur", []string{"IPVanish", "Boxpn", "Anonine"}},
	{"209.58.176.0/21", 59253, "SG", "Singapore", []string{"HideIPVPN", "VPNLand", "CyberGhost"}},
}

// censorshipPlants places vantage points inside censoring countries so
// Table 4's redirect counts reproduce: N providers per destination.
var censorshipPlants = []struct {
	country   geo.Country
	city      string
	org       string // chooses the ISP block page
	providers []string
}{
	{"TR", "Istanbul", "TurkNet Sim", []string{
		"HideMyAss", "PureVPN", "CyberGhost", "ExpressVPN",
		"IPVanish", "VPNLand", "FlyVPN", "Ironsocket"}},
	{"KR", "Seoul", "Korea Telecom Sim", []string{
		"HideMyAss", "PureVPN", "FlyVPN", "ExpressVPN", "VPN Gate"}},
	{"RU", "Moscow", "TTK Backbone", []string{
		"HideMyAss", "PureVPN", "CyberGhost", "Windscribe"}},
	{"RU", "St Petersburg", "Hoztnode Networks", []string{
		"ExpressVPN", "Trust.zone"}},
	{"RU", "Moscow", "Rostelecom Sim", []string{"IPVanish"}},
	{"RU", "Moscow", "MTS Backbone", []string{"FlyVPN"}},
	{"RU", "Moscow", "DTLN Hosting", []string{"VPNLand"}},
	{"RU", "St Petersburg", "Beeline Net", []string{"Ironsocket"}},
	{"NL", "Amsterdam", "Ziggo Sim", []string{"NordVPN"}},
	{"NL", "Amsterdam", "NL Hosting Sim", []string{"Mullvad"}},
	{"TH", "Bangkok", "Thai ISP Sim", []string{"FlyVPN"}},
}

// boxpnAnonineShared reproduces §6.3: Boxpn and Anonine sharing four
// identical vantage-point addresses inside a reseller's block.
var boxpnAnonineShared = struct {
	prefix string
	org    string
	city   string
	count  int
}{"193.200.164.0/24", "EasyHide Reseller Sim", "Stockholm", 4}

// standardCountries is the rotation used for ordinary vantage points.
var standardCountries = []struct {
	country geo.Country
	city    string
}{
	{"US", "New York"}, {"US", "Dallas"}, {"GB", "London"}, {"DE", "Frankfurt"},
	{"FR", "Paris"}, {"NL", "Amsterdam"}, {"SE", "Stockholm"}, {"CA", "Toronto"},
	{"SG", "Singapore"}, {"JP", "Tokyo"}, {"AU", "Sydney"}, {"CH", "Zurich"},
	{"ES", "Madrid"}, {"IT", "Milan"}, {"PL", "Warsaw"}, {"RO", "Bucharest"},
	{"BR", "Sao Paulo"}, {"IN", "Mumbai"}, {"HK", "Hong Kong"}, {"ZA", "Johannesburg"},
}

// TestedSpecs builds the 62 vpn.ProviderSpecs with every §6 ground
// truth planted: fail-open clients, leaky DNS/IPv6 defaults,
// transparent proxies, the injector, virtual vantage points, shared
// infrastructure, and vantage points inside censoring countries.
// vpsPerProvider is the baseline vantage-point count for ordinary
// providers (the paper evaluated ~5 per manually-tested provider).
func TestedSpecs(seed uint64, vpsPerProvider int) []vpn.ProviderSpec {
	if vpsPerProvider <= 0 {
		vpsPerProvider = 5
	}
	rng := simrand.New(seed).Fork("tested-specs")
	in := func(list []string, name string) bool {
		for _, n := range list {
			if n == name {
				return true
			}
		}
		return false
	}

	// Fill the fail-open set to 25 custom-client providers: the five
	// named ones plus a deterministic draw.
	customClients := make([]string, 0, 43)
	for _, tv := range testedVPNs {
		if !in(thirdPartyClients, tv.Name) {
			customClients = append(customClients, tv.Name)
		}
	}
	failOpen := map[string]bool{}
	for _, n := range namedFailOpen {
		failOpen[n] = true
	}
	perm := rng.Perm(len(customClients))
	for _, idx := range perm {
		if len(failOpen) >= 25 {
			break
		}
		failOpen[customClients[idx]] = true
	}

	sharedByProvider := map[string][]vpn.VantagePointSpec{}
	for _, sb := range sharedBlocks {
		blk := netsim.Block{
			Prefix:  netip.MustParsePrefix(sb.prefix),
			ASN:     sb.asn,
			Org:     "Shared Hosting " + string(sb.country),
			Country: string(sb.country),
		}
		for _, p := range sb.providers {
			sharedByProvider[p] = append(sharedByProvider[p], vpn.VantagePointSpec{
				ClaimedCountry: sb.country,
				ActualCity:     sb.city,
				Block:          &blk,
			})
		}
	}
	for _, cp := range censorshipPlants {
		blk := netsim.Block{
			Prefix:  censorBlockPrefix(cp.org),
			ASN:     65000 + len(cp.org),
			Org:     cp.org,
			Country: string(cp.country),
		}
		for _, p := range cp.providers {
			sharedByProvider[p] = append(sharedByProvider[p], vpn.VantagePointSpec{
				ClaimedCountry: cp.country,
				ActualCity:     cp.city,
				Block:          &blk,
				// Censoring-country endpoints answered dependably
				// enough to document Table 4's redirects.
				Reliability: 0.97,
			})
		}
	}
	// Boxpn/Anonine identical endpoints.
	{
		blk := netsim.Block{
			Prefix:  netip.MustParsePrefix(boxpnAnonineShared.prefix),
			ASN:     64997,
			Org:     boxpnAnonineShared.org,
			Country: "SE",
		}
		base := blk.Prefix.Addr()
		for i := 0; i < boxpnAnonineShared.count; i++ {
			base = base.Next()
			for _, p := range []string{"Boxpn", "Anonine"} {
				sharedByProvider[p] = append(sharedByProvider[p], vpn.VantagePointSpec{
					ClaimedCountry: "SE",
					ActualCity:     boxpnAnonineShared.city,
					Block:          &blk,
					Addr:           base,
				})
			}
		}
	}

	specs := make([]vpn.ProviderSpec, 0, len(testedVPNs))
	for _, tv := range testedVPNs {
		name := tv.Name
		spec := vpn.ProviderSpec{
			Name:   name,
			Domain: domainOf(name),
			Client: vpn.CustomClient,
			Behavior: vpn.Behavior{
				SetsDNS:               !in(dnsLeakers, name),
				SupportsIPv6:          false,
				BlocksIPv6:            !in(ipv6Leakers, name),
				TransparentProxy:      in(transparentProxies, name),
				InjectContent:         in(injectors, name),
				MasksWebRTC:           in(webrtcMaskers, name),
				FailOpen:              failOpen[name],
				FailureDetectionDelay: time.Duration(20+rng.Intn(60)) * time.Second,
			},
		}
		if in(thirdPartyClients, name) {
			spec.Client = vpn.ThirdPartyOpenVPN
			// OpenVPN configs can't express DNS/IPv6 protections: the
			// stack keeps its own resolver and v6 default. (The paper
			// skipped these tests for such providers.)
			spec.SetsDNS = false
			spec.BlocksIPv6 = false
			// Third-party clients fail closed only by the accident of
			// dead routes; model them as fail-open with a long delay.
			spec.FailOpen = failOpen[name]
		}
		leaky := in(dnsLeakers, name) || in(ipv6Leakers, name)
		switch {
		case failOpen[name] && in(namedFailOpen, name):
			// Marquee providers ship a kill switch, just disabled or
			// per-app (§6.5).
			if name == "NordVPN" {
				spec.KillSwitch = vpn.KillSwitchPerApp
			} else {
				spec.KillSwitch = vpn.KillSwitchOffByDefault
			}
		case !failOpen[name] && !leaky && spec.Client == vpn.CustomClient && rng.Bool(0.3):
			// An always-on kill switch would mask the planted DNS/IPv6
			// leaks, so only non-leaky providers may ship one.
			spec.KillSwitch = vpn.KillSwitchOnByDefault
		default:
			spec.KillSwitch = vpn.KillSwitchNone
		}

		// Vantage points: planted shared/censored ones first, then the
		// virtual-VP scenarios, then ordinary rotation to the baseline
		// count.
		vps := append([]vpn.VantagePointSpec(nil), sharedByProvider[name]...)
		vps = append(vps, virtualVPSpecs(name, rng)...)
		i := rng.Intn(len(standardCountries))
		for len(vps) < vpsPerProvider {
			sc := standardCountries[i%len(standardCountries)]
			i++
			vps = append(vps, vpn.VantagePointSpec{
				ClaimedCountry: sc.country,
				ActualCity:     sc.city,
			})
		}
		spec.VantagePoints = vps
		specs = append(specs, spec)
	}
	return specs
}

// virtualVPSpecs plants the §6.4.2 scenarios for the six providers the
// paper names.
func virtualVPSpecs(name string, rng *simrand.Source) []vpn.VantagePointSpec {
	v := func(claimed geo.Country, actualCity string) vpn.VantagePointSpec {
		return vpn.VantagePointSpec{ClaimedCountry: claimed, ActualCity: actualCity, SeedsGeoDB: true}
	}
	switch name {
	case "Avira":
		// The 'US' vantage point that pings Europe in <9ms.
		return []vpn.VantagePointSpec{v("US", "Frankfurt")}
	case "MyIP.io":
		// US+FR co-located in Montreal; BE+DE+FI co-located in London.
		return []vpn.VantagePointSpec{
			v("US", "Montreal"), v("FR", "Montreal"),
			v("BE", "London"), v("DE", "London"), v("FI", "London"),
		}
	case "Le VPN":
		// Exotic claims served from one European site (Figure 9a).
		return []vpn.VantagePointSpec{
			v("BZ", "Paris"), v("CL", "Paris"), v("EE", "Paris"),
			v("IR", "Paris"), v("SA", "Paris"), v("VE", "Paris"),
		}
	case "Freedom IP":
		return []vpn.VantagePointSpec{v("JP", "Amsterdam"), v("AU", "Amsterdam")}
	case "VPNUK":
		return []vpn.VantagePointSpec{v("AE", "London"), v("IN", "London")}
	case "HideMyAss":
		// Dozens of claimed locations out of a handful of data centers:
		// Americas from Seattle and Miami, EMEA+Asia from Prague,
		// London, Berlin (§6.4.2, Figure 9c).
		physical := []string{"Seattle", "Miami", "Prague", "London", "Berlin"}
		claims := []geo.Country{
			"US", "CA", "MX", "PA", "BZ", "BR", "AR", "CL", "VE",
			"GB", "IE", "FR", "DE", "NL", "BE", "LU", "CH", "AT", "IT",
			"ES", "PT", "SE", "NO", "DK", "FI", "IS", "PL", "CZ", "SK",
			"HU", "RO", "BG", "GR", "RS", "UA", "EE", "LV", "LT", "MD",
			"IL", "SA", "AE", "IR", "EG", "ZA", "NG", "KE", "SC", "IN",
			"PK", "CN", "HK", "TW", "JP", "KR", "KP", "SG", "MY", "TH",
			"VN", "ID", "PH", "AU", "NZ", "SY",
		}
		var out []vpn.VantagePointSpec
		for i, c := range claims {
			// Americas claims out of the US sites, everything else out
			// of the European sites.
			var city string
			switch c {
			case "US", "CA", "MX", "PA", "BZ", "BR", "AR", "CL", "VE":
				city = physical[i%2] // Seattle or Miami
			default:
				city = physical[2+i%3] // Prague, London or Berlin
			}
			spec := v(c, city)
			spec.Reliability = 0.97 // HMA endpoints answered dependably
			out = append(out, spec)
			// A second claimed city in large countries pads the list
			// toward the paper's 148 analyzed endpoints.
			if i%2 == 0 {
				out = append(out, spec)
			}
		}
		return out
	default:
		return nil
	}
}

// censorBlockPrefix derives a stable /24 for a national ISP's hosting
// range inside 185.220.0.0/16.
func censorBlockPrefix(org string) netip.Prefix {
	var h uint64 = 0xCBF29CE484222325
	for i := 0; i < len(org); i++ {
		h ^= uint64(org[i])
		h *= 0x100000001B3
	}
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{185, 220, byte(h >> 8), 0}), 24)
}

// domainReplacer strips a display name down to a domain label. A
// Replacer is safe for concurrent use and costly to build, so it is
// built once, not on each of the thousands of domainOf calls a daemon
// makes (every build runs TestedSpecs over all 62 providers).
var domainReplacer = strings.NewReplacer(" ", "", ".", "-")

// domainOf derives a provider's web domain from its display name.
func domainOf(name string) string {
	return domainReplacer.Replace(strings.ToLower(name)) + ".example"
}

// P2PDemoSpec returns a Hola-style peer-to-peer VPN provider — the
// provider class the paper left as future work (§6.6). It is NOT part
// of the 62 evaluated services; it exists so the suite's unexpected-DNS
// detector can be demonstrated against a positive case.
func P2PDemoSpec() vpn.ProviderSpec {
	return vpn.ProviderSpec{
		Name:   "HolaSim",
		Domain: "holasim.example",
		Client: vpn.CustomClient,
		Behavior: vpn.Behavior{
			SetsDNS:               true,
			PeerExit:              true,
			FailOpen:              true,
			FailureDetectionDelay: 30 * time.Second,
		},
		VantagePoints: []vpn.VantagePointSpec{
			{ClaimedCountry: "US", ActualCity: "New York", Reliability: 1},
			{ClaimedCountry: "GB", ActualCity: "London", Reliability: 1},
		},
	}
}

// TestedNames returns the evaluated providers in Appendix A order.
func TestedNames() []string {
	out := make([]string, len(testedVPNs))
	for i, tv := range testedVPNs {
		out[i] = tv.Name
	}
	return out
}

// SubscriptionOf returns the account type used for a tested provider.
func SubscriptionOf(name string) (SubscriptionKind, error) {
	for _, tv := range testedVPNs {
		if tv.Name == name {
			return tv.Subscription, nil
		}
	}
	return "", fmt.Errorf("ecosystem: %q was not an evaluated provider", name)
}
