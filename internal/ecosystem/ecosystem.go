// Package ecosystem holds the study's provider catalog: the data the
// paper gathered by crawling review sites and provider websites (§3-§4),
// plus the construction specs for the 62 services the paper actively
// evaluated (§5, Appendix A).
//
// Facts the paper publishes (review-site list, evaluated-provider list,
// leak tables, shared address blocks, censorship destinations) are
// embedded verbatim as data. Per-provider fields the paper reports only
// in aggregate (prices, payment methods, platform support...) are
// synthesized from a seeded generator fit to those aggregates, so the
// ecosystem tables and figures regenerate with the paper's shape.
package ecosystem

import (
	"vpnscope/internal/geo"
)

// SubscriptionKind is the account type used for evaluation (Table 7).
type SubscriptionKind string

// Subscription kinds.
const (
	SubPaid  SubscriptionKind = "Paid"
	SubTrial SubscriptionKind = "Trial"
	SubFree  SubscriptionKind = "Free"
)

// PlanPrices is a provider's monthly-equivalent price per plan length.
// Zero means the plan is not offered.
type PlanPrices struct {
	Monthly   float64
	Quarterly float64
	SixMonth  float64
	Annual    float64
}

// Protocol names used across Figure 5.
const (
	ProtoOpenVPN = "OpenVPN"
	ProtoPPTP    = "PPTP"
	ProtoIPsec   = "IPsec"
	ProtoSSTP    = "SSTP"
	ProtoSSL     = "SSL"
	ProtoSSH     = "SSH"
)

// PaymentMethod names used across Figure 4.
const (
	PayVisa       = "Visa"
	PayMastercard = "MC"
	PayAmex       = "Amex"
	PayPaypal     = "Paypal"
	PayAlipay     = "Alipay"
	PayWebMoney   = "WM"
	PayBitcoin    = "Bitcoin"
	PayEthereum   = "ETH"
	PayLitecoin   = "Lite"
)

// CatalogEntry is one provider's ecosystem-analysis record (§4).
type CatalogEntry struct {
	Name            string
	Domain          string
	BusinessCountry geo.Country
	Founded         int
	// ClaimedServers and ClaimedCountries are the marketing numbers
	// from the provider's site (Figure 2, §4).
	ClaimedServers   int
	ClaimedCountries int
	Prices           PlanPrices
	LongTermPlan     bool // two-year/five-year/lifetime offers (19 of 200)
	FreeOrTrial      bool // 45% of the catalog
	RefundDays       int  // 0 = none; 7 is the modal policy
	Payments         []string
	Protocols        []string
	// Platform support flags (§4 Platform Support).
	Windows, MacOS, Linux, Android, IOS bool
	BrowserOnly                         bool
	// Marketing & transparency (§4).
	HasFacebook, HasTwitter bool
	AffiliateProgram        bool
	HasPrivacyPolicy        bool
	HasTermsOfService       bool
	PrivacyPolicyWords      int
	ClaimsNoLogs            bool
	ClaimsKillSwitch        bool
	VPNOverTor              bool
	AllowsP2P               bool
	MilitaryGradeMarketing  bool
	// Selection-category provenance (Table 2; non-exclusive).
	FromPopular, FromReddit, FromPersonal     bool
	FromCheapFree, FromMultiLang, FromManyVPs bool
	FromOther                                 bool
	// Tested is non-nil for the 62 actively evaluated services.
	Tested *TestedInfo
}

// TestedInfo marks an actively evaluated provider (Appendix A).
type TestedInfo struct {
	Subscription SubscriptionKind
}

// ReviewSite is one row of Table 1.
type ReviewSite struct {
	Domain    string
	Affiliate bool
}

// ReviewSites reproduces Table 1: the websites used to populate the
// aggregated VPN list, with their affiliate-marketing status.
func ReviewSites() []ReviewSite {
	return []ReviewSite{
		{"360topreviews.com", true},
		{"bbestvpn.com", true},
		{"best.offers.com", true},
		{"bestvpn4u.com", true},
		{"freedomhacker.net", true},
		{"ign.com", true},
		{"pcmag.com", true},
		{"pcworld.com", true},
		{"reddit.com", false},
		{"securethoughts.com", true},
		{"techsupportalert.com", true},
		{"thatoneprivacysite.net", false},
		{"tomsguide.com", true},
		{"top10fastvpns.com", true},
		{"torrentfreak.com", true},
		{"trustedreviews.com", true},
		{"vpnfan.com", true},
		{"vpnmentor.com", true},
		{"vpnsrus.com", true},
		{"vpnservice.reviews", true},
	}
}

// CategoryCounts reproduces Table 2: providers per (overlapping)
// selection source.
type CategoryCounts struct {
	Popular, Reddit, Personal            int
	CheapFree, MultiLang, ManyVPs, Other int
	Total                                int
}

// Categories tallies the catalog's selection categories.
func Categories(entries []CatalogEntry) CategoryCounts {
	var c CategoryCounts
	for _, e := range entries {
		if e.FromPopular {
			c.Popular++
		}
		if e.FromReddit {
			c.Reddit++
		}
		if e.FromPersonal {
			c.Personal++
		}
		if e.FromCheapFree {
			c.CheapFree++
		}
		if e.FromMultiLang {
			c.MultiLang++
		}
		if e.FromManyVPs {
			c.ManyVPs++
		}
		if e.FromOther {
			c.Other++
		}
	}
	c.Total = len(entries)
	return c
}
