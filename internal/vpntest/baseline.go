package vpntest

import (
	"fmt"
	"net/netip"

	"vpnscope/internal/websim"
)

// Baseline is the known-unmodified ground truth the paper collected
// "from a university IP several times per day": reference DOMs,
// resource host sets, certificate fingerprints, and DNS answers. Every
// manipulation test diffs against it.
type Baseline struct {
	// DOM maps a DOM-test URL to its reference document body.
	DOM map[string]string
	// ResourceHosts maps a DOM-test URL to the hostnames its page
	// legitimately references (the injection whitelist).
	ResourceHosts map[string]map[string]bool
	// CertFingerprints maps a TLS hostname to its reference
	// certificate fingerprint.
	CertFingerprints map[string]uint64
	// DNSAnswers maps hostnames to the answer from a trusted resolver.
	DNSAnswers map[string]netip.Addr
	// FinalStatus maps each TLS-test hostname to the status of a
	// clean HTTP-then-redirect page load.
	FinalStatus map[string]int
}

// CollectBaseline gathers ground truth from a clean (non-VPN) vantage
// point. The client must be resolving through a trusted resolver.
func CollectBaseline(cfg *Config, client *websim.Client) (*Baseline, error) {
	b := &Baseline{
		DOM:              make(map[string]string),
		ResourceHosts:    make(map[string]map[string]bool),
		CertFingerprints: make(map[string]uint64),
		DNSAnswers:       make(map[string]netip.Addr),
		FinalStatus:      make(map[string]int),
	}
	for _, u := range cfg.DOMSiteURLs {
		_, hosts, dom, err := client.LoadPage(u)
		if err != nil {
			return nil, fmt.Errorf("vpntest: baseline DOM for %s: %w", u, err)
		}
		b.DOM[u] = dom
		set := make(map[string]bool, len(hosts))
		for _, h := range hosts {
			set[h] = true
		}
		b.ResourceHosts[u] = set
	}
	for _, host := range cfg.TLSHosts {
		chain, err := client.Get("https://" + host + "/")
		if err != nil {
			return nil, fmt.Errorf("vpntest: baseline cert for %s: %w", host, err)
		}
		final := chain[len(chain)-1]
		if !final.TLS {
			return nil, fmt.Errorf("vpntest: baseline for %s not TLS", host)
		}
		b.CertFingerprints[host] = final.Cert.Fingerprint()

		httpChain, err := client.Get("http://" + host + "/")
		if err != nil {
			return nil, fmt.Errorf("vpntest: baseline http for %s: %w", host, err)
		}
		b.FinalStatus[host] = httpChain[len(httpChain)-1].Response.Status
	}
	for _, host := range cfg.DNSCheckHosts {
		addr, err := client.Resolve(host, false)
		if err != nil {
			return nil, fmt.Errorf("vpntest: baseline DNS for %s: %w", host, err)
		}
		b.DNSAnswers[host] = addr
	}
	return b, nil
}
