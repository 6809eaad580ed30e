package analysis

import (
	"sort"
)

// LeakSummary is the §6.5 aggregation (Table 6 plus the tunnel-failure
// headline numbers).
type LeakSummary struct {
	// DNSLeakers and IPv6Leakers are providers whose client defaults
	// leaked (Table 6).
	DNSLeakers  []string
	IPv6Leakers []string
	// FailOpen lists providers that leaked during induced tunnel
	// failure; Applicable counts providers the failure test ran
	// against (those with their own client software).
	FailOpen   []string
	Applicable int
	// LeakTested counts providers the DNS/IPv6 leak tests ran against.
	LeakTested int
}

// FailOpenRate returns the §6.5 headline: the share of applicable
// providers leaking on tunnel failure (the paper: 25/43 = 58%).
func (s LeakSummary) FailOpenRate() float64 {
	if s.Applicable == 0 {
		return 0
	}
	return float64(len(s.FailOpen)) / float64(s.Applicable)
}

// Leaks aggregates the leakage results across all reports.
func Leaks(reports Reports) LeakSummary {
	dns := map[string]bool{}
	v6 := map[string]bool{}
	failOpen := map[string]bool{}
	leakTested := map[string]bool{}
	failTested := map[string]bool{}
	for r := range reports {
		if r.Leaks != nil {
			leakTested[r.Provider] = true
			if r.Leaks.DNSLeak {
				dns[r.Provider] = true
			}
			if r.Leaks.IPv6Leak {
				v6[r.Provider] = true
			}
		}
		if r.Failure != nil {
			failTested[r.Provider] = true
			if r.Failure.Leaked {
				failOpen[r.Provider] = true
			}
		}
	}
	return LeakSummary{
		DNSLeakers:  sortedKeys(dns),
		IPv6Leakers: sortedKeys(v6),
		FailOpen:    sortedKeys(failOpen),
		Applicable:  len(failTested),
		LeakTested:  len(leakTested),
	}
}

// ReliabilitySummary reproduces the §5.2 observation: per-region vantage
// point connect failure rates.
type ReliabilitySummary struct {
	Attempted int
	Failed    int
	// FailedByCountry counts connect failures per claimed country.
	FailedByCountry map[string]int
}

// ConnectReliability tabulates connection failures (fed by the study's
// failure list plus total attempts).
func ConnectReliability(attempted int, failures []string) ReliabilitySummary {
	out := ReliabilitySummary{Attempted: attempted, Failed: len(failures), FailedByCountry: map[string]int{}}
	for _, label := range failures {
		// Labels look like "Provider#3 (IR)".
		country := ""
		if i := lastIndexByte(label, '('); i >= 0 && len(label) > i+3 {
			country = label[i+1 : i+3]
		}
		out.FailedByCountry[country]++
	}
	return out
}

func lastIndexByte(s string, b byte) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// DNSManipulationSummary lists providers with suspicious resolver
// diffs (§6.1: the paper found none beyond censorship).
func DNSManipulationSummary(reports Reports) []string {
	seen := map[string]bool{}
	for r := range reports {
		if r.DNS != nil && r.DNS.Manipulated() {
			seen[r.Provider] = true
		}
	}
	return sortedKeys(seen)
}

// WebRTCSummary is the §7 WebRTC-leak aggregation.
type WebRTCSummary struct {
	// Exposed lists providers through which the probe page learned the
	// client's real address.
	Exposed []string
	// Masked lists providers that suppressed local-candidate gathering.
	Masked []string
}

// WebRTCLeaks aggregates the WebRTC audit across all reports.
func WebRTCLeaks(reports Reports) WebRTCSummary {
	exposed := map[string]bool{}
	masked := map[string]bool{}
	for r := range reports {
		if r.WebRTC == nil {
			continue
		}
		if r.WebRTC.RealAddressExposed {
			exposed[r.Provider] = true
		} else {
			masked[r.Provider] = true
		}
	}
	// A provider counts as masked only if it never exposed anywhere.
	for p := range exposed {
		delete(masked, p)
	}
	return WebRTCSummary{Exposed: sortedKeys(exposed), Masked: sortedKeys(masked)}
}

// P2PSummary lists providers whose member machines emitted DNS traffic
// the suite never issued — evidence of peer-exit routing (§6.6). The
// paper found none among its 62; the detector fires only on the
// PeerExit extension providers.
type P2PSummary struct {
	// Exiting maps provider name to the distinct unexpected query
	// names observed from its client.
	Exiting map[string][]string
	// Tested counts providers the detection ran against.
	Tested int
}

// PeerExits aggregates the §6.6 detection across all reports.
func PeerExits(reports Reports) P2PSummary {
	s := P2PSummary{Exiting: map[string][]string{}}
	tested := map[string]bool{}
	for r := range reports {
		if r.P2P == nil {
			continue
		}
		tested[r.Provider] = true
		if r.P2P.PeerExit() {
			names := s.Exiting[r.Provider]
			for _, q := range r.P2P.UnexpectedQueries {
				if !containsStr(names, q) {
					names = append(names, q)
				}
			}
			sort.Strings(names)
			s.Exiting[r.Provider] = names
		}
	}
	s.Tested = len(tested)
	return s
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
