package analysis

import (
	"fmt"
	"sort"

	"vpnscope/internal/geo"
	"vpnscope/internal/stats"
	"vpnscope/internal/vpntest"
)

// speedOfLightKmPerMs is the hard physical bound on how far a packet can
// travel per millisecond of RTT (two-way, in fiber it is lower still, so
// using c keeps the test conservative).
const speedOfLightKmPerMs = 300.0

// VirtualVPFinding flags one vantage point whose ping profile is
// inconsistent with its claimed country (§6.4.2).
type VirtualVPFinding struct {
	Provider string
	VPLabel  string
	Claimed  geo.Country
	// Witness is the landmark whose RTT makes the claim physically
	// impossible.
	Witness     string
	WitnessRTT  float64 // ms, offset-corrected
	BoundKm     float64 // max distance implied by the RTT
	ClaimDistKm float64 // actual distance from claimed country to witness
	// NearestLandmark is the best location estimate.
	NearestLandmark string
	NearestCountry  geo.Country
}

// CoLocationCluster groups vantage points of one provider whose ping
// vectors are near-identical — physically the same machine or rack —
// despite claiming different countries (Figure 9's correlated series).
type CoLocationCluster struct {
	Provider string
	VPLabels []string
	Claimed  []geo.Country
}

// VirtualVPReport is the full §6.4.2 output.
type VirtualVPReport struct {
	Findings []VirtualVPFinding
	Clusters []CoLocationCluster
	// Providers lists every provider with at least one finding or
	// multi-country cluster.
	Providers []string
}

// pingOffset returns the client-to-vantage-point RTT offset to subtract
// from landmark samples. The self RTT cannot physically exceed the
// smallest landmark RTT — every landmark path includes the client-to-VP
// leg — so a self sample inflated past it (queueing noise, an injected
// latency spike surviving min-of-three) is clamped to the smallest
// landmark sample; trusting it would turn honest landmark RTTs into
// "physically impossible" ones.
func pingOffset(r *vpntest.VPReport) float64 {
	offset := r.Pings.SelfRTT
	if offset < 0 {
		offset = 0
	}
	if m, ok := r.Pings.MinSample(); ok && offset > m.RTTms {
		offset = m.RTTms
	}
	return offset
}

// pingRec is the distilled per-vantage-point record the co-location
// clustering needs — identity plus the raw ping vector. Keeping these
// instead of whole reports bounds DetectVirtualVPs' memory to a few
// hundred bytes per vantage point on streamed campaigns.
type pingRec struct {
	label   string
	claimed geo.Country
	vec     []float64
}

// DetectVirtualVPs runs both §6.4.2 analyses: the physical-impossibility
// test per vantage point, and co-location clustering within providers.
// The stream is consumed in a single pass; only distilled ping vectors
// are retained for clustering.
func DetectVirtualVPs(reports Reports, cfg *vpntest.Config) VirtualVPReport {
	out := VirtualVPReport{}
	providers := map[string]bool{}

	byProvider := map[string][]pingRec{}
	for r := range reports {
		// Per-VP impossibility test.
		if f, ok := impossibilityTest(r, cfg); ok {
			out.Findings = append(out.Findings, f)
			providers[r.Provider] = true
		}
		// Distill what clustering needs.
		if r.Pings != nil && len(r.Pings.Samples) > 0 {
			byProvider[r.Provider] = append(byProvider[r.Provider], pingRec{
				label:   r.VPLabel,
				claimed: r.ClaimedCountry,
				vec:     r.Pings.Vector(cfg),
			})
		}
	}

	// Co-location clustering per provider.
	names := make([]string, 0, len(byProvider))
	for name := range byProvider {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, cluster := range clusterRecs(byProvider[name]) {
			countries := map[geo.Country]bool{}
			cc := CoLocationCluster{Provider: name}
			for _, rec := range cluster {
				cc.VPLabels = append(cc.VPLabels, rec.label)
				if !countries[rec.claimed] {
					countries[rec.claimed] = true
					cc.Claimed = append(cc.Claimed, rec.claimed)
				}
			}
			if len(cluster) >= 2 && len(countries) >= 2 {
				out.Clusters = append(out.Clusters, cc)
				providers[name] = true
			}
		}
	}
	out.Providers = sortedKeys(providers)
	return out
}

// impossibilityTest checks whether any landmark RTT rules out the
// claimed country: the offset-corrected RTT bounds the distance to the
// landmark; if that bound is far below the claimed country's distance,
// the claim is physically impossible.
func impossibilityTest(r *vpntest.VPReport, cfg *vpntest.Config) (VirtualVPFinding, bool) {
	if r.Pings == nil || r.ClaimedCountry == "" {
		return VirtualVPFinding{}, false
	}
	if _, err := geo.CountryInfo(r.ClaimedCountry); err != nil {
		return VirtualVPFinding{}, false
	}
	offset := pingOffset(r)
	lmByName := map[string]vpntest.Landmark{}
	for _, lm := range cfg.Landmarks {
		lmByName[lm.Name] = lm
	}
	var best VirtualVPFinding
	found := false
	nearest := vpntest.PingSample{RTTms: 1e18}
	for _, s := range r.Pings.Samples {
		if s.RTTms < nearest.RTTms {
			nearest = s
		}
		lm, ok := lmByName[s.Landmark]
		if !ok {
			continue
		}
		corrected := s.RTTms - offset
		if corrected < 0.1 {
			corrected = 0.1
		}
		boundKm := corrected / 2 * speedOfLightKmPerMs
		// Compare against the NEAREST point of the claimed country —
		// large countries span thousands of kilometers, and an honest
		// Seattle server must not be flagged because it is far from
		// Washington, DC.
		claimDist, err := geo.CountryMinDistanceKm(r.ClaimedCountry, lm.City.Coord)
		if err != nil {
			continue
		}
		// Margin: require the violation to be unambiguous.
		if boundKm < claimDist-800 && (!found || claimDist-boundKm > best.ClaimDistKm-best.BoundKm) {
			found = true
			best = VirtualVPFinding{
				Provider: r.Provider, VPLabel: r.VPLabel, Claimed: r.ClaimedCountry,
				Witness: s.Landmark, WitnessRTT: corrected,
				BoundKm: boundKm, ClaimDistKm: claimDist,
			}
		}
	}
	if !found {
		return VirtualVPFinding{}, false
	}
	if lm, ok := lmByName[nearest.Landmark]; ok {
		best.NearestLandmark = lm.Name
		best.NearestCountry = lm.City.Country
	}
	return best, true
}

// clusterRecs groups a provider's vantage points whose raw ping vectors
// are near-identical (mean absolute difference under
// colocationToleranceMs across common landmarks). The threshold sits
// between measured jitter (~1 ms after min-of-three pings) and the
// smallest inter-city signal (~5 ms for cities a few hundred kilometers
// apart); the paper saw co-located series varying "by less than 1.5 ms".
const colocationToleranceMs = 3.0

func clusterRecs(recs []pingRec) [][]pingRec {
	n := len(recs)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if coLocated(recs[i].vec, recs[j].vec) {
				parent[find(i)] = find(j)
			}
		}
	}
	groups := map[int][]pingRec{}
	for i, rec := range recs {
		root := find(i)
		groups[root] = append(groups[root], rec)
	}
	roots := make([]int, 0, len(groups))
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Ints(roots)
	out := make([][]pingRec, 0, len(groups))
	for _, root := range roots {
		out = append(out, groups[root])
	}
	return out
}

// coLocated reports whether two raw ping vectors look like the same
// physical machine: near-identical RTTs to every common landmark.
func coLocated(a, b []float64) bool {
	common, totalDiff := 0, 0.0
	for i := range a {
		if i >= len(b) || a[i] < 0 || b[i] < 0 {
			continue
		}
		common++
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		totalDiff += d
	}
	if common < 5 {
		return false
	}
	return totalDiff/float64(common) < colocationToleranceMs
}

// RTTSeries extracts the Figure 9 plotting data for one provider: per
// vantage point, RTTs sorted ascending. Labels carry the claimed
// country.
type RTTSeries struct {
	Label  string
	Sorted []float64
}

// Figure9Series builds sorted RTT series for a provider's vantage
// points.
func Figure9Series(reports Reports, provider string) []RTTSeries {
	var out []RTTSeries
	for r := range reports {
		if r.Provider != provider || r.Pings == nil || len(r.Pings.Samples) == 0 {
			continue
		}
		vals := make([]float64, 0, len(r.Pings.Samples))
		for _, s := range r.Pings.Samples {
			vals = append(vals, s.RTTms)
		}
		sort.Float64s(vals)
		out = append(out, RTTSeries{Label: r.VPLabel, Sorted: vals})
	}
	return out
}

// RankFingerprint summarizes how similar two vantage points' landmark
// orderings are (the "same hosts appear in the same order" observation).
func RankFingerprint(a, b *vpntest.VPReport, cfg *vpntest.Config) (float64, error) {
	va, vb := a.Pings.Vector(cfg), b.Pings.Vector(cfg)
	// Restrict to landmarks present in both.
	var xa, xb []float64
	for i := range va {
		if va[i] >= 0 && vb[i] >= 0 {
			xa = append(xa, va[i])
			xb = append(xb, vb[i])
		}
	}
	if len(xa) == 0 {
		return 0, fmt.Errorf("analysis: no common landmarks")
	}
	return stats.RankAgreement(xa, xb)
}
