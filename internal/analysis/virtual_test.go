package analysis

import (
	"testing"

	"vpnscope/internal/geo"
	"vpnscope/internal/vpntest"
)

// testLandmarks builds a config with landmarks in a few known cities.
func testLandmarks(t *testing.T, names ...string) *vpntest.Config {
	t.Helper()
	cfg := &vpntest.Config{}
	for _, n := range names {
		city, ok := geo.CityByName(n)
		if !ok {
			t.Fatalf("unknown city %q", n)
		}
		cfg.Landmarks = append(cfg.Landmarks, vpntest.Landmark{Name: "anchor-" + n, City: city})
	}
	return cfg
}

// pingsFrom synthesizes an offset-free ping result as if measured from a
// vantage point physically at `from`, with the given constant offset
// baked in (modeling client->VP RTT).
func pingsFrom(t *testing.T, cfg *vpntest.Config, from string, offset float64) *vpntest.PingResult {
	t.Helper()
	city, ok := geo.CityByName(from)
	if !ok {
		t.Fatalf("unknown city %q", from)
	}
	res := &vpntest.PingResult{SelfRTT: offset}
	for _, lm := range cfg.Landmarks {
		// RTT model: stretch-2 propagation, like the simulator.
		rtt := 2 * 2 * geo.DistanceKm(city.Coord, lm.City.Coord) / 200
		if rtt < 1 {
			rtt = 1
		}
		res.Samples = append(res.Samples, vpntest.PingSample{
			Landmark: lm.Name, Country: lm.City.Country, RTTms: rtt + offset,
		})
	}
	return res
}

func TestImpossibilityCatchesVirtualVP(t *testing.T) {
	cfg := testLandmarks(t, "Prague", "Berlin", "Tokyo", "New York", "Seoul")
	// Claims North Korea, physically in Prague, 70ms client offset.
	r := mkReport("FakeKP", "FakeKP#0 (KP)", "KP")
	r.Pings = pingsFrom(t, cfg, "Prague", 70)

	out := DetectVirtualVPs(Slice([]*vpntest.VPReport{r}), cfg)
	if len(out.Findings) != 1 {
		t.Fatalf("findings = %+v", out.Findings)
	}
	f := out.Findings[0]
	if f.Claimed != "KP" {
		t.Errorf("claimed = %v", f.Claimed)
	}
	// The witness should be a European landmark: close to Prague, far
	// from Pyongyang.
	if f.Witness != "anchor-Prague" && f.Witness != "anchor-Berlin" {
		t.Errorf("witness = %v", f.Witness)
	}
	if f.BoundKm >= f.ClaimDistKm {
		t.Errorf("bound %v should be below claimed distance %v", f.BoundKm, f.ClaimDistKm)
	}
}

func TestImpossibilitySparesHonestVPs(t *testing.T) {
	cfg := testLandmarks(t, "Prague", "Berlin", "Tokyo", "New York", "Seattle", "Miami")
	honest := []struct {
		claim geo.Country
		city  string
	}{
		{"CZ", "Prague"},
		{"JP", "Tokyo"},
		// Large-country case: claims US, sits in Seattle — far from DC
		// but inside the country.
		{"US", "Seattle"},
		{"US", "Miami"},
	}
	var reports []*vpntest.VPReport
	for i, h := range honest {
		r := mkReport("Honest", "Honest#"+string(rune('0'+i))+" ("+string(h.claim)+")", h.claim)
		r.Pings = pingsFrom(t, cfg, h.city, 50)
		reports = append(reports, r)
	}
	out := DetectVirtualVPs(Slice(reports), cfg)
	if len(out.Findings) != 0 {
		t.Fatalf("false positives: %+v", out.Findings)
	}
}

func TestImpossibilityWithoutSelfRTT(t *testing.T) {
	// Missing offset estimate (SelfRTT < 0) must not crash and stays
	// conservative: offsets inflate RTTs, which only weakens evidence.
	cfg := testLandmarks(t, "Prague", "Tokyo")
	r := mkReport("X", "X#0 (KP)", "KP")
	r.Pings = pingsFrom(t, cfg, "Prague", 0)
	r.Pings.SelfRTT = -1
	out := DetectVirtualVPs(Slice([]*vpntest.VPReport{r}), cfg)
	if len(out.Findings) != 1 {
		t.Fatalf("findings = %+v", out.Findings)
	}
}

func TestCoLocationClustering(t *testing.T) {
	cfg := testLandmarks(t, "Prague", "Berlin", "Tokyo", "New York", "Seoul", "Sydney")
	// Two VPs claiming different countries, both physically in London
	// with identical offsets -> cluster. One VP in Tokyo -> separate.
	a := mkReport("P", "P#0 (US)", "US")
	a.Pings = pingsFrom(t, cfg, "London", 60)
	b := mkReport("P", "P#1 (FR)", "FR")
	b.Pings = pingsFrom(t, cfg, "London", 60)
	c := mkReport("P", "P#2 (JP)", "JP")
	c.Pings = pingsFrom(t, cfg, "Tokyo", 60)

	out := DetectVirtualVPs(Slice([]*vpntest.VPReport{a, b, c}), cfg)
	if len(out.Clusters) != 1 {
		t.Fatalf("clusters = %+v", out.Clusters)
	}
	cl := out.Clusters[0]
	if len(cl.VPLabels) != 2 || len(cl.Claimed) != 2 {
		t.Fatalf("cluster = %+v", cl)
	}
}

func TestCoLocationIgnoresSameCountryClusters(t *testing.T) {
	cfg := testLandmarks(t, "Prague", "Tokyo", "New York")
	// Two co-located VPs both claiming GB: unremarkable (real providers
	// run many servers per site), must not be reported.
	a := mkReport("P", "P#0 (GB)", "GB")
	a.Pings = pingsFrom(t, cfg, "London", 60)
	b := mkReport("P", "P#1 (GB)", "GB")
	b.Pings = pingsFrom(t, cfg, "London", 60)
	out := DetectVirtualVPs(Slice([]*vpntest.VPReport{a, b}), cfg)
	if len(out.Clusters) != 0 {
		t.Fatalf("clusters = %+v", out.Clusters)
	}
}

func TestClustersRespectProviderBoundaries(t *testing.T) {
	cfg := testLandmarks(t, "Prague", "Tokyo", "New York")
	// Identical vectors but different providers never cluster together
	// (co-location across providers is the Table 5 analysis, not this
	// one).
	a := mkReport("P1", "P1#0 (US)", "US")
	a.Pings = pingsFrom(t, cfg, "London", 60)
	b := mkReport("P2", "P2#0 (FR)", "FR")
	b.Pings = pingsFrom(t, cfg, "London", 60)
	out := DetectVirtualVPs(Slice([]*vpntest.VPReport{a, b}), cfg)
	if len(out.Clusters) != 0 {
		t.Fatalf("clusters crossed provider boundary: %+v", out.Clusters)
	}
}

func TestFigure9Series(t *testing.T) {
	cfg := testLandmarks(t, "Prague", "Tokyo", "New York")
	a := mkReport("P", "P#0 (US)", "US")
	a.Pings = pingsFrom(t, cfg, "London", 60)
	b := mkReport("Q", "Q#0 (US)", "US")
	b.Pings = pingsFrom(t, cfg, "Tokyo", 60)

	series := Figure9Series(Slice([]*vpntest.VPReport{a, b}), "P")
	if len(series) != 1 || series[0].Label != "P#0 (US)" {
		t.Fatalf("series = %+v", series)
	}
	// Sorted ascending.
	vals := series[0].Sorted
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			t.Fatal("series not sorted")
		}
	}
}

func TestRankFingerprint(t *testing.T) {
	cfg := testLandmarks(t, "Prague", "Berlin", "Tokyo", "New York", "Sydney")
	a := mkReport("P", "P#0 (US)", "US")
	a.Pings = pingsFrom(t, cfg, "London", 60)
	b := mkReport("P", "P#1 (FR)", "FR")
	b.Pings = pingsFrom(t, cfg, "London", 90) // same site, different offset
	c := mkReport("P", "P#2 (JP)", "JP")
	c.Pings = pingsFrom(t, cfg, "Tokyo", 60)

	same, err := RankFingerprint(a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if same != 1 {
		t.Errorf("same-site rank agreement = %v, want 1", same)
	}
	diff, err := RankFingerprint(a, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff >= same {
		t.Errorf("different-site agreement %v should be below same-site %v", diff, same)
	}
}
