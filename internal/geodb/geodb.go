// Package geodb simulates the IP-geolocation databases the paper
// compared in §6.4.1: a MaxMind-GeoLite2-like database, an
// IP2Location-Lite-like database, and a Google-geolocation-API-like
// service. Each has a coverage rate (does it have an estimate at all?),
// an accuracy rate (does the estimate match the host's effective
// location?), a US-bias on errors (the paper found ~1/3 of
// inconsistencies defaulted to the US), and a susceptibility to the
// geo-seeding tricks "virtual vantage point" providers play.
//
// Results are deterministic per (database, address): asking twice gives
// the same answer, like a real database snapshot.
package geodb

import (
	"net/netip"
	"sort"

	"vpnscope/internal/geo"
	"vpnscope/internal/simrand"
)

// TruthSource supplies the simulator's ground truth for an address.
type TruthSource interface {
	// Truth returns the actual country a host is physically in, the
	// country its operator advertises (equal to actual for honest
	// hosts), and whether the operator actively seeds geo-IP databases
	// with the advertised location. ok is false for unknown addresses.
	Truth(addr netip.Addr) (actual, advertised geo.Country, seeded bool, ok bool)
}

// TruthFunc adapts a function to TruthSource.
type TruthFunc func(addr netip.Addr) (actual, advertised geo.Country, seeded bool, ok bool)

// Truth implements TruthSource.
func (f TruthFunc) Truth(addr netip.Addr) (geo.Country, geo.Country, bool, bool) {
	return f(addr)
}

// Profile parameterizes a database's error model.
type Profile struct {
	Name string
	// Coverage is the probability the database has any estimate for an
	// address.
	Coverage float64
	// Accuracy is the probability a covered estimate equals the host's
	// effective location.
	Accuracy float64
	// USBiasOnError is the probability an erroneous estimate says "US"
	// (vs. a uniformly random other country).
	USBiasOnError float64
	// SpoofSusceptible databases accept operator geo-seeding: for
	// seeded hosts their "effective location" is the advertised one.
	SpoofSusceptible bool
}

// The three profiles, calibrated so a study over honest hosts plus the
// ecosystem's ~5% seeded virtual vantage points lands near the paper's
// agreement rates (Google 70%, IP2Location 90%, MaxMind 95%) and
// coverage counts (541/626 for Google, 612/626 for the other two).
var (
	// MaxMindLike mirrors GeoLite2: near-complete coverage, high
	// accuracy, and susceptible to geo-seeding (providers demonstrably
	// get their blocks relocated in it).
	MaxMindLike = Profile{
		Name: "geolite2-sim", Coverage: 0.98, Accuracy: 0.96,
		USBiasOnError: 0.33, SpoofSusceptible: true,
	}
	// IP2LocationLike mirrors IP2Location Lite.
	IP2LocationLike = Profile{
		Name: "ip2location-sim", Coverage: 0.98, Accuracy: 0.92,
		USBiasOnError: 0.33, SpoofSusceptible: true,
	}
	// GoogleLike mirrors the Google Maps geolocation view: lower
	// coverage, high raw accuracy, and critically NOT susceptible to
	// seeding — Google geolocates from its own measurements, which is
	// why the paper saw the largest claimed-location disagreements from
	// "the database with the expected highest fidelity": it sees
	// through virtual vantage points the seedable databases accept.
	GoogleLike = Profile{
		Name: "google-geo-sim", Coverage: 0.86, Accuracy: 0.93,
		USBiasOnError: 0.33, SpoofSusceptible: false,
	}
)

// Database is one instantiated geolocation database.
type Database struct {
	Profile Profile

	truth     TruthSource
	seed      uint64
	cache     map[netip.Addr]Result
	countries []geo.Country
}

// Result is a database's answer for one address.
type Result struct {
	Country geo.Country
	Found   bool
}

// New creates a database over the given ground truth. Databases created
// with the same profile, truth, and seed return identical answers.
func New(p Profile, truth TruthSource, seed uint64) *Database {
	countries := geo.Countries()
	sort.Slice(countries, func(i, j int) bool { return countries[i] < countries[j] })
	return &Database{
		Profile:   p,
		truth:     truth,
		seed:      seed,
		cache:     make(map[netip.Addr]Result),
		countries: countries,
	}
}

// Locate returns the database's country estimate for addr. The second
// return is false when the database has no estimate (out of coverage or
// unknown address).
func (d *Database) Locate(addr netip.Addr) (geo.Country, bool) {
	if r, ok := d.cache[addr]; ok {
		return r.Country, r.Found
	}
	r := d.locate(addr)
	d.cache[addr] = r
	return r.Country, r.Found
}

func (d *Database) locate(addr netip.Addr) Result {
	actual, advertised, seeded, ok := d.truth.Truth(addr)
	if !ok {
		return Result{}
	}
	// Derive a per-address stream so results are stable and independent.
	rng := simrand.New(d.seed).Fork(d.Profile.Name).Fork(addr.String())
	if !rng.Bool(d.Profile.Coverage) {
		return Result{}
	}
	effective := actual
	if seeded && d.Profile.SpoofSusceptible {
		effective = advertised
	}
	if rng.Bool(d.Profile.Accuracy) {
		return Result{Country: effective, Found: true}
	}
	// Error: US bias, else a uniformly random different country.
	if effective != "US" && rng.Bool(d.Profile.USBiasOnError) {
		return Result{Country: "US", Found: true}
	}
	for {
		c := d.countries[rng.Intn(len(d.countries))]
		if c != effective {
			return Result{Country: c, Found: true}
		}
	}
}

// Standard instantiates the paper's three databases over one truth
// source.
func Standard(truth TruthSource, seed uint64) []*Database {
	return []*Database{
		New(MaxMindLike, truth, seed),
		New(IP2LocationLike, truth, seed),
		New(GoogleLike, truth, seed),
	}
}
