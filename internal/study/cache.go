package study

import (
	"encoding/json"
	"net/netip"
	"slices"
	"sync"
	"time"

	"vpnscope/internal/vpntest"
)

// The world-template cache memoizes the seed-pure, expensive artifacts
// of Build — the university baseline collection and the clean-stack
// AAAA probe resolutions — per fingerprint of the (filled) Options.
// Everything else Build does (hosts, providers, handlers) is cheap
// wiring that must run per world anyway because worlds are mutable.
//
// Soundness: a template is keyed by the complete option set, and the
// cached artifacts are pure functions of it (the baseline is collected
// over a fault-free, freshly seeded world). Handed-out copies are deep
// clones, so one world mutating its Baseline cannot poison a sibling.
// Build ends by normalizing the clock and RNG stream (see
// normalizeWorld), which makes a cache-hit world indistinguishable from
// a cache-miss world — byte-identical campaign results either way.
//
// Invalidation: none needed in-process — the key captures every input.
// The cache holds at most templateCapacity templates, evicting the
// oldest first, so a resident daemon that keeps seeing fresh seeds
// holds a bounded set. ClearWorldTemplates drops them all.

// worldTemplate holds the memoized artifacts for one Options
// fingerprint.
type worldTemplate struct {
	baseline   *vpntest.Baseline
	ipv6Probes map[string]netip.Addr
}

// templateCapacity bounds the cache (a small daemon campaign's template
// is about 55 KB of heap). Eight covers the option sets one process
// alternates between, such as a daemon re-running recent specs, without
// letting a stream of one-off seeds grow the heap.
const templateCapacity = 8

var (
	templateMu    sync.Mutex
	templateCache = map[string]*worldTemplate{}
	// templateOrder lists templateCache's keys, oldest first.
	templateOrder []string
)

// templateKey fingerprints the filled options. ok is false when the
// options cannot be fingerprinted (never for the plain-data Options
// this package defines; kept defensive so Build degrades to uncached).
func templateKey(o Options) (string, bool) {
	b, err := json.Marshal(o)
	if err != nil {
		return "", false
	}
	return string(b), true
}

func lookupTemplate(key string) *worldTemplate {
	templateMu.Lock()
	defer templateMu.Unlock()
	return templateCache[key]
}

func storeTemplate(key string, t *worldTemplate) {
	templateMu.Lock()
	defer templateMu.Unlock()
	if templateCache[key] != nil {
		return // a concurrent build stored it first
	}
	if len(templateOrder) == templateCapacity {
		delete(templateCache, templateOrder[0])
		templateOrder = slices.Delete(templateOrder, 0, 1)
	}
	templateCache[key] = t
	templateOrder = append(templateOrder, key)
}

// ClearWorldTemplates drops every memoized world template. Subsequent
// Builds re-collect from scratch (and re-populate the cache).
func ClearWorldTemplates() {
	templateMu.Lock()
	defer templateMu.Unlock()
	templateCache = map[string]*worldTemplate{}
	templateOrder = nil
}

// cloneBaseline deep-copies a baseline so cached state never aliases a
// handed-out world.
func cloneBaseline(b *vpntest.Baseline) *vpntest.Baseline {
	if b == nil {
		return nil
	}
	out := &vpntest.Baseline{
		DOM:              make(map[string]string, len(b.DOM)),
		ResourceHosts:    make(map[string]map[string]bool, len(b.ResourceHosts)),
		CertFingerprints: make(map[string]uint64, len(b.CertFingerprints)),
		DNSAnswers:       make(map[string]netip.Addr, len(b.DNSAnswers)),
		FinalStatus:      make(map[string]int, len(b.FinalStatus)),
	}
	for k, v := range b.DOM {
		out.DOM[k] = v
	}
	for k, v := range b.ResourceHosts {
		set := make(map[string]bool, len(v))
		for h, ok := range v {
			set[h] = ok
		}
		out.ResourceHosts[k] = set
	}
	for k, v := range b.CertFingerprints {
		out.CertFingerprints[k] = v
	}
	for k, v := range b.DNSAnswers {
		out.DNSAnswers[k] = v
	}
	for k, v := range b.FinalStatus {
		out.FinalStatus[k] = v
	}
	return out
}

func cloneProbes(m map[string]netip.Addr) map[string]netip.Addr {
	out := make(map[string]netip.Addr, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// buildSettled is the virtual time every Build leaves the world at,
// hit or miss — below campaignBase, above anything build-time traffic
// organically reaches.
const buildSettled = 30 * time.Minute

// normalizeWorld pins the post-build clock and stochastic stream to
// fixed values. A cache-miss build runs real baseline traffic (clock
// advances, RNG draws); a cache-hit build skips it; normalizing both
// makes the two end states identical, so even measurements taken
// outside the slot-pinned campaign runner behave the same either way.
func (w *World) normalizeWorld() {
	w.Net.Clock.Jump(buildSettled)
	w.Net.ResetStream("post-build")
}
