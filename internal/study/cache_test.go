package study

import (
	"fmt"
	"testing"

	"vpnscope/internal/ecosystem"
)

// TestWorldTemplateCache is the white-box contract of cache.go: the
// first Build of an option set populates one template, subsequent
// Builds reuse it, and the handed-out artifacts are deep clones that
// never alias cached state.
func TestWorldTemplateCache(t *testing.T) {
	ClearWorldTemplates()
	defer ClearWorldTemplates()

	opts := Options{
		Seed:          9099,
		Providers:     ecosystem.TestedSpecs(9099, 2)[:2],
		LandmarkCount: 20,
		ExtraTLSHosts: 10,
	}
	w1, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	templateMu.Lock()
	size := len(templateCache)
	templateMu.Unlock()
	if size != 1 {
		t.Fatalf("after cold build: %d templates cached, want 1", size)
	}

	w2, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	templateMu.Lock()
	size = len(templateCache)
	templateMu.Unlock()
	if size != 1 {
		t.Fatalf("after warm build: %d templates cached, want 1", size)
	}

	// The warm world's baseline must match the cold one...
	if len(w2.Baseline.DOM) == 0 || len(w2.Baseline.DOM) != len(w1.Baseline.DOM) {
		t.Fatalf("baseline DOM sizes: cold %d, warm %d", len(w1.Baseline.DOM), len(w2.Baseline.DOM))
	}
	for url, dom := range w1.Baseline.DOM {
		if w2.Baseline.DOM[url] != dom {
			t.Fatalf("baseline DOM for %s differs between cold and warm build", url)
		}
	}
	// ...and be an independent clone: mutating one world's view must not
	// leak into a third build.
	for url := range w2.Baseline.DOM {
		w2.Baseline.DOM[url] = "poisoned"
		break
	}
	for host := range w2.Config.IPv6ProbeHosts {
		delete(w2.Config.IPv6ProbeHosts, host)
		break
	}
	w3, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	for url, dom := range w1.Baseline.DOM {
		if w3.Baseline.DOM[url] != dom {
			t.Fatalf("mutation through w2 leaked into a later build (%s)", url)
		}
	}
	if len(w3.Config.IPv6ProbeHosts) != len(w1.Config.IPv6ProbeHosts) {
		t.Fatalf("probe-map mutation leaked: %d vs %d hosts",
			len(w3.Config.IPv6ProbeHosts), len(w1.Config.IPv6ProbeHosts))
	}

	// Different options must not collide with the cached template.
	optsB := opts
	optsB.Seed = 9100
	if _, err := Build(optsB); err != nil {
		t.Fatal(err)
	}
	templateMu.Lock()
	size = len(templateCache)
	templateMu.Unlock()
	if size != 2 {
		t.Fatalf("distinct options share a template: %d cached, want 2", size)
	}
}

// TestWorldTemplateCacheBounded: a stream of one-off option sets (a
// resident daemon drawing fresh seeds) never holds more than
// templateCapacity templates.
func TestWorldTemplateCacheBounded(t *testing.T) {
	ClearWorldTemplates()
	defer ClearWorldTemplates()
	for i := 0; i < 3*templateCapacity; i++ {
		seed := uint64(7000 + i)
		_, err := Build(Options{
			Seed:           seed,
			Providers:      ecosystem.TestedSpecs(seed, 2)[:1],
			VPsPerProvider: 2,
			ExtraTLSHosts:  5,
			LandmarkCount:  10,
		})
		if err != nil {
			t.Fatal(err)
		}
		templateMu.Lock()
		size, order := len(templateCache), len(templateOrder)
		templateMu.Unlock()
		if size > templateCapacity || size != order {
			t.Fatalf("after %d builds: %d templates cached (%d in eviction order), want at most %d",
				i+1, size, order, templateCapacity)
		}
	}
}

// TestWorldTemplateCacheDaemonPattern: the daemon benchmark's schedule
// (campaign i of an odd index >= 3 repeats campaign i-3's spec; every
// other campaign draws a fresh seed), served by two clients whose
// adjacent campaigns may build in either order, hits the cache on
// every repeat.
func TestWorldTemplateCacheDaemonPattern(t *testing.T) {
	defer ClearWorldTemplates()
	spec := func(i int) int {
		for i%2 == 1 && i >= 3 {
			i -= 3
		}
		return i
	}
	for _, swapped := range []bool{false, true} {
		ClearWorldTemplates()
		for pair := 0; pair < 200; pair += 2 {
			order := []int{pair, pair + 1}
			if swapped {
				order = []int{pair + 1, pair}
			}
			for _, i := range order {
				key := fmt.Sprintf("spec-%d", spec(i))
				if lookupTemplate(key) != nil {
					continue
				}
				if spec(i) != i {
					t.Fatalf("swapped=%v: campaign %d repeats campaign %d but missed the cache", swapped, i, spec(i))
				}
				storeTemplate(key, &worldTemplate{})
			}
		}
	}
}
