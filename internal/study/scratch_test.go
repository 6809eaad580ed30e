package study_test

import (
	"bytes"
	"testing"

	"vpnscope/internal/faultsim"
	"vpnscope/internal/netsim"
	"vpnscope/internal/study"
)

// TestScratchRecycleFidelity: worlds share scratch bundles through the
// process pool, so a campaign must measure byte-identically whether its
// world starts on a fresh bundle or on one another campaign — different
// seed, different providers — has just used and handed back. Campaign
// A's first result is serialized only after B has run on the recycled
// bundles, so a report that kept slot-arena bytes past its campaign
// would read B's packets and diverge. The parallel case shares the pool
// between two worker replicas.
func TestScratchRecycleFidelity(t *testing.T) {
	for _, tc := range []struct {
		name     string
		parallel int
		a, b     []string
	}{
		{"sequential", 1, []string{"Windscribe"}, []string{"Seed4.me"}},
		{"parallel", 2, []string{"Windscribe", "WorldVPN"}, []string{"Seed4.me", "NordVPN"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(seed uint64, names []string) *study.Result {
				w := buildSubset(t, seed, names...)
				w.EnableFaults(faultsim.Lossy)
				res, err := w.RunWith(study.RunConfig{Parallel: tc.parallel})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			_, out0 := netsim.ScratchPoolStats()
			netsim.DropIdleScratch()
			first := run(2018, tc.a)
			run(31, tc.b)
			fresh := envelope(t, first)
			if again := envelope(t, run(2018, tc.a)); !bytes.Equal(fresh, again) {
				t.Error("campaign on recycled scratch bundles differs from its run on fresh ones")
			}
			if idle, out := netsim.ScratchPoolStats(); idle == 0 || out != out0 {
				t.Errorf("after three campaigns the pool holds %d idle bundles and worlds hold %d more than before; want >0 and 0",
					idle, out-out0)
			}
		})
	}
}
