package faultsim

import (
	"net/netip"
	"time"

	"vpnscope/internal/capture"
	"vpnscope/internal/netsim"
)

// Hook returns the plan as a per-exchange function of the destination
// address: Classify then Decide, the keyed form a network's flows
// split in two.
func (p *Plan) Hook() func(now time.Duration, from *netsim.Host, dst netip.Addr, proto capture.IPProtocol) netsim.FaultAction {
	return func(now time.Duration, _ *netsim.Host, dst netip.Addr, proto capture.IPProtocol) netsim.FaultAction {
		return p.Decide(now, p.Classify(dst), proto)
	}
}
