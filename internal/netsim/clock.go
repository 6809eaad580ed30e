// Package netsim is the simulated Internet underneath vpnscope: hosts
// placed at geographic coordinates, a virtual clock, RTTs derived from
// great-circle distance, packet delivery with per-interface captures,
// client network stacks with routing tables and firewalls, and
// traceroute-able synthetic paths.
//
// The simulator is deliberately transaction-oriented: a DNS query, an
// HTTP exchange, or a ping is one RoundTrip that advances the virtual
// clock by the modeled network time. This keeps a full 62-provider study
// (about an hour of wall-clock time in the paper, ~45 minutes per
// vantage point) down to milliseconds of CPU while preserving every
// observable the paper's measurement suite consumes.
package netsim

import "time"

// Clock is the simulation's virtual time source. It only moves when the
// simulation advances it; tests that "wait three minutes" for a tunnel to
// recover advance the clock rather than sleeping. A clock belongs to one
// world and, like the rest of it, is driven only by the world's owner
// goroutine, so its single word of state is a plain field.
type Clock struct {
	now time.Duration // since simulation start
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time (duration since simulation start).
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d. Negative advances are ignored:
// virtual time never runs backwards.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d > 0 {
		c.now += d
	}
	return c.now
}

// Jump sets the clock to exactly t, backwards included (negative t
// clamps to zero). The parallel campaign executor uses it at every
// vantage-point slot boundary: a shard that runs providers out of
// global order — or a vantage point that overran its slot — must still
// open the next slot at its absolute scheduled time, or the
// virtual-time fault windows would shift with execution order.
func (c *Clock) Jump(t time.Duration) time.Duration {
	if t < 0 {
		t = 0
	}
	c.now = t
	return t
}
