package netsim

import (
	"net/netip"
	"strconv"
)

// exchangeError is a preformatted failure for the exchange hot paths:
// the same text as the fmt.Errorf("%w: ...") constructions it replaces
// and the same errors.Is behavior via Unwrap, without paying the fmt
// machinery on every timed-out or refused packet of a lossy campaign.
// The strings are part of the campaign's determinism contract — they
// land verbatim in result records — so each helper mirrors one exact
// historical format.
type exchangeError struct {
	sentinel error
	msg      string
}

func (e *exchangeError) Error() string { return e.msg }
func (e *exchangeError) Unwrap() error { return e.sentinel }

// errAddr renders "<sentinel>: <addr><suffix>", matching
// fmt.Errorf("%w: %v"+suffix, sentinel, addr).
func errAddr(sentinel error, addr netip.Addr, suffix string) error {
	b := make([]byte, 0, 64)
	b = append(b, sentinel.Error()...)
	b = append(b, ": "...)
	b = addr.AppendTo(b)
	b = append(b, suffix...)
	return &exchangeError{sentinel, string(b)}
}

// errAddrHost renders "<sentinel>: <addr> (<name>)", matching
// fmt.Errorf("%w: %v (%s)", sentinel, addr, name).
func errAddrHost(sentinel error, addr netip.Addr, name string) error {
	b := make([]byte, 0, 64)
	b = append(b, sentinel.Error()...)
	b = append(b, ": "...)
	b = addr.AppendTo(b)
	b = append(b, " ("...)
	b = append(b, name...)
	b = append(b, ')')
	return &exchangeError{sentinel, string(b)}
}

// errAddrPort renders "<sentinel>: <proto> <addr>:<port>", matching
// fmt.Errorf("%w: "+proto+" %v:%d", sentinel, addr, port).
func errAddrPort(sentinel error, proto string, addr netip.Addr, port uint16) error {
	b := make([]byte, 0, 64)
	b = append(b, sentinel.Error()...)
	b = append(b, ": "...)
	b = append(b, proto...)
	b = append(b, ' ')
	b = addr.AppendTo(b)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(port), 10)
	return &exchangeError{sentinel, string(b)}
}

// errWith renders "<sentinel>: <pre><addr><post>", the general shape
// behind the stack's fmt.Errorf("%w: ...%v...", sentinel, addr) sites.
func errWith(sentinel error, pre string, addr netip.Addr, post string) error {
	b := make([]byte, 0, 64)
	b = append(b, sentinel.Error()...)
	b = append(b, ": "...)
	b = append(b, pre...)
	b = addr.AppendTo(b)
	b = append(b, post...)
	return &exchangeError{sentinel, string(b)}
}

// errV6Disabled is the constant-text failure every v6 probe on a
// v4-only stack returns; prebuilt because IPv6-leak testing hits it on
// every probe of every slot.
var errV6Disabled = &exchangeError{ErrBlocked, ErrBlocked.Error() + ": IPv6 disabled"}

// errKey identifies one interned exchange error: the sentinel identity
// plus every string-shaping input. Text is a pure function of the key,
// so a cached error is indistinguishable from a fresh one.
type errKey struct {
	sentinel  error
	kind      uint8 // which err* helper shaped the text
	pre, post string
	addr      netip.Addr
	port      uint16
}

// errKey kinds.
const (
	errKindAddr = iota
	errKindAddrHost
	errKindAddrPort
	errKindWith
	errKindBlackhole
)

// maxInternedErrors bounds the per-network error cache. What it holds
// is the failures of destinations every slot shares (resolvers, web
// servers, landmarks), a set fixed by the world, so the cap only guards
// against pathological address churn.
const maxInternedErrors = 4096

// internErr returns the cached error for key, building it with fresh
// on a miss. Failures of a tunnel terminator's address are built fresh
// and not cached: a terminator is a vantage point, which a campaign
// contacts in its own slot only, so caching them would keep one error
// per vantage point for the world's life. The flow a failure happens
// on memoizes it for the rest of the slot either way.
func (n *Network) internErr(key errKey, fresh func() error) error {
	if e, ok := n.errCache[key]; ok {
		return e
	}
	e := fresh()
	if h := n.hosts[key.addr]; h != nil && h.raw != nil {
		return e
	}
	if n.errCache == nil {
		n.errCache = make(map[errKey]error, 64)
	}
	if len(n.errCache) < maxInternedErrors {
		n.errCache[key] = e
	}
	return e
}

// Cached variants of the err* helpers for the exchange hot paths. The
// failure modes of a lossy campaign repeat endlessly against the same
// few destinations; interning makes the steady state allocation-free.
func (n *Network) errAddr(sentinel error, addr netip.Addr, suffix string) error {
	return n.internErr(errKey{sentinel: sentinel, kind: errKindAddr, post: suffix, addr: addr},
		func() error { return errAddr(sentinel, addr, suffix) })
}

func (n *Network) errAddrHost(sentinel error, addr netip.Addr, name string) error {
	return n.internErr(errKey{sentinel: sentinel, kind: errKindAddrHost, post: name, addr: addr},
		func() error { return errAddrHost(sentinel, addr, name) })
}

func (n *Network) errAddrPort(sentinel error, proto string, addr netip.Addr, port uint16) error {
	return n.internErr(errKey{sentinel: sentinel, kind: errKindAddrPort, pre: proto, addr: addr, port: port},
		func() error { return errAddrPort(sentinel, proto, addr, port) })
}

func (n *Network) errWith(sentinel error, pre string, addr netip.Addr, post string) error {
	return n.internErr(errKey{sentinel: sentinel, kind: errKindWith, pre: pre, post: post, addr: addr},
		func() error { return errWith(sentinel, pre, addr, post) })
}

// errBlackhole renders "<ErrBlocked>: blackhole route <prefix>",
// matching fmt.Errorf("%w: blackhole route %v", ErrBlocked, prefix):
// every IPv6 probe of a provider that blackholes IPv6 fails with it.
func (n *Network) errBlackhole(p netip.Prefix) error {
	return n.internErr(errKey{sentinel: ErrBlocked, kind: errKindBlackhole, addr: p.Addr(), port: uint16(p.Bits())},
		func() error {
			return &exchangeError{ErrBlocked, ErrBlocked.Error() + ": blackhole route " + p.String()}
		})
}
