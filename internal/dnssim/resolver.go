package dnssim

import (
	"net/netip"
	"strings"
)

// Directory is the simulated global DNS database: hostname to addresses.
// All resolvers answer from the same directory (modulo manipulation), so
// a "correct" answer is well defined, exactly the property the paper's
// DNS-manipulation test relies on when diffing a VPN resolver against
// Google Public DNS.
type Directory struct {
	names       map[string][]netip.Addr
	authorities []*Authority
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{names: make(map[string][]netip.Addr)}
}

// Register binds a hostname to one or more addresses (replacing any
// previous binding).
func (d *Directory) Register(name string, addrs ...netip.Addr) {
	d.names[normalize(name)] = append([]netip.Addr(nil), addrs...)
}

// Lookup returns the addresses for name with the given record type
// filter (TypeA returns only v4, TypeAAAA only v6).
func (d *Directory) Lookup(name string, qtype uint16) []netip.Addr {
	return d.LookupAppend(nil, name, qtype)
}

// LookupAppend appends the addresses for name to dst and returns the
// extended slice; hot callers (the resolver answer path) pass a
// reusable scratch slice to keep steady-state lookups allocation-free.
func (d *Directory) LookupAppend(dst []netip.Addr, name string, qtype uint16) []netip.Addr {
	for _, a := range d.names[normalize(name)] {
		switch {
		case qtype == TypeA && a.Is4():
			dst = append(dst, a)
		case qtype == TypeAAAA && a.Is6():
			dst = append(dst, a)
		}
	}
	return dst
}

// Exists reports whether name is registered at all (any family).
func (d *Directory) Exists(name string) bool {
	_, ok := d.names[normalize(name)]
	return ok
}

// AddAuthority attaches an origin-logging authoritative server for a
// domain suffix.
func (d *Directory) AddAuthority(a *Authority) {
	d.authorities = append(d.authorities, a)
}

// authorityFor returns the authority whose suffix covers name, or nil.
func (d *Directory) authorityFor(name string) *Authority {
	name = normalize(name)
	for _, a := range d.authorities {
		if name == a.Suffix || strings.HasSuffix(name, "."+a.Suffix) {
			return a
		}
	}
	return nil
}

func normalize(name string) string {
	return strings.TrimSuffix(strings.ToLower(name), ".")
}

// OriginRecord is one request seen by an authoritative server: which
// hostname was asked for, and which resolver address asked.
type OriginRecord struct {
	Name string
	From netip.Addr
}

// Authority is an authoritative nameserver for a domain suffix that logs
// the source of every query it receives. The recursive-origin test
// resolves a unique tagged hostname and reads this log to learn which
// resolver (and therefore which network) actually performed recursion.
type Authority struct {
	Suffix string // e.g. "probe.vpnscope.test"
	Addr   netip.Addr

	log []OriginRecord
}

// NewAuthority creates an authority for suffix.
func NewAuthority(suffix string, addr netip.Addr) *Authority {
	return &Authority{Suffix: normalize(suffix), Addr: addr}
}

// Resolve answers a query for name (always 192.0.2.1 — the content is
// irrelevant; the log is the point) and records the origin.
func (a *Authority) Resolve(name string, from netip.Addr) netip.Addr {
	a.log = append(a.log, OriginRecord{normalize(name), from})
	return netip.AddrFrom4([4]byte{192, 0, 2, 1})
}

// LogMark returns a trim point capturing the log length so far. The
// campaign runner records one at campaign start and trims back to it at
// every vantage-point slot boundary: tagged probe names are unique per
// slot (they embed the virtual-clock nanos), so entries from finished
// slots can never match a later OriginsOf query — trimming them bounds
// the log's growth on a long-lived, slot-reset world.
func (a *Authority) LogMark() int {
	return len(a.log)
}

// TrimLog drops every origin record appended after mark (a value from
// LogMark).
func (a *Authority) TrimLog(mark int) {
	if mark >= 0 && mark < len(a.log) {
		a.log = a.log[:mark]
	}
}

// Log returns a snapshot of the origin log.
func (a *Authority) Log() []OriginRecord {
	out := make([]OriginRecord, len(a.log))
	copy(out, a.log)
	return out
}

// OriginsOf returns the source addresses that asked for exactly name.
func (a *Authority) OriginsOf(name string) []netip.Addr {
	name = normalize(name)
	var out []netip.Addr
	for _, r := range a.log {
		if r.Name == name {
			out = append(out, r.From)
		}
	}
	return out
}

// Manipulator rewrites resolver answers; nil addrs means NXDOMAIN. The
// returned slice replaces the true answers. VPN providers that hijack
// DNS install one of these on their resolver.
type Manipulator func(name string, qtype uint16, addrs []netip.Addr) []netip.Addr

// Resolver is a recursive DNS resolver host behavior. Attach to a
// netsim host with Handler.
type Resolver struct {
	Name string
	// Addr is the resolver's own address, reported to authorities as
	// the recursion origin.
	Addr netip.Addr
	Dir  *Directory
	// Manipulate, when non-nil, rewrites every answer set.
	Manipulate Manipulator
	// Names is the interner query names decode through: the world's
	// one table, shared by every resolver and web client in it, so no
	// resolver keeps a name table of its own. Nil allocates each name.
	Names *Interner
	// Scratch is the serving scratch HandleQuery works in: the world's
	// one, shared by every resolver in it, so no resolver keeps grown
	// buffers of its own after its slot. Nil gives the resolver its own
	// on first use.
	Scratch *ServeScratch
}

// ServeScratch is the reusable working memory of HandleQuery: the
// response-encode buffer, the decoded-query and reply messages, and the
// answer slice handed to Lookup/Manipulate. Resolvers may share one
// because no caller holds an answer across another query: netsim
// delivers on the originating goroutine and copies the returned payload
// into the reply packet, and the tunnel resolver's caller builds its
// reply from the answer, before the next query can start. The zero
// value is ready to use.
type ServeScratch struct {
	buf     []byte
	qmsg    Message
	rmsg    Message
	addrBuf []netip.Addr
}

// HandleQuery processes one wire-format DNS query and returns the
// wire-format response, valid until the next query served with the
// same scratch.
func (r *Resolver) HandleQuery(query []byte) []byte {
	if r.Scratch == nil {
		r.Scratch = new(ServeScratch)
	}
	sc := r.Scratch
	if err := DecodeInto(&sc.qmsg, query, r.Names); err != nil || sc.qmsg.Response || len(sc.qmsg.Questions) == 0 {
		return nil
	}
	m := &sc.qmsg
	resp := &sc.rmsg
	resp.ID = m.ID
	resp.Response = true
	resp.RCode = RCodeOK
	resp.Questions = append(resp.Questions[:0], m.Questions...)
	resp.Answers = resp.Answers[:0]
	q := m.Questions[0]

	addrs := sc.addrBuf[:0]
	if auth := r.Dir.authorityFor(q.Name); auth != nil {
		if q.Type == TypeA {
			addrs = append(addrs, auth.Resolve(q.Name, r.Addr))
		}
	} else {
		addrs = r.Dir.LookupAppend(addrs, q.Name, q.Type)
	}
	sc.addrBuf = addrs[:0] // keep grown capacity for the next query
	if r.Manipulate != nil {
		addrs = r.Manipulate(q.Name, q.Type, addrs)
	}
	if len(addrs) == 0 {
		if !r.Dir.Exists(q.Name) && r.Dir.authorityFor(q.Name) == nil {
			resp.RCode = RCodeNXDomain
		}
	}
	for _, a := range addrs {
		resp.Answer(a)
	}
	out, err := resp.AppendEncode(sc.buf[:0])
	if err != nil {
		return nil
	}
	sc.buf = out
	return out
}

// Handler adapts the resolver to a netsim UDP handler signature.
func (r *Resolver) Handler() func(src netip.Addr, srcPort uint16, payload []byte) []byte {
	return func(_ netip.Addr, _ uint16, payload []byte) []byte {
		return r.HandleQuery(payload)
	}
}
