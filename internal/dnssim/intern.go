package dnssim

// Interner deduplicates the hot DNS name strings a world decodes over
// and over (site hostnames, provider domains, resolver names). Every
// decoded message used to materialize a fresh string per question and
// answer name; an interner hands back one canonical string instead, so
// a campaign's millions of lookups of the same few hundred static names
// cost zero string allocations after first sight.
//
// The table is deliberately capped: tagged recursive-origin probe names
// embed the virtual-clock nanos and are unique per vantage-point slot,
// so an unbounded table would grow for the lifetime of a long-lived,
// slot-reset world. Once the cap is reached, a novel name replaces an
// entry that has not been looked up since the replacement hand last
// passed it (second-chance replacement). Static names are looked up
// every slot and keep their entries; one-shot names go stale after
// their slot and make room, so a static name first queried late in a
// campaign (a provider's own CDN host) still gets an entry.
//
// A world keeps one Interner, shared by its web clients and every
// resolver in it (the public and ISP resolvers and each vantage
// point's tunnel resolver), so the table's size is bounded per world,
// not per vantage point. It is single-goroutine, like everything else
// inside one simulated world. The zero value and the nil pointer are
// both ready to use (a nil interner just allocates).
type Interner struct {
	// index maps each interned name to its entry in names.
	index map[string]int
	names []string
	// used marks entries looked up since the hand last passed them.
	used []bool
	hand int
}

// maxInternedNames bounds the table; see the type comment.
const maxInternedNames = 1024

// Intern returns the canonical string equal to b, allocating only the
// first time a name is seen, when a full table has since replaced it,
// or always when the receiver is nil.
func (in *Interner) Intern(b []byte) string {
	if in == nil {
		return string(b)
	}
	if i, ok := in.index[string(b)]; ok { // no-alloc map probe
		in.used[i] = true
		return in.names[i]
	}
	s := string(b)
	if in.index == nil {
		in.index = make(map[string]int, 128)
	}
	if len(in.names) < maxInternedNames {
		in.index[s] = len(in.names)
		in.names = append(in.names, s)
		in.used = append(in.used, false)
		return s
	}
	for in.used[in.hand] {
		in.used[in.hand] = false
		in.hand = (in.hand + 1) % maxInternedNames
	}
	delete(in.index, in.names[in.hand])
	in.index[s] = in.hand
	in.names[in.hand] = s
	in.hand = (in.hand + 1) % maxInternedNames
	return s
}

// Len reports how many names are interned (for tests).
func (in *Interner) Len() int {
	if in == nil {
		return 0
	}
	return len(in.names)
}
