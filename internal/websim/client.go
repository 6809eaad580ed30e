package websim

import (
	"errors"
	"fmt"
	"net/netip"
	"net/url"
	"strconv"
	"strings"

	"vpnscope/internal/dnssim"
	"vpnscope/internal/netsim"
	"vpnscope/internal/tlssim"
)

// Resolver turns a hostname into an address using the client's
// configured DNS path (typically Client.Resolve over the stack).
type Resolver func(host string) (netip.Addr, error)

// FetchResult is the outcome of fetching one URL. Results returned by
// Client.Get live in the client's scratch: see Get for how long they
// stay valid.
type FetchResult struct {
	URL      string
	Response *Response
	// Cert is the presented certificate for HTTPS fetches.
	Cert tlssim.Certificate
	// TLS reports whether the final hop was TLS.
	TLS bool
	// Downgraded is set when a TLS response came back as cleartext.
	Downgraded bool
}

// Client fetches URLs over a netsim Stack, performing DNS resolution via
// the stack's configured resolvers and following HTTP redirects. It is
// the simulator's stand-in for the Selenium-driven Chrome instance the
// paper used.
type Client struct {
	Stack *netsim.Stack
	// MaxRedirects bounds a redirect chase (default 10).
	MaxRedirects int

	nextID uint16
	// dnsScratch is the reusable query-encode buffer; the stack copies
	// what it keeps, so the wire bytes are dead once QueryUDP returns.
	dnsScratch []byte
	// dnsMsg is the reusable decoded-response message (DecodeInto
	// copies everything it keeps out of the wire bytes) and dnsIntern
	// deduplicates the answer name strings across the client's
	// thousands of lookups of the same static hostnames.
	dnsMsg    dnssim.Message
	dnsIntern dnssim.Interner
	// reqBuf is the reusable request-encode buffer; both the plain-TCP
	// exchange and the client-hello framer copy the bytes before the
	// next fetch reuses it. helloBuf stages the framed client hello the
	// same way.
	reqBuf   []byte
	helloBuf []byte
	// page is Get's result scratch; sub serves LoadPage's subresource
	// fetches, so they leave the page's chain intact.
	page, sub fetchScratch

	// Intern, when set, replaces the client's private DNS-name interner
	// with a longer-lived one (the campaign runner hands every slot's
	// client the worker world's interner, so the table stays warm
	// across slots instead of re-learning the same static names).
	Intern *dnssim.Interner
	// Certs, when set, interns decoded server-hello certificates the
	// same way (see tlssim.CertCache).
	Certs *tlssim.CertCache

	// Single-entry memos for the failure wraps below. A failing slot
	// surfaces the same (host, cause) failure dozens of times in a row
	// — retries, redirect chains, subresource fetches — and the netsim
	// layer interns its exchange errors, so cause identity is stable.
	lastResolve *resolveErr
	lastNX      nxErrKey
	lastNXE     error
	lastEmpty   emptyErrKey
	lastEmptyE  error
}

// fetchScratch holds one redirect chain: chain is the slice a fetch
// returns and hops[i] the parsed response of hop i, each with its own
// head buffer, so a redirect's Location survives the next hop. The
// next fetch through the same scratch reuses both.
type fetchScratch struct {
	chain []FetchResult
	hops  []*Response
}

// resolveErr is fmt.Errorf("resolving %q via %v: %w", host, server,
// cause) rendered on demand: lossy paths fail resolutions under many
// distinct keys, and most of those errors are dropped unread.
type resolveErr struct {
	host   string
	server netip.Addr
	cause  error
}

func (e *resolveErr) Error() string {
	b := make([]byte, 0, 96)
	b = append(b, "resolving "...)
	b = strconv.AppendQuote(b, e.host)
	b = append(b, " via "...)
	b = e.server.AppendTo(b)
	b = append(b, ": "...)
	b = append(b, e.cause.Error()...)
	return string(b)
}

func (e *resolveErr) Unwrap() error { return e.cause }

type nxErrKey struct {
	host  string
	rcode int
}

type emptyErrKey struct {
	url      string
	fetching bool // "fetching %q" vs "resolving %q"
	cause    error
}

// wrappedErr is a pre-rendered fmt.Errorf("...: %w", ..., cause)
// equivalent: same text, same errors.Is/As behavior via Unwrap.
type wrappedErr struct {
	cause error
	msg   string
}

func (e *wrappedErr) Error() string { return e.msg }
func (e *wrappedErr) Unwrap() error { return e.cause }

// interner returns the client's effective DNS interner.
func (c *Client) interner() *dnssim.Interner {
	if c.Intern != nil {
		return c.Intern
	}
	return &c.dnsIntern
}

// errResolveVia returns the resolveErr for (host, server, cause),
// memoized on the last distinct key.
func (c *Client) errResolveVia(host string, server netip.Addr, cause error) error {
	if e := c.lastResolve; e == nil || e.host != host || e.server != server || e.cause != cause {
		c.lastResolve = &resolveErr{host, server, cause}
	}
	return c.lastResolve
}

// errNXDomain renders fmt.Errorf("%w: %q (rcode %d)", ErrNXDomain,
// host, rcode), memoized on the last distinct key.
func (c *Client) errNXDomain(host string, rcode int) error {
	key := nxErrKey{host, rcode}
	if key != c.lastNX || c.lastNXE == nil {
		b := make([]byte, 0, 96)
		b = append(b, ErrNXDomain.Error()...)
		b = append(b, ": "...)
		b = strconv.AppendQuote(b, host)
		b = append(b, " (rcode "...)
		b = strconv.AppendInt(b, int64(rcode), 10)
		b = append(b, ')')
		c.lastNX, c.lastNXE = key, &wrappedErr{ErrNXDomain, string(b)}
	}
	return c.lastNXE
}

// errWrapURL renders fmt.Errorf("fetching %q: %w", url, cause) (or the
// "resolving" variant), memoized on the last distinct key.
func (c *Client) errWrapURL(fetching bool, url string, cause error) error {
	key := emptyErrKey{url, fetching, cause}
	if key != c.lastEmpty || c.lastEmptyE == nil {
		b := make([]byte, 0, 96)
		if fetching {
			b = append(b, "fetching "...)
		} else {
			b = append(b, "resolving "...)
		}
		b = strconv.AppendQuote(b, url)
		b = append(b, ": "...)
		b = append(b, cause.Error()...)
		c.lastEmpty, c.lastEmptyE = key, &wrappedErr{cause, string(b)}
	}
	return c.lastEmptyE
}

// Client errors.
var (
	ErrNoResolver     = errors.New("websim: no DNS resolver configured")
	ErrNXDomain       = errors.New("websim: name does not resolve")
	ErrTooManyHops    = errors.New("websim: too many redirects")
	ErrBadURL         = errors.New("websim: cannot parse URL")
	ErrEmptyResponse  = errors.New("websim: empty response")
	ErrCertificate    = errors.New("websim: certificate verification failed")
	ErrNotHTTPishPort = errors.New("websim: unsupported URL scheme")
)

// Resolve performs a DNS query for host through the stack's first
// configured resolver (A by default, AAAA when v6 is true).
func (c *Client) Resolve(host string, v6 bool) (netip.Addr, error) {
	server, ok := c.Stack.Resolver0()
	if !ok {
		return netip.Addr{}, ErrNoResolver
	}
	return c.ResolveVia(server, host, v6)
}

// ResolveVia queries a specific resolver address.
func (c *Client) ResolveVia(server netip.Addr, host string, v6 bool) (netip.Addr, error) {
	qtype := dnssim.TypeA
	if v6 {
		qtype = dnssim.TypeAAAA
	}
	c.nextID++
	wire, err := dnssim.AppendQueryEncode(c.dnsScratch[:0], c.nextID, host, qtype)
	if err != nil {
		return netip.Addr{}, err
	}
	c.dnsScratch = wire
	respWire, err := c.Stack.QueryUDP(server, 53, wire)
	if err != nil {
		return netip.Addr{}, c.errResolveVia(host, server, err)
	}
	if respWire == nil {
		return netip.Addr{}, c.errWrapURL(false, host, ErrEmptyResponse)
	}
	if err := dnssim.DecodeInto(&c.dnsMsg, respWire, c.interner()); err != nil {
		return netip.Addr{}, c.errWrapURL(false, host, err)
	}
	msg := &c.dnsMsg
	if msg.RCode != dnssim.RCodeOK || len(msg.Answers) == 0 {
		return netip.Addr{}, c.errNXDomain(host, int(msg.RCode))
	}
	return msg.Answers[0].Addr, nil
}

// Get fetches rawURL, following redirects. Each element of the returned
// slice is one hop of the redirect chain; the last is the final
// response.
//
// The chain and its Responses are the client's scratch, valid until
// its next Get or LoadPage: a caller that keeps a hop past that clones
// what it keeps. Each hop's URL is an owned string (rawURL itself for
// the first hop), so it may be kept freely; a Response's strings alias
// the client's parse buffers and its Body aliases the reply wire.
func (c *Client) Get(rawURL string) ([]FetchResult, error) {
	return c.get(rawURL, &c.page)
}

// get is Get over an explicit chain scratch.
func (c *Client) get(rawURL string, s *fetchScratch) ([]FetchResult, error) {
	max := c.MaxRedirects
	if max <= 0 {
		max = 10
	}
	chain := s.chain[:0]
	current := rawURL
	for hop := 0; hop <= max; hop++ {
		if hop == len(s.hops) {
			s.hops = append(s.hops, new(Response))
		}
		var res FetchResult
		if err := c.fetchOne(current, s.hops[hop], &res); err != nil {
			return chain, err
		}
		chain = append(chain, res)
		s.chain = chain
		if res.Response == nil || res.Response.Status < 300 || res.Response.Status >= 400 {
			return chain, nil
		}
		loc, ok := res.Response.Header("Location")
		if !ok {
			return chain, nil
		}
		// loc aliases this hop's head buffer; resolveRef's result never
		// does, so the next hop's URL survives the next Get.
		next, err := resolveRef(current, loc)
		if err != nil {
			return chain, err
		}
		current = next
	}
	return chain, ErrTooManyHops
}

// fetchOne performs a single HTTP(S) request with no redirect chasing,
// parsing the reply into resp and filling out (both caller-owned, so
// Get can keep them in its chain scratch).
func (c *Client) fetchOne(rawURL string, resp *Response, out *FetchResult) error {
	scheme, host, path, ok := splitURL(rawURL)
	if !ok {
		// General shapes (ports, userinfo, query, escapes) take the
		// full parser.
		u, err := url.Parse(rawURL)
		if err != nil {
			return fmt.Errorf("%w: %q: %v", ErrBadURL, rawURL, err)
		}
		scheme, host, path = u.Scheme, u.Hostname(), u.Path
	}
	if path == "" {
		path = "/"
	}
	var addr netip.Addr
	if !looksLikeIP(host) {
		// Hostnames never look like address literals, so skip the
		// ParseAddr attempt (whose error return allocates) entirely.
		var err error
		addr, err = c.Resolve(host, false)
		if err != nil {
			return err
		}
	} else if ip, perr := netip.ParseAddr(host); perr == nil {
		addr = ip
	} else {
		var err error
		addr, err = c.Resolve(host, false)
		if err != nil {
			return err
		}
	}
	c.reqBuf = appendGET(c.reqBuf[:0], host, path)
	out.URL = rawURL
	switch scheme {
	case "http":
		raw, err := c.Stack.ExchangeTCP(addr, 80, c.reqBuf)
		if err != nil {
			return err
		}
		if raw == nil {
			return c.errWrapURL(true, rawURL, ErrEmptyResponse)
		}
		if err := ParseResponseInto(resp, raw); err != nil {
			return err
		}
		out.Response = resp
		return nil
	case "https":
		c.helloBuf = tlssim.AppendClientHello(c.helloBuf[:0], host, c.reqBuf)
		raw, err := c.Stack.ExchangeTCP(addr, 443, c.helloBuf)
		if err != nil {
			return err
		}
		if raw == nil {
			return c.errWrapURL(true, rawURL, ErrEmptyResponse)
		}
		cert, inner, err := c.Certs.ParseServerHello(raw)
		if errors.Is(err, tlssim.ErrDowngraded) {
			// Cleartext where TLS was expected: surface, don't fail.
			if perr := ParseResponseInto(resp, raw); perr != nil {
				return err
			}
			out.Response, out.Downgraded = resp, true
			return nil
		}
		if err != nil {
			return err
		}
		if err := ParseResponseInto(resp, inner); err != nil {
			return err
		}
		out.Response, out.Cert, out.TLS = resp, cert, true
		return nil
	default:
		return fmt.Errorf("%w: %q", ErrNotHTTPishPort, scheme)
	}
}

// looksLikeIP reports whether host could be an IP literal: anything
// with a colon (every IPv6 form) or made purely of digits and dots
// (every IPv4 form). It may claim non-addresses look like IPs — those
// still go through ParseAddr — but it never misses a real literal, so
// hostnames skip the parser's allocation-heavy error path.
func looksLikeIP(host string) bool {
	if strings.IndexByte(host, ':') >= 0 {
		return true
	}
	for i := 0; i < len(host); i++ {
		if c := host[i]; (c < '0' || c > '9') && c != '.' {
			return false
		}
	}
	return len(host) > 0
}

// appendGET serializes the standard measurement GET request onto dst:
// byte-identical to NewRequest("GET", host, path).AppendEncode(dst),
// without materializing the Request and its header slice.
func appendGET(dst []byte, host, path string) []byte {
	dst = append(dst, "GET "...)
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, host...)
	dst = append(dst, "\r\nuser-agent: vpnscope/1.0 (measurement; +https://vpnscope.test)\r\n"...)
	dst = append(dst, "Accept: */*\r\n"...)
	dst = append(dst, "X-VPNScope-Canary: qJx7-canary-ordered\r\n"...)
	dst = append(dst, "accept-language: en-US,en;q=0.9\r\n\r\n"...)
	return dst
}

// splitURL splits a plain absolute http(s) URL of the shape every
// simulated resource uses — no userinfo, port, query, fragment, or
// percent-escapes. ok=false sends the caller to net/url.
func splitURL(raw string) (scheme, host, path string, ok bool) {
	switch {
	case strings.HasPrefix(raw, "http://"):
		scheme, raw = "http", raw[len("http://"):]
	case strings.HasPrefix(raw, "https://"):
		scheme, raw = "https", raw[len("https://"):]
	default:
		return "", "", "", false
	}
	if i := strings.IndexByte(raw, '/'); i >= 0 {
		host, path = raw[:i], raw[i:]
	} else {
		host = raw
	}
	if host == "" || strings.ContainsAny(host, ":@?#%") || strings.ContainsAny(path, "?#%") {
		return "", "", "", false
	}
	return scheme, host, path, true
}

// resolveRef resolves a possibly relative redirect Location against the
// current URL. The result never aliases ref, which may live in a
// response's head buffer.
func resolveRef(base, ref string) (string, error) {
	// Fast paths for the two shapes the simulated web emits: an
	// absolute http(s) Location (a copy of ref — resolution is the
	// identity for absolute refs) and a root-relative path against a
	// plain absolute base. Both are gated on splitURL's conservative
	// shape check so anything unusual still takes net/url.
	if _, _, path, ok := splitURL(ref); ok && plainURLPath(path) {
		if _, _, _, ok := splitURL(base); ok {
			return strings.Clone(ref), nil
		}
	} else if len(ref) > 1 && ref[0] == '/' && ref[1] != '/' && plainURLPath(ref) {
		if scheme, host, _, ok := splitURL(base); ok {
			return scheme + "://" + host + ref, nil
		}
	}
	b, err := url.Parse(base)
	if err != nil {
		return "", fmt.Errorf("%w: %q", ErrBadURL, base)
	}
	r, err := url.Parse(ref)
	if err != nil {
		return "", fmt.Errorf("%w: %q", ErrBadURL, ref)
	}
	return b.ResolveReference(r).String(), nil
}

// plainURLPath reports whether path survives net/url's parse→String
// round trip unchanged: only bytes String never escapes, and no dot
// segments for ResolveReference to remove. (Every "." or ".." segment
// in a rooted path starts with "/.", so one substring check covers
// them all.)
func plainURLPath(path string) bool {
	for i := 0; i < len(path); i++ {
		c := path[i]
		switch {
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9':
		case c == '-' || c == '.' || c == '_' || c == '~' || c == '/':
		case c == '!' || c == '$' || c == '&' || c == '\'' || c == '(' || c == ')':
		case c == '*' || c == '+' || c == ',' || c == ';' || c == '=' || c == ':' || c == '@':
		default:
			return false
		}
	}
	return !strings.Contains(path, "/.")
}

// LoadPage fetches a page and all subresources its DOM references,
// returning the final page result, the set of hostnames contacted, and
// the DOM body. This mirrors the paper's Selenium DOM-and-request
// collection. The page result lives in the client's scratch under the
// same rules as Get's.
func (c *Client) LoadPage(rawURL string) (page *FetchResult, hosts []string, dom string, err error) {
	chain, err := c.get(rawURL, &c.page)
	if err != nil {
		return nil, nil, "", err
	}
	final := &chain[len(chain)-1]
	dom = string(final.Response.Body)
	seen := map[string]bool{}
	addHost := func(raw string) {
		if hn := URLHost(raw); hn != "" && !seen[hn] {
			seen[hn] = true
			hosts = append(hosts, hn)
		}
	}
	for _, hop := range chain {
		addHost(hop.URL)
	}
	for _, src := range ExtractScriptSrcs(dom) {
		addHost(src)
		// Best-effort subresource fetch; failures (e.g. unknown ad
		// hosts) still count as load attempts, as in a real browser.
		_, _ = c.get(src, &c.sub)
	}
	return final, hosts, dom, nil
}

// URLHost returns the hostname of a URL, exactly as net/url's
// Parse(raw).Hostname() would, or "" when raw does not parse. Plain
// http(s) URLs whose host and path net/url would accept verbatim skip
// the parser.
func URLHost(raw string) string {
	if _, host, path, ok := splitURL(raw); ok && plainHost(host) && plainURLPath(path) {
		return host
	}
	u, err := url.Parse(raw)
	if err != nil {
		return ""
	}
	return u.Hostname()
}

// plainHost reports whether host is made only of letters, digits and
// the unreserved marks, which net/url accepts in a host unchanged.
func plainHost(host string) bool {
	for i := 0; i < len(host); i++ {
		c := host[i]
		switch {
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9':
		case c == '-' || c == '.' || c == '_' || c == '~':
		default:
			return false
		}
	}
	return true
}

// ExtractScriptSrcs pulls script src URLs out of a DOM.
func ExtractScriptSrcs(dom string) []string {
	var out []string
	rest := dom
	for {
		i := strings.Index(rest, `src="`)
		if i < 0 {
			return out
		}
		rest = rest[i+len(`src="`):]
		j := strings.IndexByte(rest, '"')
		if j < 0 {
			return out
		}
		out = append(out, rest[:j])
		rest = rest[j:]
	}
}
