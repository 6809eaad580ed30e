// Package tlssim models just enough of TLS for the paper's interception
// and downgrade tests (§5.3.1): certificates issued by CAs, a trust
// pool, and a simple handshake framing carried over the simulator's TCP
// exchanges. There is no real cryptography — the security property the
// tests need is only that a man-in-the-middle cannot present a
// certificate chaining to a trusted root, which the model guarantees by
// construction (signatures bind to a CA secret the MITM does not have).
package tlssim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Certificate is a simulated X.509 leaf or root certificate.
type Certificate struct {
	Subject string `json:"subject"` // hostname (leaf) or CA name (root)
	Issuer  string `json:"issuer"`
	Serial  uint64 `json:"serial"`
	// Sig binds (Subject, Issuer, Serial) to the issuing CA's secret.
	Sig uint64 `json:"sig"`
}

// Fingerprint returns a stable identifier for the certificate, used by
// the measurement suite to compare ground-truth and observed certs. The
// hash input is assembled in a stack buffer ("subject|issuer|serial|sig",
// numbers in decimal — the bytes the original Sprintf produced), so the
// per-certificate call is allocation-free.
func (c Certificate) Fingerprint() uint64 {
	var arr [128]byte
	b := append(arr[:0], c.Subject...)
	b = append(b, '|')
	b = append(b, c.Issuer...)
	b = append(b, '|')
	b = strconv.AppendUint(b, c.Serial, 10)
	b = append(b, '|')
	b = strconv.AppendUint(b, c.Sig, 10)
	return fnvBytes(b)
}

// MatchesHost reports whether the certificate is valid for host,
// honoring a single leading wildcard label.
func (c Certificate) MatchesHost(host string) bool {
	host = strings.ToLower(strings.TrimSuffix(host, "."))
	subj := strings.ToLower(c.Subject)
	if subj == host {
		return true
	}
	if rest, ok := strings.CutPrefix(subj, "*."); ok {
		if i := strings.IndexByte(host, '.'); i > 0 && host[i+1:] == rest {
			return true
		}
	}
	return false
}

// CA is a simulated certificate authority.
type CA struct {
	Name   string
	secret uint64
	serial uint64
}

// NewCA creates a CA whose signing secret derives from seed.
func NewCA(name string, seed uint64) *CA {
	return &CA{Name: name, secret: fnv(fmt.Sprintf("ca|%s|%d", name, seed))}
}

// Issue signs a leaf certificate for subject.
func (ca *CA) Issue(subject string) Certificate {
	ca.serial++
	c := Certificate{Subject: subject, Issuer: ca.Name, Serial: ca.serial}
	c.Sig = ca.sign(c)
	return c
}

// ResetSerial pins the CA's serial counter to base, making subsequently
// issued serials (base+1, base+2, …) a pure function of base and the
// issue order since the reset. An on-the-fly MITM CA otherwise numbers
// its leaves by global issue order, which would make certificate
// fingerprints depend on how many interceptions happened earlier in a
// campaign; the runner resets the counter to a slot-derived base at
// every vantage-point boundary so fingerprints stay history-free.
func (ca *CA) ResetSerial(base uint64) {
	ca.serial = base
}

// sign computes the signature over the certificate's identity fields
// ("secret|subject|issuer|serial", the same bytes the original Sprintf
// hashed) without allocating the intermediate string.
func (ca *CA) sign(c Certificate) uint64 {
	var arr [128]byte
	b := strconv.AppendUint(arr[:0], ca.secret, 10)
	b = append(b, '|')
	b = append(b, c.Subject...)
	b = append(b, '|')
	b = append(b, c.Issuer...)
	b = append(b, '|')
	b = strconv.AppendUint(b, c.Serial, 10)
	return fnvBytes(b)
}

// Pool is a set of trusted CAs, playing the role of the client's root
// store. Verification succeeds only for certificates signed by a pooled
// CA — the pool holds the CA objects themselves, standing in for the
// asymmetric-verification property of real PKI.
type Pool struct {
	cas map[string]*CA
}

// NewPool builds a trust pool over the given CAs.
func NewPool(cas ...*CA) *Pool {
	p := &Pool{cas: make(map[string]*CA, len(cas))}
	for _, ca := range cas {
		p.cas[ca.Name] = ca
	}
	return p
}

// Verification errors.
var (
	ErrUntrustedIssuer = errors.New("tlssim: certificate issuer not trusted")
	ErrBadSignature    = errors.New("tlssim: certificate signature invalid")
	ErrHostMismatch    = errors.New("tlssim: certificate does not match host")
)

// Verify checks that cert chains to a trusted CA and matches host.
func (p *Pool) Verify(cert Certificate, host string) error {
	ca, ok := p.cas[cert.Issuer]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUntrustedIssuer, cert.Issuer)
	}
	if ca.sign(cert) != cert.Sig {
		return fmt.Errorf("%w: subject %q", ErrBadSignature, cert.Subject)
	}
	if !cert.MatchesHost(host) {
		return fmt.Errorf("%w: %q for host %q", ErrHostMismatch, cert.Subject, host)
	}
	return nil
}

// ---------------------------------------------------------------------
// Handshake framing
// ---------------------------------------------------------------------

// Wire framing constants. A ClientHello is a text preamble followed by
// the application request; a ServerHello is a JSON certificate followed
// by the application response. A server that answers a ClientHello with
// anything not starting with helloRespMagic has "stripped" TLS — the
// downgrade signature the test suite looks for.
const (
	helloMagic     = "TLSSIM-HELLO "
	helloRespMagic = "TLSSIM-CERT "
)

// EncodeClientHello frames an application request for host over TLS
// into one exact-size allocation; hot callers use AppendClientHello.
func EncodeClientHello(host string, inner []byte) []byte {
	return AppendClientHello(make([]byte, 0, len(helloMagic)+len(host)+1+len(inner)), host, inner)
}

// AppendClientHello appends the framed hello onto dst and returns the
// extended slice; hot callers reuse dst as scratch.
func AppendClientHello(dst []byte, host string, inner []byte) []byte {
	dst = append(dst, helloMagic...)
	dst = append(dst, host...)
	dst = append(dst, '\n')
	return append(dst, inner...)
}

// Client-hello parse failures (package-level so the hot reject paths
// allocate nothing).
var (
	errNotClientHello       = errors.New("tlssim: not a client hello")
	errTruncatedClientHello = errors.New("tlssim: truncated client hello")
	errTruncatedServerHello = errors.New("tlssim: truncated server hello")
)

// ParseClientHello splits a framed hello into SNI and inner request.
func ParseClientHello(data []byte) (host string, inner []byte, err error) {
	sni, inner, err := clientHelloParts(data)
	if err != nil {
		return "", nil, err
	}
	return string(sni), inner, nil
}

// ClientHelloInner returns just the inner request of a framed hello —
// the variant for servers that do not care about the SNI, which skips
// materializing the name string.
func ClientHelloInner(data []byte) ([]byte, error) {
	_, inner, err := clientHelloParts(data)
	return inner, err
}

func clientHelloParts(data []byte) (sni, inner []byte, err error) {
	rest, ok := bytes.CutPrefix(data, []byte(helloMagic))
	if !ok {
		return nil, nil, errNotClientHello
	}
	sni, inner, ok = bytes.Cut(rest, []byte{'\n'})
	if !ok {
		return nil, nil, errTruncatedClientHello
	}
	return sni, inner, nil
}

// IsClientHello reports whether data is framed as a ClientHello.
func IsClientHello(data []byte) bool {
	return bytes.HasPrefix(data, []byte(helloMagic))
}

// EncodeServerHello frames a response: certificate then payload. An
// encoding failure is returned, not panicked: handshake synthesis runs
// inside packet handlers, where a panic would take down a whole
// campaign instead of one exchange.
func EncodeServerHello(cert Certificate, inner []byte) ([]byte, error) {
	var arr [160]byte
	cj, ok := appendCertJSON(arr[:0], cert)
	if !ok {
		// Names outside the plain-ASCII fast path (escapes, non-ASCII)
		// take the reflective encoder; output is identical either way.
		var err error
		if cj, err = json.Marshal(cert); err != nil {
			return nil, fmt.Errorf("tlssim: encoding certificate: %w", err)
		}
	}
	out := make([]byte, 0, len(helloRespMagic)+len(cj)+1+len(inner))
	out = append(out, helloRespMagic...)
	out = append(out, cj...)
	out = append(out, '\n')
	return append(out, inner...), nil
}

// AppendServerHello appends the framed response onto dst and returns
// the extended slice; hot handlers reuse dst as scratch.
func AppendServerHello(dst []byte, cert Certificate, inner []byte) ([]byte, error) {
	var arr [160]byte
	cj, ok := appendCertJSON(arr[:0], cert)
	if !ok {
		var err error
		if cj, err = json.Marshal(cert); err != nil {
			return nil, fmt.Errorf("tlssim: encoding certificate: %w", err)
		}
	}
	dst = append(dst, helloRespMagic...)
	dst = append(dst, cj...)
	dst = append(dst, '\n')
	return append(dst, inner...), nil
}

// ParseServerHello splits a framed server hello. A parse failure on
// bytes that do not carry the magic indicates a TLS downgrade (the
// server or a middlebox answered in cleartext).
func ParseServerHello(data []byte) (Certificate, []byte, error) {
	rest, ok := bytes.CutPrefix(data, []byte(helloRespMagic))
	if !ok {
		return Certificate{}, nil, ErrDowngraded
	}
	line, inner, ok := bytes.Cut(rest, []byte{'\n'})
	if !ok {
		return Certificate{}, nil, errTruncatedServerHello
	}
	cert, ok := parseCertJSON(line)
	if !ok {
		if err := json.Unmarshal(line, &cert); err != nil {
			return Certificate{}, nil, fmt.Errorf("tlssim: bad certificate frame: %w", err)
		}
	}
	return cert, inner, nil
}

// appendCertJSON appends cert encoded exactly as encoding/json would
// ({"subject":...,"issuer":...,"serial":N,"sig":N}), provided both names
// stay on the plain-ASCII fast path. ok=false means the caller must use
// json.Marshal (which escapes) to get the identical canonical bytes.
func appendCertJSON(dst []byte, c Certificate) ([]byte, bool) {
	if !jsonPlain(c.Subject) || !jsonPlain(c.Issuer) {
		return dst, false
	}
	dst = append(dst, `{"subject":"`...)
	dst = append(dst, c.Subject...)
	dst = append(dst, `","issuer":"`...)
	dst = append(dst, c.Issuer...)
	dst = append(dst, `","serial":`...)
	dst = strconv.AppendUint(dst, c.Serial, 10)
	dst = append(dst, `,"sig":`...)
	dst = strconv.AppendUint(dst, c.Sig, 10)
	dst = append(dst, '}')
	return dst, true
}

// jsonPlain reports whether encoding/json emits s verbatim: printable
// ASCII with none of the characters the encoder escapes ("\<>&).
func jsonPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		b := s[i]
		if b < 0x20 || b >= 0x80 || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			return false
		}
	}
	return true
}

// parseCertJSON parses the exact shape appendCertJSON emits. Any
// deviation — escapes, whitespace, reordered fields, non-ASCII — returns
// false and the caller falls back to json.Unmarshal, which accepts every
// frame the json.Marshal path can produce.
func parseCertJSON(line []byte) (Certificate, bool) {
	rest, ok := bytes.CutPrefix(line, []byte(`{"subject":"`))
	if !ok {
		return Certificate{}, false
	}
	subj, rest, ok := cutPlainString(rest)
	if !ok {
		return Certificate{}, false
	}
	rest, ok = bytes.CutPrefix(rest, []byte(`,"issuer":"`))
	if !ok {
		return Certificate{}, false
	}
	iss, rest, ok := cutPlainString(rest)
	if !ok {
		return Certificate{}, false
	}
	rest, ok = bytes.CutPrefix(rest, []byte(`,"serial":`))
	if !ok {
		return Certificate{}, false
	}
	serial, rest, ok := cutUint(rest)
	if !ok {
		return Certificate{}, false
	}
	rest, ok = bytes.CutPrefix(rest, []byte(`,"sig":`))
	if !ok {
		return Certificate{}, false
	}
	sig, rest, ok := cutUint(rest)
	if !ok || len(rest) != 1 || rest[0] != '}' {
		return Certificate{}, false
	}
	return Certificate{
		Subject: string(subj),
		Issuer:  string(iss),
		Serial:  serial,
		Sig:     sig,
	}, true
}

// cutPlainString cuts a JSON string up to its closing quote, accepting
// only the plain-ASCII subset jsonPlain admits (so the fast parser never
// disagrees with json.Unmarshal about escapes or UTF-8 coercion).
func cutPlainString(b []byte) (s, rest []byte, ok bool) {
	i := bytes.IndexByte(b, '"')
	if i < 0 {
		return nil, nil, false
	}
	for _, c := range b[:i] {
		if c < 0x20 || c >= 0x80 || c == '\\' {
			return nil, nil, false
		}
	}
	return b[:i], b[i+1:], true
}

// cutUint cuts a decimal uint64, rejecting overflow (fallback handles
// the error the same way json would).
func cutUint(b []byte) (v uint64, rest []byte, ok bool) {
	const cutoff = (1<<64 - 1) / 10
	i := 0
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		d := uint64(b[i] - '0')
		if v > cutoff || (v == cutoff && d > 5) {
			return 0, nil, false
		}
		v = v*10 + d
		i++
	}
	if i == 0 {
		return 0, nil, false
	}
	return v, b[i:], true
}

// ErrDowngraded marks a response that should have been TLS but was not.
var ErrDowngraded = errors.New("tlssim: connection downgraded to cleartext")

func fnv(s string) uint64 {
	var h uint64 = 0xCBF29CE484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001B3
	}
	return h
}

func fnvBytes(b []byte) uint64 {
	var h uint64 = 0xCBF29CE484222325
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 0x100000001B3
	}
	return h
}

// CertCache interns decoded server-hello certificates by their raw
// frame line. A campaign parses the same few hundred certificate frames
// (one per site, plus one per MITM'd SNI) hundreds of thousands of
// times; after first sight a hit costs zero allocations and returns
// certificates whose name strings are shared.
//
// A CertCache is single-goroutine, like the world that owns it — hand
// one to each worker's client, never share across workers. The zero
// value is ready to use.
type CertCache struct {
	m map[string]Certificate
}

// maxCachedCerts bounds the table against SNI churn; overflow falls
// back to a plain parse.
const maxCachedCerts = 512

// ParseServerHello is ParseServerHello with certificate interning.
func (cc *CertCache) ParseServerHello(data []byte) (Certificate, []byte, error) {
	if cc == nil {
		return ParseServerHello(data)
	}
	rest, ok := bytes.CutPrefix(data, []byte(helloRespMagic))
	if !ok {
		return Certificate{}, nil, ErrDowngraded
	}
	line, inner, ok := bytes.Cut(rest, []byte{'\n'})
	if !ok {
		return Certificate{}, nil, errTruncatedServerHello
	}
	if cert, ok := cc.m[string(line)]; ok { // no-alloc map probe
		return cert, inner, nil
	}
	cert, ok := parseCertJSON(line)
	if !ok {
		if err := json.Unmarshal(line, &cert); err != nil {
			return Certificate{}, nil, fmt.Errorf("tlssim: bad certificate frame: %w", err)
		}
	}
	if cc.m == nil {
		cc.m = make(map[string]Certificate, 64)
	}
	if len(cc.m) < maxCachedCerts {
		cc.m[string(line)] = cert
	}
	return cert, inner, nil
}
