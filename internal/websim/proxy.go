package websim

import (
	"bytes"
	"fmt"
	"strings"
)

// HeaderRegenerator is a transparent proxy's request-rewriting scratch:
// the parsed request, the regenerated header list and the output
// buffer, all reused across requests. One proxy drives it at a time.
type HeaderRegenerator struct {
	req     Request
	headers []Header
	buf     []byte
}

// Regenerate re-emits a request the way a transparent proxy that
// parses and regenerates traffic would: header names are canonicalized
// to Title-Case, whitespace is normalized, and the Host header is moved
// first. No headers are added or removed — the paper found exactly this
// "modified existing headers in ways consistent with parsing and
// subsequent regeneration" signature (§6.2.1). Bytes that do not parse
// as HTTP come back as raw itself; otherwise the result lives in g and
// is valid until the next Regenerate.
func (g *HeaderRegenerator) Regenerate(raw []byte) []byte {
	req := &g.req
	if err := ParseRequestInto(req, raw); err != nil {
		return raw // not HTTP; pass through untouched
	}
	hs := append(g.headers[:0], Header{}) // [0] is kept for Host
	haveHost := false
	for _, h := range req.Headers {
		ch := Header{Name: canonicalHeaderName(h.Name), Value: strings.TrimSpace(h.Value)}
		if strings.EqualFold(ch.Name, "Host") && !haveHost {
			hs[0], haveHost = ch, true
			continue
		}
		if strings.EqualFold(ch.Name, "Content-Length") {
			continue // recomputed by AppendEncode
		}
		hs = append(hs, ch)
	}
	g.headers = hs
	if !haveHost {
		hs = hs[1:]
	}
	regen := Request{Method: req.Method, Path: req.Path, Headers: hs, Body: req.Body}
	g.buf = regen.AppendEncode(g.buf[:0])
	return g.buf
}

// canonicalHeaderName converts a header name to HTTP canonical form
// (Title-Case per dash-separated token). The ASCII fast path costs at
// most one allocation (none when the name is already canonical) and
// produces byte-identical output to the historical
// Split/ToUpper/ToLower/Join construction, which remains as the
// fallback for non-ASCII names.
func canonicalHeaderName(name string) string {
	trimmed := strings.TrimSpace(name)
	canonical := true
	tokenStart := true
	for i := 0; i < len(trimmed); i++ {
		c := trimmed[i]
		if c >= 0x80 {
			return canonicalHeaderNameSlow(trimmed)
		}
		switch {
		case c == '-':
			tokenStart = true
			continue
		case tokenStart && 'a' <= c && c <= 'z':
			canonical = false
		case !tokenStart && 'A' <= c && c <= 'Z':
			canonical = false
		}
		tokenStart = false
	}
	if canonical {
		return trimmed
	}
	var b strings.Builder
	b.Grow(len(trimmed))
	tokenStart = true
	for i := 0; i < len(trimmed); i++ {
		c := trimmed[i]
		switch {
		case c == '-':
			tokenStart = true
		case tokenStart:
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			tokenStart = false
		default:
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
		}
		b.WriteByte(c)
	}
	return b.String()
}

func canonicalHeaderNameSlow(trimmed string) string {
	parts := strings.Split(trimmed, "-")
	for i, p := range parts {
		if p == "" {
			continue
		}
		parts[i] = strings.ToUpper(p[:1]) + strings.ToLower(p[1:])
	}
	return strings.Join(parts, "-")
}

// InjectOverlay rewrites an HTML response the way the trial-upsell
// injector the paper caught does (§6.1.3, Figure 7): a script hosted on
// a subdomain of the provider's own site plus an overlay advertisement
// are appended to the document. Non-HTML responses pass through.
func InjectOverlay(raw []byte, providerDomain string) []byte {
	resp, err := ParseResponse(raw)
	if err != nil || resp.Status != 200 {
		return raw
	}
	if ct, _ := resp.Header("Content-Type"); !strings.Contains(ct, "text/html") {
		return raw
	}
	snippet := fmt.Sprintf(
		`<script src="http://cdn.%s/overlay.js"></script>`+
			`<div class="upgrade-overlay">Upgrade to Premium — faster servers, no ads!</div>`,
		providerDomain)
	if i := bytes.LastIndex(resp.Body, []byte("</body>")); i >= 0 {
		var b bytes.Buffer
		b.Write(resp.Body[:i])
		b.WriteString(snippet)
		b.Write(resp.Body[i:])
		resp.Body = b.Bytes()
	} else {
		resp.Body = append(resp.Body, snippet...)
	}
	return resp.Encode()
}
