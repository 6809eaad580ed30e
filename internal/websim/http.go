// Package websim is the simulated web: an order-preserving HTTP/1.1
// message codec, web sites (including the paper's honeysites and a
// header-echo service), country-level censorship policies, and the
// header-regeneration behavior of transparent proxies.
//
// Header order and spelling are preserved byte-for-byte by the codec
// because the paper's proxy-detection test (§6.2.1) works precisely by
// observing that a transparent proxy parses and regenerates headers —
// changing their order, casing, or spacing — between client and server.
package websim

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unsafe"
)

// Header is one HTTP header line, preserved verbatim.
type Header struct {
	Name  string
	Value string
}

// Request is an HTTP/1.1 request.
type Request struct {
	Method  string
	Path    string
	Headers []Header
	Body    []byte

	// head is the parse scratch the string fields alias after
	// ParseRequestInto; see there for how long they stay valid.
	head []byte
}

// Response is an HTTP/1.1 response.
type Response struct {
	Status  int
	Reason  string
	Headers []Header
	Body    []byte

	// head is the parse scratch the string fields alias after
	// ParseResponseInto; see there for how long they stay valid.
	head []byte
}

// Codec errors.
var (
	ErrMalformedRequest  = errors.New("websim: malformed request")
	ErrMalformedResponse = errors.New("websim: malformed response")
)

// Get returns the first header value with the given name
// (case-insensitive), and whether it was present.
func get(headers []Header, name string) (string, bool) {
	for _, h := range headers {
		if strings.EqualFold(h.Name, name) {
			return h.Value, true
		}
	}
	return "", false
}

// Header returns the first matching request header value.
func (r *Request) Header(name string) (string, bool) { return get(r.Headers, name) }

// Host returns the Host header.
func (r *Request) Host() string {
	v, _ := r.Header("Host")
	return v
}

// SetHeader replaces the first header with the given name or appends.
func (r *Request) SetHeader(name, value string) {
	for i := range r.Headers {
		if strings.EqualFold(r.Headers[i].Name, name) {
			r.Headers[i] = Header{name, value}
			return
		}
	}
	r.Headers = append(r.Headers, Header{name, value})
}

// Header returns the first matching response header value.
func (r *Response) Header(name string) (string, bool) { return get(r.Headers, name) }

// NewRequest builds a GET-style request with the standard client
// headers the measurement suite sends. The deliberate mixed ordering
// and casing act as a canary: any proxy that parses and regenerates the
// request will normalize them.
func NewRequest(method, host, path string) *Request {
	if path == "" {
		path = "/"
	}
	return &Request{
		Method: method,
		Path:   path,
		Headers: []Header{
			{"Host", host},
			{"user-agent", "vpnscope/1.0 (measurement; +https://vpnscope.test)"},
			{"Accept", "*/*"},
			{"X-VPNScope-Canary", "qJx7-canary-ordered"},
			{"accept-language", "en-US,en;q=0.9"},
		},
	}
}

// AppendEncode serializes the request onto dst and returns the
// extended slice. The wire bytes are identical to what the historical
// fmt-based encoder produced; hot callers reuse dst as scratch.
func (r *Request) AppendEncode(dst []byte) []byte {
	dst = append(dst, r.Method...)
	dst = append(dst, ' ')
	dst = append(dst, r.Path...)
	dst = append(dst, " HTTP/1.1\r\n"...)
	for _, h := range r.Headers {
		dst = append(dst, h.Name...)
		dst = append(dst, ": "...)
		dst = append(dst, h.Value...)
		dst = append(dst, "\r\n"...)
	}
	if len(r.Body) > 0 {
		dst = append(dst, "Content-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(r.Body)), 10)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	return append(dst, r.Body...)
}

// Encode serializes the request into a fresh buffer.
func (r *Request) Encode() []byte { return r.AppendEncode(nil) }

// ParseRequest decodes a request produced by Encode (or by a proxy's
// regeneration of one).
func ParseRequest(data []byte) (*Request, error) {
	req := &Request{}
	if err := ParseRequestInto(req, data); err != nil {
		return nil, err
	}
	return req, nil
}

// ParseRequestInto decodes data into req, reusing req's header slice
// and head buffer. Acceptance, rejection, and error text match
// ParseRequest exactly; servers that field one request at a time use
// it to keep a single Request scratch alive across their whole
// lifetime.
//
// Ownership: Method, Path and the header strings alias req's head
// buffer and Body aliases data. They stay valid until the next
// ParseRequestInto on req (or until data is reused), so a handler that
// keeps any of them past its request — a cache key, say — must clone
// it. A failed parse leaves req's fields unspecified.
func ParseRequestInto(req *Request, data []byte) error {
	head, body, err := ownHead(&req.head, data)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrMalformedRequest, err)
	}
	line0, rest := cutLine(head)
	method, after, _ := strings.Cut(line0, " ")
	path, proto, ok := strings.Cut(after, " ")
	if !ok || !strings.HasPrefix(proto, "HTTP/1.") {
		return fmt.Errorf("%w: bad request line %q", ErrMalformedRequest, line0)
	}
	hs, err := parseHeadersInto(req.Headers[:0], rest)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrMalformedRequest, err)
	}
	req.Method, req.Path, req.Headers, req.Body = method, path, hs, body
	return nil
}

// AppendEncode serializes the response onto dst and returns the
// extended slice; see Request.AppendEncode.
func (r *Response) AppendEncode(dst []byte) []byte {
	reason := r.Reason
	if reason == "" {
		reason = defaultReason(r.Status)
	}
	dst = append(dst, "HTTP/1.1 "...)
	dst = strconv.AppendInt(dst, int64(r.Status), 10)
	dst = append(dst, ' ')
	dst = append(dst, reason...)
	dst = append(dst, "\r\n"...)
	for _, h := range r.Headers {
		dst = append(dst, h.Name...)
		dst = append(dst, ": "...)
		dst = append(dst, h.Value...)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "Content-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(r.Body)), 10)
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, r.Body...)
}

// Encode serializes the response into a fresh buffer.
func (r *Response) Encode() []byte { return r.AppendEncode(nil) }

// ParseResponse decodes a response into a fresh Response.
func ParseResponse(data []byte) (*Response, error) {
	resp := &Response{}
	if err := ParseResponseInto(resp, data); err != nil {
		return nil, err
	}
	return resp, nil
}

// ParseResponseInto decodes data into resp, reusing resp's header
// slice and head buffer; acceptance, rejection, and error text match
// ParseResponse. Reason and the header strings alias resp's head
// buffer and Body aliases data, under the same ownership rules as
// ParseRequestInto: valid until the next ParseResponseInto on resp,
// cloned by whoever keeps them longer.
func ParseResponseInto(resp *Response, data []byte) error {
	head, body, err := ownHead(&resp.head, data)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrMalformedResponse, err)
	}
	line0, rest := cutLine(head)
	proto, after, ok := strings.Cut(line0, " ")
	if !ok || !strings.HasPrefix(proto, "HTTP/1.") {
		return fmt.Errorf("%w: bad status line %q", ErrMalformedResponse, line0)
	}
	code, reason, _ := strings.Cut(after, " ")
	status, err := strconv.Atoi(code)
	if err != nil {
		return fmt.Errorf("%w: bad status %q", ErrMalformedResponse, code)
	}
	hs, err := parseHeadersInto(resp.Headers[:0], rest)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrMalformedResponse, err)
	}
	resp.Status, resp.Reason, resp.Headers, resp.Body = status, reason, hs, body
	return nil
}

// ownHead copies the head of the HTTP message in data into *buf,
// reusing its capacity, and returns it as a string aliasing *buf along
// with the body, which aliases data. The copy is what keeps parsed
// strings off the reply wire, which netsim reuses; the string alias is
// what keeps steady-state parsing allocation-free. *buf is written
// only here, so the string stays intact until the next ownHead on buf.
func ownHead(buf *[]byte, data []byte) (string, []byte, error) {
	head, body, ok := bytes.Cut(data, []byte("\r\n\r\n"))
	if !ok {
		return "", nil, errors.New("no header terminator")
	}
	*buf = append((*buf)[:0], head...)
	return unsafe.String(unsafe.SliceData(*buf), len(*buf)), body, nil
}

// cutLine splits off the first \r\n-terminated line of head. The
// returned substrings alias head, so parsing a whole header block
// allocates nothing beyond the head copy ownHead makes.
func cutLine(head string) (line, rest string) {
	if i := strings.Index(head, "\r\n"); i >= 0 {
		return head[:i], head[i+2:]
	}
	return head, ""
}

// parseHeadersInto appends parsed headers onto dst (pre-sizing it when
// it has no capacity to reuse) and returns nil, not an empty slice, for
// a headerless message.
func parseHeadersInto(dst []Header, head string) ([]Header, error) {
	if cap(dst) == 0 {
		dst = make([]Header, 0, strings.Count(head, "\r\n")+1)
	}
	out := dst
	for len(head) > 0 {
		var line string
		line, head = cutLine(head)
		if line == "" {
			continue
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("bad header line %q", line)
		}
		out = append(out, Header{Name: name, Value: strings.TrimSpace(value)})
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// RequestHost extracts the Host header from a wire-encoded request
// without materializing the Request. ok mirrors ParseRequest returning
// nil error — same header-terminator, request-line, and header-line
// checks — and host mirrors Request.Host (empty when the header is
// absent), so gates that only need the host (the censorship filter
// inspects every forwarded TCP payload) keep their exact semantics
// while skipping the full decode.
func RequestHost(data []byte) (host string, ok bool) {
	head, _, ok := bytes.Cut(data, []byte("\r\n\r\n"))
	if !ok {
		return "", false
	}
	// Request line: "<method> <path> HTTP/1.x".
	line, rest := cutLineBytes(head)
	i := bytes.IndexByte(line, ' ')
	if i < 0 {
		return "", false
	}
	j := bytes.IndexByte(line[i+1:], ' ')
	if j < 0 || !bytes.HasPrefix(line[i+1+j+1:], []byte("HTTP/1.")) {
		return "", false
	}
	found := false
	for len(rest) > 0 {
		line, rest = cutLineBytes(rest)
		if len(line) == 0 {
			continue
		}
		k := bytes.IndexByte(line, ':')
		if k < 0 {
			// ParseRequest fails the whole request on any bad header
			// line, even after Host was seen.
			return "", false
		}
		if !found && len(line[:k]) == len("Host") && asciiEqualFold(line[:k], "Host") {
			host, found = string(bytes.TrimSpace(line[k+1:])), true
		}
	}
	return host, true
}

// cutLineBytes is cutLine over the wire bytes.
func cutLineBytes(head []byte) (line, rest []byte) {
	if i := bytes.Index(head, []byte("\r\n")); i >= 0 {
		return head[:i], head[i+2:]
	}
	return head, nil
}

// asciiEqualFold is strings.EqualFold for a byte slice vs an ASCII
// string of the same length.
func asciiEqualFold(b []byte, s string) bool {
	for i := 0; i < len(s); i++ {
		c, d := b[i], s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if 'A' <= d && d <= 'Z' {
			d += 'a' - 'A'
		}
		if c != d {
			return false
		}
	}
	return true
}

func defaultReason(status int) string {
	switch status {
	case 200:
		return "OK"
	case 301:
		return "Moved Permanently"
	case 302:
		return "Found"
	case 403:
		return "Forbidden"
	case 404:
		return "Not Found"
	case 502:
		return "Bad Gateway"
	default:
		return "Status"
	}
}

// Redirect builds a 302 response to location.
func Redirect(location string) *Response {
	return &Response{
		Status:  302,
		Headers: []Header{{"Location", location}},
		Body:    redirectBody,
	}
}

// redirectBody is shared by every Redirect response; never mutated.
var redirectBody = []byte("<html><body>302 Found</body></html>")

// Forbidden builds the empty-403 blocking response some censors use
// (§6.1.2).
func Forbidden() *Response {
	return &Response{Status: 403}
}
