package dnssim

import (
	"bytes"
	"net/netip"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestMessageRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, "www.example.com", TypeA)
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != 0x1234 || back.Response || len(back.Questions) != 1 {
		t.Fatalf("decoded = %+v", back)
	}
	if back.Questions[0].Name != "www.example.com" || back.Questions[0].Type != TypeA {
		t.Fatalf("question = %+v", back.Questions[0])
	}
}

func TestResponseRoundTrip(t *testing.T) {
	q := NewQuery(7, "host.test", TypeA)
	r := q.Reply().Answer(addr("1.2.3.4")).Answer(addr("5.6.7.8"))
	wire, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Response || back.ID != 7 {
		t.Fatalf("header = %+v", back)
	}
	if len(back.Answers) != 2 || back.Answers[0].Addr != addr("1.2.3.4") || back.Answers[1].Addr != addr("5.6.7.8") {
		t.Fatalf("answers = %+v", back.Answers)
	}
	if back.Answers[0].Type != TypeA || back.Answers[0].TTL != 300 {
		t.Fatalf("rr meta = %+v", back.Answers[0])
	}
}

func TestAAAAAnswers(t *testing.T) {
	q := NewQuery(9, "v6.test", TypeAAAA)
	r := q.Reply().Answer(addr("2001:db8::1"))
	wire, _ := r.Encode()
	back, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.Answers[0].Type != TypeAAAA || back.Answers[0].Addr != addr("2001:db8::1") {
		t.Fatalf("answer = %+v", back.Answers[0])
	}
}

func TestEncodeRejectsBadNames(t *testing.T) {
	long := make([]byte, 70)
	for i := range long {
		long[i] = 'a'
	}
	for _, name := range []string{"bad..name", string(long) + ".com"} {
		if _, err := NewQuery(1, name, TypeA).Encode(); err == nil {
			t.Errorf("Encode(%q) should fail", name)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err != ErrTruncatedMessage {
		t.Errorf("short message err = %v", err)
	}
	q, _ := NewQuery(1, "a.test", TypeA).Encode()
	if _, err := Decode(q[:len(q)-3]); err == nil {
		t.Error("truncated question should fail")
	}
}

func TestNameCaseNormalization(t *testing.T) {
	q := NewQuery(1, "WWW.Example.COM", TypeA)
	wire, _ := q.Encode()
	back, _ := Decode(wire)
	if back.Questions[0].Name != "www.example.com" {
		t.Fatalf("name = %q", back.Questions[0].Name)
	}
}

func TestQueryRoundTripProperty(t *testing.T) {
	labels := []string{"a", "bb", "example", "test", "long-label-ok", "x9"}
	if err := quick.Check(func(id uint16, i1, i2, i3 uint8) bool {
		name := labels[int(i1)%len(labels)] + "." + labels[int(i2)%len(labels)] + "." + labels[int(i3)%len(labels)]
		wire, err := NewQuery(id, name, TypeA).Encode()
		if err != nil {
			return false
		}
		back, err := Decode(wire)
		if err != nil {
			return false
		}
		return back.ID == id && back.Questions[0].Name == name
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func newResolver() (*Directory, *Resolver) {
	dir := NewDirectory()
	dir.Register("www.example.com", addr("93.184.216.34"), addr("2606:2800::1"))
	dir.Register("news.test", addr("10.1.1.1"))
	r := &Resolver{Name: "google-dns", Addr: addr("8.8.8.8"), Dir: dir}
	return dir, r
}

func query(t *testing.T, r *Resolver, name string, qtype uint16) *Message {
	t.Helper()
	wire, err := NewQuery(42, name, qtype).Encode()
	if err != nil {
		t.Fatal(err)
	}
	respWire := r.HandleQuery(wire)
	if respWire == nil {
		t.Fatalf("no response for %q", name)
	}
	resp, err := Decode(respWire)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestResolverAnswers(t *testing.T) {
	_, r := newResolver()
	resp := query(t, r, "www.example.com", TypeA)
	if resp.RCode != RCodeOK || len(resp.Answers) != 1 || resp.Answers[0].Addr != addr("93.184.216.34") {
		t.Fatalf("A resp = %+v", resp)
	}
	resp = query(t, r, "www.example.com", TypeAAAA)
	if len(resp.Answers) != 1 || resp.Answers[0].Addr != addr("2606:2800::1") {
		t.Fatalf("AAAA resp = %+v", resp)
	}
	resp = query(t, r, "nonexistent.test", TypeA)
	if resp.RCode != RCodeNXDomain || len(resp.Answers) != 0 {
		t.Fatalf("NX resp = %+v", resp)
	}
}

func TestResolverManipulation(t *testing.T) {
	_, r := newResolver()
	hijack := addr("203.0.113.66")
	r.Manipulate = func(name string, qtype uint16, addrs []netip.Addr) []netip.Addr {
		if name == "news.test" && qtype == TypeA {
			return []netip.Addr{hijack}
		}
		return addrs
	}
	resp := query(t, r, "news.test", TypeA)
	if len(resp.Answers) != 1 || resp.Answers[0].Addr != hijack {
		t.Fatalf("hijacked resp = %+v", resp)
	}
	// Other names untouched.
	resp = query(t, r, "www.example.com", TypeA)
	if resp.Answers[0].Addr != addr("93.184.216.34") {
		t.Fatal("unrelated name was manipulated")
	}
}

func TestAuthorityOriginLogging(t *testing.T) {
	dir, r := newResolver()
	auth := NewAuthority("probe.vpnscope.test", addr("192.0.2.53"))
	dir.AddAuthority(auth)

	resp := query(t, r, "tag-12345.probe.vpnscope.test", TypeA)
	if len(resp.Answers) != 1 {
		t.Fatalf("authority resp = %+v", resp)
	}
	origins := auth.OriginsOf("tag-12345.probe.vpnscope.test")
	if len(origins) != 1 || origins[0] != addr("8.8.8.8") {
		t.Fatalf("origins = %v, want the resolver's address", origins)
	}
	// A second resolver leaves a distinct fingerprint.
	r2 := &Resolver{Name: "vpn-dns", Addr: addr("10.8.0.53"), Dir: dir}
	query(t, r2, "tag-67890.probe.vpnscope.test", TypeA)
	origins = auth.OriginsOf("tag-67890.probe.vpnscope.test")
	if len(origins) != 1 || origins[0] != addr("10.8.0.53") {
		t.Fatalf("origins = %v", origins)
	}
	if len(auth.Log()) != 2 {
		t.Fatalf("log size = %d", len(auth.Log()))
	}
}

func TestAuthoritySuffixMatching(t *testing.T) {
	dir := NewDirectory()
	auth := NewAuthority("probe.test", addr("192.0.2.53"))
	dir.AddAuthority(auth)
	if dir.authorityFor("x.probe.test") != auth {
		t.Error("subdomain should match")
	}
	if dir.authorityFor("probe.test") != auth {
		t.Error("apex should match")
	}
	if dir.authorityFor("notprobe.test") != nil {
		t.Error("suffix match must respect label boundary")
	}
}

func TestResolverIgnoresGarbage(t *testing.T) {
	_, r := newResolver()
	if r.HandleQuery([]byte("garbage")) != nil {
		t.Error("garbage should be dropped")
	}
	// A response message must not be answered (loop prevention).
	respWire, _ := NewQuery(1, "www.example.com", TypeA).Reply().Encode()
	if r.HandleQuery(respWire) != nil {
		t.Error("responses should be dropped")
	}
}

func TestHandlerAdapter(t *testing.T) {
	_, r := newResolver()
	h := r.Handler()
	wire, _ := NewQuery(5, "www.example.com", TypeA).Encode()
	resp := h(addr("1.1.1.1"), 5353, wire)
	if resp == nil || bytes.Equal(resp, wire) {
		t.Fatal("handler should answer")
	}
	m, err := Decode(resp)
	if err != nil || !m.Response {
		t.Fatalf("handler resp = %v, %v", m, err)
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	q := NewQuery(1, "www.example.com", TypeA)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire, err := q.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResolverQuery(b *testing.B) {
	_, r := newResolver()
	wire, _ := NewQuery(1, "www.example.com", TypeA).Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r.HandleQuery(wire) == nil {
			b.Fatal("no answer")
		}
	}
}

func TestDecodeArbitraryBytesNeverPanics(t *testing.T) {
	if err := quick.Check(func(data []byte) bool {
		_, _ = Decode(data)
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestResolverArbitraryBytesNeverPanics(t *testing.T) {
	_, r := newResolver()
	if err := quick.Check(func(data []byte) bool {
		_ = r.HandleQuery(data)
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendNameFastPathMatchesSlow(t *testing.T) {
	cases := []string{
		"", ".", "a", "a.", "a.b", "www.example.com", "www.example.com.",
		"UPPER.example.com", "mixed.Example.COM", "a..b", "a..", "..",
		"xn--bcher-kva.example", "héllo.example", "-dash.example",
		strings.Repeat("a", 63) + ".example",
		strings.Repeat("a", 64) + ".example",
		strings.Repeat("a.", 126) + "a",
		strings.Repeat("a.", 127) + "a",
		strings.Repeat("a.", 126) + "a.",
	}
	for _, name := range cases {
		fast, fastErr := appendName(nil, name)
		slow, slowErr := appendNameSlow(nil, name)
		if (fastErr == nil) != (slowErr == nil) {
			t.Fatalf("appendName(%q): fast err %v, slow err %v", name, fastErr, slowErr)
		}
		if fastErr != nil {
			if fastErr.Error() != slowErr.Error() {
				t.Fatalf("appendName(%q): fast err %q, slow err %q", name, fastErr, slowErr)
			}
			continue
		}
		if !bytes.Equal(fast, slow) {
			t.Fatalf("appendName(%q): fast %x, slow %x", name, fast, slow)
		}
	}
}

// TestInternerKeepsStaticNamesWhenFull: one world's interner serves
// every slot of a campaign, and each slot decodes a one-shot probe
// name. Once those fill the table, the static names queried every slot
// must keep their entries, a static name first queried late must still
// get one, and the table must stay within its cap.
func TestInternerKeepsStaticNamesWhenFull(t *testing.T) {
	var in Interner
	static := []string{"www.example.com", "echo.example", "ipecho.example"}
	late := "cdn.lateprovider.example"
	for slot := 0; slot < 3*maxInternedNames; slot++ {
		for _, n := range static {
			in.Intern([]byte(n))
		}
		if slot >= 2*maxInternedNames {
			in.Intern([]byte(late))
		}
		probe := []byte("t" + strconv.Itoa(slot) + ".probe.example")
		for i := 0; i < 3; i++ { // the resolver's and the client's decodes
			in.Intern(probe)
		}
	}
	if in.Len() > maxInternedNames {
		t.Fatalf("table holds %d names, cap %d", in.Len(), maxInternedNames)
	}
	for _, n := range append(static, late) {
		b := []byte(n)
		// The result escapes through internSink, so a fallback cannot
		// convert into a stack buffer and hide its allocation.
		if allocs := testing.AllocsPerRun(10, func() { internSink = in.Intern(b) }); allocs != 0 {
			t.Errorf("%s: %v allocations per Intern; the full table lost it or never admitted it", n, allocs)
		}
		if internSink != n {
			t.Errorf("Intern(%q) = %q", n, internSink)
		}
	}
}

var internSink string
