package psl

import (
	"testing"
	"testing/quick"
)

func TestPublicSuffix(t *testing.T) {
	cases := []struct{ host, want string }{
		{"example.com", "com"},
		{"www.example.com", "com"},
		{"example.co.uk", "co.uk"},
		{"a.b.example.co.uk", "co.uk"},
		{"warning.or.kr", "or.kr"},
		{"fz139.ttk.ru", "ru"},
		{"example.guide", "guide"},
		{"foo.ck", "foo.ck"},    // wildcard *.ck
		{"a.foo.ck", "foo.ck"},  // under wildcard suffix
		{"www.ck", "ck"},        // exception rule
		{"unknowntld.zz", "zz"}, // implicit rule
		{"Example.COM.", "com"}, // normalization
		{"195.175.254.2", ""},   // IP literal
		{"", ""},
	}
	for _, c := range cases {
		if got := PublicSuffix(c.host); got != c.want {
			t.Errorf("PublicSuffix(%q) = %q, want %q", c.host, got, c.want)
		}
	}
}

func TestRegisteredDomain(t *testing.T) {
	cases := []struct{ host, want string }{
		{"example.com", "example.com"},
		{"www.example.com", "example.com"},
		{"a.b.example.co.uk", "example.co.uk"},
		{"warning.or.kr", "warning.or.kr"},
		{"www.warning.or.kr", "warning.or.kr"},
		{"com", ""}, // a bare public suffix has no registered domain
		{"co.uk", ""},
		{"10.0.0.1", ""}, // IP literal
		{"", ""},
	}
	for _, c := range cases {
		if got := RegisteredDomain(c.host); got != c.want {
			t.Errorf("RegisteredDomain(%q) = %q, want %q", c.host, got, c.want)
		}
	}
}

func TestIsIPLiteral(t *testing.T) {
	for _, ip := range []string{"1.2.3.4", "195.175.254.2", "::1", "[2001:db8::1]"} {
		if !IsIPLiteral(ip) {
			t.Errorf("IsIPLiteral(%q) = false", ip)
		}
	}
	for _, h := range []string{"example.com", "1.2.3.4.5", "a.b.c.d", "12345.1.1.1"} {
		if IsIPLiteral(h) {
			t.Errorf("IsIPLiteral(%q) = true", h)
		}
	}
}

func TestRelated(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		// Shared registered domain.
		{"a.example.com", "b.example.com", true},
		{"www.example.com", "example.com", true},
		// Registered domains differing only by public suffix (paper's
		// explicit example).
		{"a.example.com", "b.example.org", true},
		{"example.com", "example.co.uk", true},
		// Unrelated.
		{"news-site.com", "warning.or.kr", false},
		{"example.com", "other.com", false},
		// IP literal destination: always unrelated (censorship signature).
		{"news-site.com", "195.175.254.2", false},
		// Identity.
		{"example.com", "example.com", true},
	}
	for _, c := range cases {
		if got := Related(c.a, c.b, nil); got != c.want {
			t.Errorf("Related(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRelatedOverride(t *testing.T) {
	ro := NewRelatedOverride([][2]string{{"hidemyass.com", "avast.com"}})
	if !Related("hidemyass.com", "avast.com", ro) {
		t.Error("override pair should be related")
	}
	if !Related("avast.com", "hidemyass.com", ro) {
		t.Error("override must be symmetric")
	}
	if Related("hidemyass.com", "nordvpn.com", ro) {
		t.Error("non-override pair should be unrelated")
	}
	if (*RelatedOverride)(nil).Contains("a", "b") {
		t.Error("nil override must be empty")
	}
}

func TestRelatedSymmetryProperty(t *testing.T) {
	hosts := []string{
		"a.example.com", "b.example.org", "example.co.uk", "warning.or.kr",
		"x.y.z.com", "195.175.254.2", "foo.ck", "www.ck", "site.ru",
	}
	if err := quick.Check(func(i, j uint8) bool {
		a := hosts[int(i)%len(hosts)]
		b := hosts[int(j)%len(hosts)]
		return Related(a, b, nil) == Related(b, a, nil)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegisteredDomainIsSuffixProperty(t *testing.T) {
	hosts := []string{
		"a.example.com", "deep.a.b.c.example.co.uk", "warning.or.kr",
		"x.com", "foo.bar.baz.ru",
	}
	for _, h := range hosts {
		rd := RegisteredDomain(h)
		if rd == "" {
			t.Errorf("RegisteredDomain(%q) empty", h)
			continue
		}
		if h != rd && !hasDotSuffix(h, rd) {
			t.Errorf("RegisteredDomain(%q) = %q is not a dot-suffix", h, rd)
		}
		ps := PublicSuffix(h)
		if !hasDotSuffix(rd, ps) {
			t.Errorf("PublicSuffix(%q) = %q is not a dot-suffix of %q", h, ps, rd)
		}
	}
}

func hasDotSuffix(host, suffix string) bool {
	return len(host) > len(suffix) && host[len(host)-len(suffix)-1] == '.' &&
		host[len(host)-len(suffix):] == suffix
}

func BenchmarkRegisteredDomain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = RegisteredDomain("deep.a.b.c.example.co.uk")
	}
}
