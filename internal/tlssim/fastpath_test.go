package tlssim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

var fastpathCerts = []Certificate{
	{},
	{Subject: "example.com", Issuer: "SimTrust Root", Serial: 1, Sig: 42},
	{Subject: "*.wildcard.example", Issuer: "mitm-ca", Serial: 1<<32 | 7, Sig: 1<<64 - 1},
	{Subject: "a", Issuer: "b", Serial: 0, Sig: 0},
	{Subject: "host.with-dash_and~tilde.example", Issuer: "ca!#$%()*+,-./:;=?@[]^_`{|}", Serial: 123456789, Sig: 987654321},
}

// Certificates whose names force the json.Marshal fallback.
var fallbackCerts = []Certificate{
	{Subject: "quote\"inside", Issuer: "ca", Serial: 1, Sig: 2},
	{Subject: "back\\slash", Issuer: "ca", Serial: 1, Sig: 2},
	{Subject: "angle<bracket>", Issuer: "amp&ersand", Serial: 1, Sig: 2},
	{Subject: "ünïcode.example", Issuer: "ca", Serial: 1, Sig: 2},
	{Subject: "ctrl\x01char", Issuer: "ca", Serial: 1, Sig: 2},
}

func TestAppendCertJSONMatchesMarshal(t *testing.T) {
	for _, c := range fastpathCerts {
		fast, ok := appendCertJSON(nil, c)
		if !ok {
			t.Fatalf("appendCertJSON rejected plain cert %+v", c)
		}
		ref, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fast, ref) {
			t.Errorf("cert %+v: fast %q != json.Marshal %q", c, fast, ref)
		}
	}
	for _, c := range fallbackCerts {
		if _, ok := appendCertJSON(nil, c); ok {
			t.Errorf("appendCertJSON accepted cert needing escapes: %+v", c)
		}
	}
}

func TestParseCertJSONMatchesUnmarshal(t *testing.T) {
	all := append(append([]Certificate{}, fastpathCerts...), fallbackCerts...)
	for _, c := range all {
		wire, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var ref Certificate
		if err := json.Unmarshal(wire, &ref); err != nil {
			t.Fatal(err)
		}
		if fast, ok := parseCertJSON(wire); ok {
			if fast != ref {
				t.Errorf("wire %q: fast parse %+v != json.Unmarshal %+v", wire, fast, ref)
			}
		} else {
			// Fallback path must still land on the same certificate.
			var via Certificate
			if err := json.Unmarshal(wire, &via); err != nil || via != ref {
				t.Errorf("wire %q: fallback parse diverged: %+v vs %+v (%v)", wire, via, ref, err)
			}
		}
	}
	// Shapes the fast parser must reject (fallback decides their fate).
	for _, bad := range []string{
		`{ "subject":"a","issuer":"b","serial":1,"sig":2}`,                   // whitespace
		`{"issuer":"b","subject":"a","serial":1,"sig":2}`,                    // reordered
		`{"subject":"a","issuer":"b","serial":-1,"sig":2}`,                   // negative
		`{"subject":"a","issuer":"b","serial":99999999999999999999,"sig":2}`, // overflow
		`{"subject":"a","issuer":"b","serial":1,"sig":2,}`,
		`{"subject":"a\"x","issuer":"b","serial":1,"sig":2}`,
	} {
		if _, ok := parseCertJSON([]byte(bad)); ok {
			t.Errorf("fast parser accepted %q", bad)
		}
	}
}

func TestServerHelloFastPathRoundTrip(t *testing.T) {
	inner := []byte("HTTP/1.1 200 OK\r\n\r\nhello")
	for _, c := range append(append([]Certificate{}, fastpathCerts...), fallbackCerts...) {
		frame, err := EncodeServerHello(c, inner)
		if err != nil {
			t.Fatal(err)
		}
		got, gotInner, err := ParseServerHello(frame)
		if err != nil {
			t.Fatalf("cert %+v: %v", c, err)
		}
		// json round-trips coerce invalid UTF-8; compare against what a
		// pure-json round trip of the same cert yields.
		wire, _ := json.Marshal(c)
		var want Certificate
		if err := json.Unmarshal(wire, &want); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("cert %+v: round trip %+v, want %+v", c, got, want)
		}
		if !bytes.Equal(gotInner, inner) {
			t.Errorf("cert %+v: inner %q", c, gotInner)
		}
	}
}

func TestFingerprintAndSignMatchFormatted(t *testing.T) {
	ca := NewCA("SimTrust Root", 7)
	for _, c := range append(append([]Certificate{}, fastpathCerts...), fallbackCerts...) {
		wantFP := fnv(fmt.Sprintf("%s|%s|%d|%d", c.Subject, c.Issuer, c.Serial, c.Sig))
		if got := c.Fingerprint(); got != wantFP {
			t.Errorf("cert %+v: Fingerprint %x, want %x", c, got, wantFP)
		}
		wantSig := fnv(fmt.Sprintf("%d|%s|%s|%d", ca.secret, c.Subject, c.Issuer, c.Serial))
		if got := ca.sign(c); got != wantSig {
			t.Errorf("cert %+v: sign %x, want %x", c, got, wantSig)
		}
	}
}

func TestFingerprintAllocFree(t *testing.T) {
	c := Certificate{Subject: "long-subject-name.some-provider.example", Issuer: "SimTrust Root Authority", Serial: 1 << 40, Sig: 1 << 50}
	if n := testing.AllocsPerRun(100, func() { _ = c.Fingerprint() }); n > 0 {
		t.Errorf("Fingerprint allocates %v per call", n)
	}
}
