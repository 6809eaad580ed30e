package torsim

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"

	"vpnscope/internal/capture"
	"vpnscope/internal/geo"
	"vpnscope/internal/netsim"
)

// overlay builds a network with a relay mesh, a client, and one web-ish
// TCP server that records the source address it sees.
func overlay(t testing.TB, relays int) (*netsim.Network, *Mesh, *netsim.Stack, *netsim.Host, *netip.Addr) {
	t.Helper()
	n := netsim.New(3)
	mesh, err := BuildMesh(n, relays, 3)
	if err != nil {
		t.Fatal(err)
	}
	city, ok := geo.CityByName("Chicago")
	if !ok {
		t.Fatal("no city")
	}
	client := netsim.NewHost("client", city, netip.MustParseAddr("203.0.113.10"))
	if err := n.AddHost(client); err != nil {
		t.Fatal(err)
	}
	lcity, _ := geo.CityByName("London")
	server := netsim.NewHost("server", lcity, netip.MustParseAddr("93.184.216.34"))
	var seenSrc netip.Addr
	server.HandleTCP(80, func(src netip.Addr, _ uint16, payload []byte) []byte {
		seenSrc = src
		return append([]byte("pong:"), payload...)
	})
	if err := n.AddHost(server); err != nil {
		t.Fatal(err)
	}
	return n, mesh, netsim.NewStack(n, client), server, &seenSrc
}

func TestBuildMeshValidation(t *testing.T) {
	n := netsim.New(1)
	if _, err := BuildMesh(n, 2, 1); err != ErrTooFewRelays {
		t.Fatalf("err = %v", err)
	}
	mesh, err := BuildMesh(n, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(mesh.Relays) != 5 {
		t.Fatalf("relays = %d", len(mesh.Relays))
	}
	seen := map[netip.Addr]bool{}
	for _, r := range mesh.Relays {
		if seen[r.Addr()] {
			t.Error("duplicate relay address")
		}
		seen[r.Addr()] = true
	}
}

func TestCircuitEndToEnd(t *testing.T) {
	_, mesh, stack, server, seenSrc := overlay(t, 6)
	circuit, err := mesh.NewCircuit(7, stack.Host.Addr, func(pkt []byte) ([]byte, error) {
		return stack.SendVia(netsim.PhysicalName, pkt)
	})
	if err != nil {
		t.Fatal(err)
	}
	if circuit.Guard == circuit.Middle || circuit.Middle == circuit.Exit || circuit.Guard == circuit.Exit {
		t.Fatal("circuit hops must be distinct")
	}

	// Send a TCP request through the circuit.
	req, err := stack.Net.BuildPacket(stack.Host.Addr, server.Addr,
		&capture.TCP{SrcPort: 5555, DstPort: 80, Flags: capture.FlagPSH | capture.FlagACK},
		capture.Payload([]byte("hello")))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := circuit.Send(req)
	if err != nil {
		t.Fatal(err)
	}
	p := capture.NewPacket(resp, capture.TypeIPv4, capture.Default)
	if string(p.ApplicationLayer()) != "pong:hello" {
		t.Fatalf("payload = %q", p.ApplicationLayer())
	}
	// The server saw the EXIT's address, not the client's.
	if *seenSrc != circuit.Exit.Addr() {
		t.Errorf("server saw %v, want exit %v", *seenSrc, circuit.Exit.Addr())
	}
	// The client's wire traffic only ever touched the guard.
	for _, rec := range stack.Interface(netsim.PhysicalName).Sink.Records() {
		pp := capture.NewPacket(rec.Data, capture.TypeIPv4, capture.Default)
		nl := pp.NetworkLayer()
		if nl == nil {
			continue
		}
		dst, _ := netip.AddrFromSlice(nl.NetworkFlow().Dst())
		src, _ := netip.AddrFromSlice(nl.NetworkFlow().Src())
		peer := dst
		if rec.Dir == capture.DirIn {
			peer = src
		}
		if peer != circuit.Guard.Addr() {
			t.Errorf("client talked to %v directly; only the guard is allowed", peer)
		}
	}
	// The request cleartext must not appear on the client's wire.
	for _, rec := range stack.Interface(netsim.PhysicalName).Sink.Records() {
		if bytes.Contains(rec.Data, []byte("hello")) && rec.Dir == capture.DirOut {
			t.Error("request cleartext visible at the guard hop")
		}
	}
}

func TestCircuitDeterministicSelection(t *testing.T) {
	_, mesh, stack, _, _ := overlay(t, 8)
	send := func(pkt []byte) ([]byte, error) { return stack.SendVia(netsim.PhysicalName, pkt) }
	c1, _ := mesh.NewCircuit(42, stack.Host.Addr, send)
	c2, _ := mesh.NewCircuit(42, stack.Host.Addr, send)
	if c1.Guard != c2.Guard || c1.Exit != c2.Exit {
		t.Error("same seed must select the same circuit")
	}
	c3, _ := mesh.NewCircuit(43, stack.Host.Addr, send)
	if c1.Guard == c3.Guard && c1.Middle == c3.Middle && c1.Exit == c3.Exit {
		t.Error("different seeds should usually differ")
	}
}

func TestRelayRejectsGarbage(t *testing.T) {
	n, mesh, _, _, _ := overlay(t, 3)
	r := mesh.Relays[0]
	if out := r.handleCell(n, []byte("not a cell")); out != nil {
		t.Error("garbage accepted")
	}
	if out := r.handleCell(n, []byte(cellMagic)); out != nil {
		t.Error("truncated cell accepted")
	}
	// A cell whose declared length overruns must be dropped.
	bad := wrap(r.key, netip.Addr{}, []byte("x"))
	bad = bad[:len(bad)-1]
	if out := r.handleCell(n, bad); out != nil {
		t.Error("overrun cell accepted")
	}
}

func TestOnionLayeringHidesPayloadAtEveryHop(t *testing.T) {
	_, mesh, stack, server, _ := overlay(t, 6)
	circuit, err := mesh.NewCircuit(7, stack.Host.Addr, func(pkt []byte) ([]byte, error) {
		return stack.SendVia(netsim.PhysicalName, pkt)
	})
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("do-not-reveal-before-exit")
	req, err := stack.Net.BuildPacket(stack.Host.Addr, server.Addr,
		&capture.TCP{SrcPort: 5555, DstPort: 80, Flags: capture.FlagPSH},
		capture.Payload(secret))
	if err != nil {
		t.Fatal(err)
	}
	exitCell := wrap(circuit.Exit.key, netip.Addr{}, req)
	midCell := wrap(circuit.Middle.key, circuit.Exit.Addr(), exitCell)
	guardCell := wrap(circuit.Guard.key, circuit.Middle.Addr(), midCell)
	for i, cell := range [][]byte{guardCell, midCell} {
		if bytes.Contains(cell, secret) {
			t.Errorf("layer %d exposes the payload", i)
		}
		if strings.Contains(string(cell), server.Addr.String()) {
			t.Errorf("layer %d exposes the destination textually", i)
		}
	}
}

func BenchmarkCircuitSend(b *testing.B) {
	_, mesh, stack, server, _ := overlay(b, 6)
	circuit, err := mesh.NewCircuit(7, stack.Host.Addr, func(pkt []byte) ([]byte, error) {
		return stack.SendVia(netsim.PhysicalName, pkt)
	})
	if err != nil {
		b.Fatal(err)
	}
	req, err := stack.Net.BuildPacket(stack.Host.Addr, server.Addr,
		&capture.TCP{SrcPort: 5555, DstPort: 80, Flags: capture.FlagPSH},
		capture.Payload([]byte("bench")))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := circuit.Send(req); err != nil {
			b.Fatal(err)
		}
	}
}
