// VPN-over-Tor: ten providers in the paper's catalog advertise routing
// the VPN tunnel itself over the Tor network (§4), trading performance
// for two properties a plain VPN cannot give: the provider never learns
// the member's address, and the member's ISP sees only a connection to
// a Tor guard. This example builds the onion overlay, layers a VPN
// tunnel through it, and verifies both properties from packet captures.
//
// Run with: go run ./examples/vpn-over-tor
package main

import (
	"fmt"
	"log"
	"maps"
	"net/netip"
	"slices"

	"vpnscope/internal/capture"
	"vpnscope/internal/geo"
	"vpnscope/internal/netsim"
	"vpnscope/internal/study"
	"vpnscope/internal/torsim"
	"vpnscope/internal/vpn"
	"vpnscope/internal/websim"
)

func main() {
	log.SetFlags(0)
	world, err := study.Build(study.Options{Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	// An onion overlay of ten relays on the same simulated Internet.
	mesh, err := torsim.BuildMesh(world.Net, 10, 21)
	if err != nil {
		log.Fatal(err)
	}

	// AirVPN is one of the providers that really offers this mode.
	var provider *vpn.Provider
	for _, p := range world.Providers {
		if p.Name() == "AirVPN" {
			provider = p
		}
	}
	vantage := provider.VPs[0]

	stack, err := world.NewClientStack()
	if err != nil {
		log.Fatal(err)
	}
	circuit, err := mesh.NewCircuit(5, stack.Host.Addr, func(pkt []byte) ([]byte, error) {
		return stack.SendVia(netsim.PhysicalName, pkt)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit: client -> %s (%s) -> %s (%s) -> %s (%s) -> VPN %s\n\n",
		circuit.Guard.Name, circuit.Guard.Host.Country,
		circuit.Middle.Name, circuit.Middle.Host.Country,
		circuit.Exit.Name, circuit.Exit.Host.Country,
		vantage.ID())

	client, err := vpn.ConnectVia(stack, vantage, circuit)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Disconnect()

	// Browse through the layered path.
	web := &websim.Client{Stack: stack}
	chain, err := web.Get("http://daily-news.example/")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fetched http://daily-news.example/ -> %d (%d bytes)\n",
		chain[0].Response.Status, len(chain[0].Response.Body))

	// Property 1: the wire only ever carries traffic to/from the guard.
	peers := map[netip.Addr]int{}
	for _, rec := range stack.Interface(netsim.PhysicalName).Sink.Records() {
		p := capture.NewPacket(rec.Data, capture.TypeIPv4, capture.Default)
		nl := p.NetworkLayer()
		if nl == nil {
			continue
		}
		peerB := nl.NetworkFlow().Dst()
		if rec.Dir == capture.DirIn {
			peerB = nl.NetworkFlow().Src()
		}
		peer, _ := netip.AddrFromSlice(peerB)
		peers[peer]++
	}
	fmt.Println("\nwire peers observed by the member's ISP:")
	sawVPN := false
	for _, peer := range slices.SortedFunc(maps.Keys(peers), netip.Addr.Compare) {
		n := peers[peer]
		role := "UNEXPECTED"
		switch {
		case peer == circuit.Guard.Addr():
			role = "tor guard"
		case peer == vantage.Addr():
			role = "VPN vantage point (!)"
			sawVPN = true
		default:
			if len(stack.Resolvers()) > 0 && peer == stack.Resolvers()[0] {
				// AirVPN hands out bare OpenVPN configs: the system
				// resolver still answers over the physical interface —
				// the Table 6 DNS-leak class, visible even over Tor.
				role = "ISP resolver (DNS leak: third-party configs cannot push DNS)"
			}
		}
		fmt.Printf("  %-16v %4d packets  (%s)\n", peer, n, role)
	}
	if !sawVPN {
		fmt.Println("  -> the VPN provider's address never appears on the member's wire")
	}

	// Property 2: destinations still see the VPN egress, so geo-evasion
	// and IP masking work exactly as with a direct VPN.
	var seen netip.Addr
	obsCity, ok := geo.CityByName("London")
	if !ok {
		log.Fatal("no observer city")
	}
	rec := netsim.NewHost("observer", obsCity, netip.MustParseAddr("198.51.97.1"))
	rec.HandleTCP(80, func(src netip.Addr, _ uint16, _ []byte) []byte {
		seen = src
		return (&websim.Response{Status: 200}).Encode()
	})
	if err := world.Net.AddHost(rec); err != nil {
		log.Fatal(err)
	}
	if _, err := stack.ExchangeTCP(rec.Addr, 80, websim.NewRequest("GET", "observer", "/").Encode()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndestination server sees: %v (the %s vantage point)\n", seen, vantage.ClaimedCountry)
	fmt.Println("the provider, in turn, saw only the circuit's exit relay.")
}
