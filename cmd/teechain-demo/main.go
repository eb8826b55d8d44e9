// teechain-demo runs two Teechain enclaves over REAL TCP sockets on
// localhost, hosted by the production socket transport
// (internal/transport): length-prefixed binary frames, per-peer writer
// goroutines, automatic reconnection — the same engine the simulator
// drives (internal/core.Enclave is a transport-agnostic state machine).
//
// The demo drives the deployment exactly the way external tooling
// does: through the typed control-plane API (internal/api) with the Go
// client SDK (internal/api/client) — attesting the enclaves, opening a
// channel, streaming payment events over a subscription, and settling
// on a shared blockchain, printing wall-clock latencies of the real
// socket round trips. For N-node deployments as separate processes,
// see cmd/teechain-node.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"teechain/internal/api"
	"teechain/internal/api/client"
	"teechain/internal/chain"
	"teechain/internal/tee"
	"teechain/internal/transport"
)

func main() {
	payments := flag.Int("payments", 5, "payments to send")
	flag.Parse()

	auth, err := tee.NewAuthority("tcp-demo")
	if err != nil {
		log.Fatal(err)
	}
	lc := transport.NewLocalChain(chain.New())

	newHost := func(name string) *transport.Host {
		h, err := transport.NewHost(transport.Config{
			Name:      name,
			Authority: auth,
			Chain:     lc,
			Logf:      log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		return h
	}
	alice, bob := newHost("alice"), newHost("bob")
	defer alice.Close()
	defer bob.Close()

	addr, err := bob.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}

	// Serve alice's control plane and connect the typed client to it.
	ctlLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctl := api.Serve(ctlLn, alice.API(), log.Printf)
	defer ctl.Close()
	cc, err := client.Dial(ctlLn.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer cc.Close()
	fmt.Printf("typed control client connected to %s (node %q, identity %s…)\n",
		ctlLn.Addr(), cc.Info().Name, api.FormatIdentity(cc.Info().Identity)[:16])

	if err := cc.DialPeer(addr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice connected to bob at %s over real TCP\n", addr)

	if err := cc.Attest("bob"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("mutual attestation complete; secure channel established")

	chID, err := cc.OpenChannel("bob")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cc.Deposit(chID, 1000); err != nil {
		log.Fatal(err)
	}
	fmt.Println("channel open, 1000 deposited by alice")

	// Subscribe to the event stream: acks arrive as pushes, not polls.
	// The buffer covers the whole run — events are drained only after
	// the payment loop, and an overflowing subscription drops.
	sub, err := cc.Subscribe(api.EventPayAcked.Mask()|api.EventSettled.Mask(), *payments+16)
	if err != nil {
		log.Fatal(err)
	}

	// Payments over the socket, measuring real round-trip latency via
	// the async completion handle.
	for i := 0; i < *payments; i++ {
		start := time.Now()
		h, err := cc.PayAsync(chID, 10, 1)
		if err != nil {
			log.Fatal(err)
		}
		if err := h.Wait(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("payment %d: 10 units, TCP round trip %v\n", i+1, time.Since(start).Round(time.Microsecond))
	}
	for acked := 0; acked < *payments; {
		ev := <-sub.C
		if ev.Kind == api.EventPayAcked {
			acked += int(ev.Count)
		}
	}
	fmt.Printf("event stream confirmed %d acks\n", *payments)

	// Settle and mine.
	mine, remote, err := cc.Balances(chID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("settling at alice=%d bob=%d\n", mine, remote)
	if err := cc.Settle(chID); err != nil {
		log.Fatal(err)
	}
	if _, err := cc.Mine(1); err != nil {
		log.Fatal(err)
	}
	a, err := cc.Balance()
	if err != nil {
		log.Fatal(err)
	}
	b, _ := lc.Balance(bob.WalletAddress())
	fmt.Printf("on-chain settlement: alice %d, bob %d\n", a, b)
}
