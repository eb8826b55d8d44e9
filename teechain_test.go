package teechain

import (
	"testing"
	"time"
)

// The facade tests double as executable documentation: each walks a
// user-visible scenario end to end through the public API.

func TestQuickstartFlow(t *testing.T) {
	net, err := NewNetwork()
	if err != nil {
		t.Fatal(err)
	}
	alice, err := net.AddNode("alice", SiteUK, NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bob, err := net.AddNode("bob", SiteUS, NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := net.OpenChannel(alice, bob, 1000, 500)
	if err != nil {
		t.Fatal(err)
	}
	var latency time.Duration
	if err := alice.Pay(ch, 250, func(ok bool, lat time.Duration, reason string) {
		if !ok {
			t.Fatalf("payment failed: %s", reason)
		}
		latency = lat
	}); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if latency <= 0 {
		t.Fatal("payment not acknowledged")
	}
	sr, err := alice.Settle(ch)
	if err != nil {
		t.Fatal(err)
	}
	if sr.OffChain {
		t.Fatal("non-neutral channel settled off-chain")
	}
	net.Run()
	net.MineBlock()
	if got := net.OnChainBalance(alice); got != 750 {
		t.Fatalf("alice on-chain %d, want 750", got)
	}
	if got := net.OnChainBalance(bob); got != 750 {
		t.Fatalf("bob on-chain %d, want 750", got)
	}
}

func TestMultihopViaFacade(t *testing.T) {
	net, err := NewNetwork()
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	for _, name := range []string{"a", "b", "c", "d"} {
		n, err := net.AddNode(name, SiteUK, NodeOptions{MaxRetries: 5})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for i := 0; i+1 < len(nodes); i++ {
		if _, err := net.OpenChannel(nodes[i], nodes[i+1], 1000, 0); err != nil {
			t.Fatal(err)
		}
	}
	paths := net.Paths(nodes[0], nodes[3], 1, 0)
	if len(paths) != 1 || len(paths[0]) != 4 {
		t.Fatalf("routing failed: %d paths", len(paths))
	}
	ok := false
	if err := nodes[0].PayMultihop(paths, 100, 1, func(o bool, _ time.Duration, reason string) {
		if !o {
			t.Fatalf("multihop failed: %s", reason)
		}
		ok = true
	}); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if !ok {
		t.Fatal("multihop never completed")
	}
}

func TestCommitteeViaFacade(t *testing.T) {
	net, err := NewNetwork()
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := net.AddNode("owner", SiteUS, NodeOptions{})
	r1, _ := net.AddNode("r1", SiteIL, NodeOptions{})
	r2, _ := net.AddNode("r2", SiteUK, NodeOptions{})
	bob, _ := net.AddNode("bob", SiteUK, NodeOptions{})
	if err := net.FormCommittee(owner, []*Node{r1, r2}, 2); err != nil {
		t.Fatal(err)
	}
	ch, err := net.OpenChannel(owner, bob, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.Pay(ch, 400, nil); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if _, err := owner.Settle(ch); err != nil {
		t.Fatal(err)
	}
	net.Run()
	net.MineBlock()
	if got := net.OnChainBalance(bob); got != 400 {
		t.Fatalf("bob on-chain %d, want 400", got)
	}
}

func TestVirtualTimeAdvances(t *testing.T) {
	net, err := NewNetwork()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := net.AddNode("a", SiteUK, NodeOptions{})
	b, _ := net.AddNode("b", SiteUS, NodeOptions{})
	if _, err := net.OpenChannel(a, b, 100, 0); err != nil {
		t.Fatal(err)
	}
	// Attestation alone costs seconds of virtual time (Table 2).
	if net.Now() < time.Second {
		t.Fatalf("virtual time %v, want seconds of setup cost", net.Now())
	}
}

// TestFinishedMultihopLeavesEnclaveState: a hop keeps a multi-hop
// payment's path, fees and id only while it is in flight. After 50
// payments over a 3-node line — every fifth too large for the second
// channel, so it aborts at the middle hop — no enclave on the path
// holds any of them.
func TestFinishedMultihopLeavesEnclaveState(t *testing.T) {
	net, err := NewNetwork()
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	for _, name := range []string{"a", "b", "c"} {
		n, err := net.AddNode(name, SiteUK, NodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	if _, err := net.OpenChannel(nodes[0], nodes[1], 10_000, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := net.OpenChannel(nodes[1], nodes[2], 100, 0); err != nil {
		t.Fatal(err)
	}
	paths := net.Paths(nodes[0], nodes[2], 1, 0)
	var paid, aborted int
	for i := 0; i < 50; i++ {
		amount := Amount(1)
		if i%5 == 4 {
			amount = 150 // more than b ever holds toward c
		}
		if err := nodes[0].PayMultihop(paths, amount, 1, func(ok bool, _ time.Duration, _ string) {
			if ok {
				paid++
			} else {
				aborted++
			}
		}); err != nil {
			t.Fatal(err)
		}
		net.Run()
	}
	if paid != 40 || aborted != 10 {
		t.Fatalf("%d paid, %d aborted, want 40 and 10", paid, aborted)
	}
	for _, n := range nodes {
		if left := len(n.Enclave().State().Multihop); left != 0 {
			t.Fatalf("%s still holds %d finished payments", n.ID, left)
		}
	}
}

// TestSimulatedChannelThroughput pins single-channel capacity in
// virtual time: a closed loop with a deep window over the US→UK channel
// acknowledges 90 000 payments (after 10 000 of warm-up) in exactly
// 693 ms — 7.7 µs each, 129 870.13 tx/s. The figure is a protocol
// constant of the simulator, not a measurement of this machine: it
// moves only when the simulated behaviour of a payment does.
func TestSimulatedChannelThroughput(t *testing.T) {
	const (
		total  = 100_000
		warmup = total / 10
		// The window must out-run the bandwidth-delay product of the
		// channel (~130 k tx/s × 90 ms RTT ≈ 12 k in flight) so the
		// measurement reads enclave capacity, not the round trip.
		window = 16_384
	)
	net, err := NewNetwork()
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := net.AddNode("alice", SiteUS, NodeOptions{})
	bob, _ := net.AddNode("bob", SiteUK, NodeOptions{})
	ch, err := net.OpenChannel(alice, bob, total+1_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	issued, acked, failed := 0, 0, 0
	var tWarm, tEnd time.Duration
	var issue func(k int)
	done := func(ok bool, _ time.Duration, _ string) {
		if !ok {
			failed++
		}
		acked++
		if acked == warmup {
			tWarm = net.Now()
		}
		if acked == total {
			tEnd = net.Now()
		}
		issue(1)
	}
	issue = func(k int) {
		for i := 0; i < k && issued < total; i++ {
			issued++
			if err := alice.Pay(ch, 1, done); err != nil {
				done(false, 0, err.Error())
			}
		}
	}
	issue(window)
	if err := net.Until(func() bool { return acked >= total }); err != nil {
		t.Fatal(err)
	}
	if failed > 0 {
		t.Fatalf("%d of %d payments failed", failed, total)
	}
	if got, want := tEnd-tWarm, 693*time.Millisecond; got != want {
		t.Fatalf("%d payments took %v of virtual time (%.2f tx/s), want %v (129870.13 tx/s)",
			total-warmup, got, float64(total-warmup)/got.Seconds(), want)
	}
}
