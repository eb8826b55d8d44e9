package transport

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"teechain/internal/chain"
	"teechain/internal/core"
	"teechain/internal/cryptoutil"
	"teechain/internal/faultnet"
	"teechain/internal/route"
	"teechain/internal/wire"
)

// awaitNoMultihopState waits until no host holds a multihop payment —
// neither its enclave (State.Multihop) nor its outcome map (Host.mh).
// The recipient and the relays finish before the initiator returns, so
// this only ever waits on scheduling.
func (c *routedCluster) awaitNoMultihopState() {
	c.t.Helper()
	for name, h := range c.hosts {
		deadline := time.Now().Add(testTimeout)
		for {
			h.mu.RLock()
			inEnclave, waiting := len(h.enclave.State().Multihop), len(h.mh)
			h.mu.RUnlock()
			if inEnclave == 0 && waiting == 0 {
				break
			}
			if time.Now().After(deadline) {
				c.t.Fatalf("%s still holds %d payments in enclave state and %d outcomes", name, inEnclave, waiting)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestFinishedMultihopLeavesNoState runs 50 multihop payments over a
// socket line, every fifth aborted at the relay (more than it holds
// toward the recipient), and checks that nothing about them stays
// behind on any hop. Then it blackholes the relay's replies, so the
// next payment's sign stage never reaches the initiator: the caller
// must get ErrTimeout at its deadline — woken by its timer, not by a
// poll — and its outcome entry must go with it.
func TestFinishedMultihopLeavesNoState(t *testing.T) {
	fn := faultnet.New(1, nil)
	c := newRoutedCluster(t, map[string]Config{
		"alice": {Dial: fn.Dialer("alice")},
		"bob":   {},
		"carol": {},
		"dan":   {Dial: fn.Dialer("dan")},
		"erin":  {},
	})
	alice, bob, carol := c.hosts["alice"], c.hosts["bob"], c.hosts["carol"]
	dan, erin := c.hosts["dan"], c.hosts["erin"]
	fn.RegisterNode("bob", bob.ListenAddr())
	fn.RegisterNode("erin", erin.ListenAddr())
	c.channel("alice", "bob", 10_000)
	c.channel("bob", "carol", 100)
	c.channel("dan", "erin", 100)

	path := []cryptoutil.PublicKey{alice.Identity(), bob.Identity(), carol.Identity()}
	for i := 0; i < 50; i++ {
		if i%5 != 4 {
			if err := alice.PayMultihop(path, 1, testTimeout); err != nil {
				t.Fatalf("payment %d: %v", i, err)
			}
			continue
		}
		var abort *MultihopAbortError
		if err := alice.PayMultihop(path, 150, testTimeout); !errors.As(err, &abort) {
			t.Fatalf("payment %d beyond the relay's balance: %v, want an abort", i, err)
		}
	}
	if st := alice.Stats(); st.MultihopsOK != 40 || st.MultihopsFailed != 10 {
		t.Fatalf("alice counted %d ok, %d failed, want 40 and 10", st.MultihopsOK, st.MultihopsFailed)
	}
	c.awaitNoMultihopState()

	fn.SetRule("bob", "alice", faultnet.Rule{Blackhole: true})
	const patience = 300 * time.Millisecond
	start := time.Now()
	err := alice.PayMultihop(path, 1, patience)
	waited := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("payment whose replies are blackholed: %v, want ErrTimeout", err)
	}
	if waited < patience || waited > patience+250*time.Millisecond {
		t.Fatalf("timed out after %v, want %v", waited, patience)
	}
	alice.mu.RLock()
	waiting := len(alice.mh)
	alice.mu.RUnlock()
	if waiting != 0 {
		t.Fatalf("the timed-out payment left %d outcome entries behind", waiting)
	}

	// A caller still waiting when the host closes fails fast.
	fn.SetRule("erin", "dan", faultnet.Rule{Blackhole: true})
	danErin := []cryptoutil.PublicKey{dan.Identity(), erin.Identity()}
	errc := make(chan error, 1)
	go func() { errc <- dan.PayMultihop(danErin, 1, testTimeout) }()
	awaitState(t, dan, func(e *core.Enclave) bool { return len(e.State().Multihop) == 1 })
	dan.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("payment interrupted by Close: %v, want ErrClosed", err)
		}
	case <-time.After(testTimeout):
		t.Fatal("Close did not wake the multihop caller")
	}
}

// graphVersions snapshots every edge version of every host's graph.
func (c *routedCluster) graphVersions() map[string][]wire.GossipDigest {
	out := make(map[string][]wire.GossipDigest, len(c.hosts))
	for name, h := range c.hosts {
		out[name] = h.RouteGraph().Digest()
	}
	return out
}

func (c *routedCluster) framesOut() (n uint64) {
	for _, h := range c.hosts {
		n += h.Stats().FramesOut
	}
	return n
}

// awaitHints waits until every graph holds, for every open channel
// side, the hint of that side's current balance: gossip has caught up
// with the enclaves.
func (c *routedCluster) awaitHints() {
	c.t.Helper()
	deadline := time.Now().Add(testTimeout)
	for {
		behind := ""
		for owner, h := range c.hosts {
			h.WithEnclave(func(e *core.Enclave) {
				for id, ch := range e.State().Channels {
					for viewer, v := range c.hosts {
						edge, ok := v.RouteGraph().Edge(route.EdgeKey{Channel: id, From: h.Identity()})
						if !ok || edge.Capacity != route.HintCapacity(ch.MyBal) {
							behind = viewer + " on " + owner + "'s side of " + string(id)
						}
					}
				}
			})
		}
		if behind == "" {
			return
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("gossip never caught up: %s", behind)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRoutedPaymentsGossipOnlyOnBucketCrossings: announced capacity is
// a hint (route.HintCapacity), so routed payments that keep every
// balance inside its bucket send the six stage frames per hop and
// nothing else, and a payment that carries balances across a bucket
// boundary re-announces exactly the edges it moved, once.
func TestRoutedPaymentsGossipOnlyOnBucketCrossings(t *testing.T) {
	c := newRoutedCluster(t, map[string]Config{"alice": {}, "bob": {}, "carol": {}})
	c.channel("alice", "bob", 1<<20)
	c.channel("bob", "carol", 1<<20)
	alice, bob, carol := c.hosts["alice"], c.hosts["bob"], c.hosts["carol"]
	c.awaitEdge("alice", "bob", "carol", 1<<20)

	// A fresh deposit sits exactly on a bucket floor and an empty side
	// below 32, where the hint is exact; move both sides of both
	// channels mid-bucket first: 2^20−40000 has 25 536 to fall before
	// its hint changes, 40 000 has 960 to climb.
	pay := func(amount chain.Amount) {
		t.Helper()
		r, err := alice.PayRouted(carol.Identity(), amount, testTimeout)
		if err != nil || len(r.Hops) != 3 {
			t.Fatalf("routed payment of %d: route %+v, %v", amount, r, err)
		}
	}
	pay(40_000)
	c.awaitHints()

	versions, frames := c.graphVersions(), c.framesOut()
	for i := 0; i < 100; i++ {
		pay(chain.Amount(1 + i%5))
	}
	if got := c.framesOut() - frames; got != 100*6*2 {
		t.Fatalf("100 two-hop payments sent %d frames, want %d (six stages per hop)", got, 100*6*2)
	}
	if got := c.graphVersions(); !reflect.DeepEqual(got, versions) {
		t.Fatalf("payments inside their buckets moved the graphs:\n got %v\nwant %v", got, versions)
	}

	// 40 300 + 2000 crosses 40 960 on both receiving sides (bob's side
	// of alice–bob, carol's side of bob–carol); the paying sides stay
	// inside their 32 768-wide buckets.
	pay(2000)
	c.awaitHints()
	moved := map[route.EdgeKey]bool{
		{Channel: channelOf(t, alice, bob), From: bob.Identity()}:   true,
		{Channel: channelOf(t, bob, carol), From: carol.Identity()}: true,
	}
	for name, before := range versions {
		for _, d := range before {
			want := d.Version
			if moved[route.EdgeKey{Channel: d.Channel, From: d.From}] {
				want++
			}
			if got := c.hosts[name].RouteGraph().Version(route.EdgeKey{Channel: d.Channel, From: d.From}); got != want {
				t.Fatalf("%s holds version %d of an edge of %s, want %d", name, got, d.Channel, want)
			}
		}
	}
}
