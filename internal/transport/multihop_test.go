package transport

import (
	"errors"
	"math/rand"
	"slices"
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

// awaitHints waits until gossip has caught up with the enclaves: for
// every open channel side, the owner's announced hint is right for the
// side's balance (route.StandingHint keeps it), every other graph
// holds the owner's announcement, and no host still has a forward of
// it queued (which would land in the next frame count).
func (c *routedCluster) awaitHints() {
	c.t.Helper()
	deadline := time.Now().Add(testTimeout)
	for {
		behind := ""
		for owner, h := range c.hosts {
			h.WithEnclave(func(e *core.Enclave) {
				for id, ch := range e.State().Channels {
					key := route.EdgeKey{Channel: id, From: h.Identity()}
					own, ok := h.RouteGraph().Edge(key)
					if !ok || route.StandingHint(own.Capacity, ch.MyBal) != own.Capacity {
						behind = owner + " on its own side of " + string(id)
					}
					for viewer, v := range c.hosts {
						if edge, _ := v.RouteGraph().Edge(key); edge != own {
							behind = viewer + " on " + owner + "'s side of " + string(id)
						}
					}
				}
			})
		}
		if behind == "" {
			for _, h := range c.hosts {
				awaitGossipDrained(c.t, h)
			}
			return
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("gossip never caught up: %s", behind)
		}
		time.Sleep(time.Millisecond)
	}
}

// mhStageFrames is what one multihop payment costs on the wire per
// channel it crosses: lock, sign, preUpdate, update, postUpdate,
// release.
const mhStageFrames = 6

// TestRoutedPaymentsGossipOnlyWhenHintIsWrong: an announced capacity
// stands while it is right (route.StandingHint), so routed payments
// that leave every balance at or above its hint and below twice it
// send the six stage frames per hop and nothing else; a balance that
// doubles, or falls below its hint, re-announces exactly that edge,
// once.
func TestRoutedPaymentsGossipOnlyWhenHintIsWrong(t *testing.T) {
	c := newRoutedCluster(t, map[string]Config{"alice": {}, "bob": {}, "carol": {}})
	c.channel("alice", "bob", 1<<20)
	c.channel("bob", "carol", 1<<20)
	alice, bob, carol := c.hosts["alice"], c.hosts["bob"], c.hosts["carol"]
	c.awaitEdge("alice", "bob", "carol", 1<<20)

	pay := func(amount chain.Amount) {
		t.Helper()
		r, err := alice.PayRouted(carol.Identity(), amount, testTimeout)
		if err != nil || len(r.Hops) != 3 {
			t.Fatalf("routed payment of %d: route %+v, %v", amount, r, err)
		}
	}
	paying := []route.EdgeKey{
		{Channel: channelOf(t, alice, bob), From: alice.Identity()},
		{Channel: channelOf(t, bob, carol), From: bob.Identity()},
	}
	receiving := []route.EdgeKey{
		{Channel: channelOf(t, alice, bob), From: bob.Identity()},
		{Channel: channelOf(t, bob, carol), From: carol.Identity()},
	}
	// expectMoved checks that every graph holds exactly one more
	// version of each moved edge than versions recorded, and the same
	// version of every other edge; it returns the new versions.
	expectMoved := func(versions map[string][]wire.GossipDigest, moved ...route.EdgeKey) map[string][]wire.GossipDigest {
		t.Helper()
		c.awaitHints()
		for name, before := range versions {
			for _, d := range before {
				key := route.EdgeKey{Channel: d.Channel, From: d.From}
				want := d.Version
				if slices.Contains(moved, key) {
					want++
				}
				if got := c.hosts[name].RouteGraph().Version(key); got != want {
					t.Fatalf("%s holds version %d of %s's side of %s, want %d", name, got, d.From, d.Channel, want)
				}
			}
		}
		return c.graphVersions()
	}

	// A fresh deposit is announced exactly, so the first payment drops
	// the paying sides (2^20 − 1000) below their hints — new hint
	// 1 015 808, 31 768 below the balance — and lifts the receiving
	// sides from empty to 1000, announced as 992. The baseline is taken
	// once every graph has caught up with the funding announcements:
	// awaitEdge only waited for alice's.
	c.awaitHints()
	versions := expectMoved(c.graphVersions())
	pay(1000)
	versions = expectMoved(versions, append(paying, receiving...)...)

	// 300 more units keep the receiving sides under 2·992 and the paying
	// sides above 1 015 808: stage frames only, no graph moves. Exact
	// 5-bit buckets re-announced the receiving sides every 32 units.
	frames := c.framesOut()
	for i := 0; i < 100; i++ {
		pay(chain.Amount(1 + i%5))
	}
	if got, want := c.framesOut()-frames, uint64(100*mhStageFrames*2); got != want {
		t.Fatalf("100 two-hop payments sent %d frames, want %d (six stages per hop)", got, want)
	}
	versions = expectMoved(versions)

	// 1300 + 700 reaches twice the receiving sides' hint: they announce
	// 1984; the paying sides stay above theirs.
	pay(700)
	versions = expectMoved(versions, receiving...)

	// 31 000 more drops the paying sides to 1 015 576, below their hint
	// — they announce the next bucket down, as exact buckets did — and
	// carries the receiving sides past twice 1984.
	pay(31_000)
	expectMoved(versions, append(paying, receiving...)...)
}

// TestHoveringBalancesStopFlooding: payments flowing both ways over a
// line keep the small balances of its reverse direction wandering
// around a level — what the edges of a busy network do. Under exact
// 5-bit buckets these 1 000 payments flooded 840 announcement frames;
// under the band rule they send their stage frames and next to nothing
// else.
func TestHoveringBalancesStopFlooding(t *testing.T) {
	c := newRoutedCluster(t, map[string]Config{"alice": {}, "bob": {}, "carol": {}})
	c.channel("alice", "bob", 1<<20)
	c.channel("bob", "carol", 1<<20)
	alice, carol := c.hosts["alice"], c.hosts["carol"]
	c.awaitEdge("alice", "bob", "carol", 1<<20)
	pay := func(from, to *Host, amount chain.Amount) {
		t.Helper()
		if r, err := from.PayRouted(to.Identity(), amount, testTimeout); err != nil || len(r.Hops) != 3 {
			t.Fatalf("routed payment of %d from %s: route %+v, %v", amount, from.Name(), r, err)
		}
	}
	// Give the reverse direction 300 units to hover around.
	pay(alice, carol, 300)
	c.awaitHints()
	c.awaitEdge("carol", "bob", "alice", 300)

	const (
		payments = 1000
		// gossipBudget is the announcement frames allowed per 1 000
		// payments. An announcement costs 2 frames on this line; the
		// reverse balances drift ±4 per pair of payments around 300, so
		// they leave [hint, 2·hint) a few times at most.
		gossipBudget = 60
	)
	rng := rand.New(rand.NewSource(1))
	frames := c.framesOut()
	for i := 0; i < payments/2; i++ {
		pay(alice, carol, chain.Amount(1+rng.Intn(5)))
		pay(carol, alice, chain.Amount(1+rng.Intn(5)))
	}
	c.awaitHints()
	stages := uint64(payments * mhStageFrames * 2)
	got := c.framesOut() - frames
	if got < stages || got > stages+gossipBudget {
		t.Fatalf("%d two-hop payments sent %d frames, want %d stage frames plus at most %d of gossip", payments, got, stages, gossipBudget)
	}
	t.Logf("%d payments: %d stage frames, %d gossip frames", payments, stages, got-stages)
}
