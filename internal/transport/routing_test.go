package transport

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"teechain/internal/api"
	"teechain/internal/chain"
	"teechain/internal/core"
	"teechain/internal/cryptoutil"
	"teechain/internal/route"
	"teechain/internal/tee"
	"teechain/internal/wire"
)

// routedCluster is a set of socket hosts wired into an arbitrary
// topology for routing tests.
type routedCluster struct {
	t     *testing.T
	lc    *LocalChain
	hosts map[string]*Host
}

func newRoutedCluster(t *testing.T, cfgs map[string]Config) *routedCluster {
	t.Helper()
	auth, err := tee.NewAuthority("routing-test")
	if err != nil {
		t.Fatal(err)
	}
	c := &routedCluster{t: t, lc: NewLocalChain(chain.New()), hosts: make(map[string]*Host)}
	for name, cfg := range cfgs {
		cfg.Name = name
		cfg.Authority = auth
		cfg.Chain = c.lc
		h, err := NewHost(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Close)
		if _, err := h.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		c.hosts[name] = h
	}
	return c
}

// channel attests src→dst, opens a channel, and funds it from src.
func (c *routedCluster) channel(src, dst string, value chain.Amount) {
	c.t.Helper()
	a, b := c.hosts[src], c.hosts[dst]
	if err := a.DialPeer(b.ListenAddr()); err != nil {
		c.t.Fatal(err)
	}
	if err := a.Attest(dst, testTimeout); err != nil {
		c.t.Fatal(err)
	}
	chID, err := a.OpenChannel(dst, testTimeout)
	if err != nil {
		c.t.Fatal(err)
	}
	if _, err := a.FundChannel(chID, value, testTimeout); err != nil {
		c.t.Fatal(err)
	}
}

// awaitGossipDrained polls until h has no announcement queued for any
// peer while no flush is in flight: a flush holds the wide lock (read
// mode) from draining the queues until its frames are counted, so with
// the lock held for writing and the queues empty, every gossip frame
// queued so far has been sent and counted. Tests that compare FramesOut
// or Drops across an interval they take to be quiet wait here first;
// the interval is quiet only if nothing queues new gossip during it.
func awaitGossipDrained(t *testing.T, h *Host) {
	t.Helper()
	deadline := time.Now().Add(testTimeout)
	for {
		h.mu.Lock()
		drained := len(h.routes.PendingPeers(nil)) == 0
		h.mu.Unlock()
		if drained {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: gossip queues never drained", h.Name())
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitGraph polls until the host's graph holds at least edges open
// edges — the gossip convergence barrier.
func (c *routedCluster) awaitGraph(name string, edges int) {
	c.t.Helper()
	h := c.hosts[name]
	deadline := time.Now().Add(testTimeout)
	for h.RouteGraph().Open() < edges {
		if time.Now().After(deadline) {
			c.t.Fatalf("%s graph stuck at %d open edges, want %d", name, h.RouteGraph().Open(), edges)
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitEdge polls until viewer's graph holds an open from→to edge at
// no less than what a balance of capacity announces (its hint, see
// route.HintCapacity). Edge counts alone are not a capacity barrier:
// channels announce at capacity 0 when they open and re-announce after
// funding, and the flood may deliver those versions far apart.
func (c *routedCluster) awaitEdge(viewer, from, to string, capacity chain.Amount) {
	c.t.Helper()
	capacity = route.HintCapacity(capacity)
	g := c.hosts[viewer].RouteGraph()
	fromID, toID := c.hosts[from].Identity(), c.hosts[to].Identity()
	deadline := time.Now().Add(testTimeout)
	for {
		for _, d := range g.Digest() {
			e, ok := g.Edge(route.EdgeKey{Channel: d.Channel, From: d.From})
			if ok && !e.Closed && e.From == fromID && e.To == toID && e.Capacity >= capacity {
				return
			}
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("%s never saw %s→%s at capacity %d", viewer, from, to, capacity)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRoutedPaymentOverTCP gossips a 4-node line topology into every
// node's graph and pays end to end with no explicit path: the sender
// only names the target identity, the pathfinder supplies the hops and
// the fee schedule, and every intermediary keeps exactly its announced
// fee.
func TestRoutedPaymentOverTCP(t *testing.T) {
	c := newRoutedCluster(t, map[string]Config{
		"alice": {},
		"bob":   {FeeBase: 5, FeeRatePPM: 10_000}, // 5 + 1%
		"carol": {FeeBase: 3},
		"dave":  {},
	})
	c.channel("alice", "bob", 1000)
	c.channel("bob", "carol", 1000)
	c.channel("carol", "dave", 1000)

	// Alice is two gossip hops from the carol→dave edge; wait for the
	// flood to bring her every funded capacity.
	c.awaitEdge("alice", "alice", "bob", 1000)
	c.awaitEdge("alice", "bob", "carol", 1000)
	c.awaitEdge("alice", "carol", "dave", 1000)

	alice, dave := c.hosts["alice"], c.hosts["dave"]
	r, err := alice.PayRouted(dave.Identity(), 200, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	// Fees compound backward: carol forwards 200 for 3, bob forwards
	// 203 for 5 + 1% of 203 (truncated) = 7.
	if len(r.Hops) != 4 || r.Send != 210 || r.TotalFee() != 10 {
		t.Fatalf("route hops=%d send=%d fee=%d, want 4/210/10", len(r.Hops), r.Send, r.TotalFee())
	}
	awaitState(t, dave, func(e *core.Enclave) bool {
		for _, ch := range e.State().Channels {
			if ch.MyBal == 200 {
				return true
			}
		}
		return false
	})
	// Exact conservation across the line: alice paid amount+fees, each
	// intermediary kept its fee.
	for name, want := range map[string]chain.Amount{"alice": 790, "bob": 1007, "carol": 1003} {
		h := c.hosts[name]
		var total chain.Amount
		h.WithEnclave(func(e *core.Enclave) {
			for _, ch := range e.State().Channels {
				total += ch.MyBal
			}
		})
		if total != want {
			t.Fatalf("%s holds %d after routed payment, want %d", name, total, want)
		}
	}

	// The completed payment moved alice's 1000 to 790, across a hint
	// bucket (992 → 768), so her edge is re-announced; the graph keeps
	// its shape.
	deadline := time.Now().Add(testTimeout)
	for {
		st := c.hosts["dave"].RouteStats()
		if st.Edges == 6 && st.Nodes == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dave graph: %d edges %d nodes, want 6/4", st.Edges, st.Nodes)
		}
		time.Sleep(time.Millisecond)
	}
	if st := c.hosts["bob"].RouteStats(); st.FeeBase != 5 || st.FeeRatePPM != 10_000 {
		t.Fatalf("bob fee policy echo: base=%d rate=%d", st.FeeBase, st.FeeRatePPM)
	}
}

// TestRoutedRepathOnStaleCapacity drains the cheap path's forwarding
// balance behind the gossip graph's back (lane payments deliberately do
// not reannounce), so the pathfinder still prefers it; the routed
// payment must absorb the Transient abort at the depleted hop and fall
// back to the expensive path in the same call.
func TestRoutedRepathOnStaleCapacity(t *testing.T) {
	c := newRoutedCluster(t, map[string]Config{
		"alice": {},
		"bob":   {},            // cheap relay
		"carol": {FeeBase: 50}, // expensive relay
		"dave":  {},
	})
	c.channel("alice", "bob", 1000)
	c.channel("bob", "dave", 1000)
	c.channel("alice", "carol", 1000)
	c.channel("carol", "dave", 1000)
	c.awaitEdge("alice", "alice", "bob", 1000)
	c.awaitEdge("alice", "bob", "dave", 1000)
	c.awaitEdge("alice", "alice", "carol", 1000)
	c.awaitEdge("alice", "carol", "dave", 1000)
	// awaitEdge waits for the four funded edges only; the premise check
	// after the drain counts all eight, and the four empty reverse
	// edges may still be in a gossip flush.
	c.awaitGraph("alice", 8)

	alice, bob, dave := c.hosts["alice"], c.hosts["bob"], c.hosts["dave"]

	// Sanity: with full capacity everywhere the cheap path wins.
	if r, err := alice.FindRoute(dave.Identity(), 100); err != nil || r.Hops[1] != bob.Identity() {
		t.Fatalf("pathfinder did not pick the free relay: %+v, %v", r, err)
	}

	// Drain bob→dave on the payment fast path: no reannounce, so
	// alice's graph keeps believing in the capacity.
	bobDave := channelOf(t, bob, dave)
	if err := bob.Pay(bobDave, 950); err != nil {
		t.Fatal(err)
	}
	if err := bob.AwaitAcked(1, testTimeout); err != nil {
		t.Fatal(err)
	}
	if got := alice.RouteGraph().Open(); got != 8 {
		t.Fatalf("draining reannounced (alice sees %d edges); staleness premise broken", got)
	}

	r, err := alice.PayRouted(dave.Identity(), 100, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hops[1] != c.hosts["carol"].Identity() || r.TotalFee() != 50 {
		t.Fatalf("repath took %d-fee route via wrong relay", r.TotalFee())
	}
	awaitState(t, dave, func(e *core.Enclave) bool {
		var total chain.Amount
		for _, ch := range e.State().Channels {
			total += ch.MyBal
		}
		return total == 1050 // 950 drained + 100 routed
	})
}

// TestPayRoutedDeadlineOutcomes: a routed payment whose deadline passes
// before any attempt failed reports ErrTimeout; one that spends its
// deadline retrying a transient collision reports that collision, which
// tells the caller more than the timeout does.
func TestPayRoutedDeadlineOutcomes(t *testing.T) {
	c := newRoutedCluster(t, map[string]Config{"alice": {}, "bob": {}})
	c.channel("alice", "bob", 1000)
	c.awaitEdge("alice", "alice", "bob", 1000)
	alice, bob := c.hosts["alice"], c.hosts["bob"]

	if _, err := alice.PayRouted(bob.Identity(), 10, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("expired deadline: %v, want ErrTimeout", err)
	}

	// Spend alice's balance on the payment lane, which does not
	// reannounce: her graph still offers the channel, and every attempt
	// fails locally and transiently until the deadline.
	if err := alice.Pay(channelOf(t, alice, bob), 950); err != nil {
		t.Fatal(err)
	}
	if err := alice.AwaitAcked(1, testTimeout); err != nil {
		t.Fatal(err)
	}
	_, err := alice.PayRouted(bob.Identity(), 100, 50*time.Millisecond)
	if !errors.Is(err, core.ErrChannelLocked) || errors.Is(err, ErrTimeout) {
		t.Fatalf("deadline after collisions: %v, want the last collision (core.ErrChannelLocked)", err)
	}
}

// channelOf finds the (single) channel between two hosts from the
// owner's enclave state.
func channelOf(t *testing.T, owner, peer *Host) (id wire.ChannelID) {
	t.Helper()
	owner.WithEnclave(func(e *core.Enclave) {
		for chID, ch := range e.State().Channels {
			if ch.Remote == peer.Identity() {
				id = chID
				return
			}
		}
	})
	if id == "" {
		t.Fatalf("no channel between %s and %s", owner.Name(), peer.Name())
	}
	return id
}

// TestRoutedPaymentViaControlPlane drives the v4 routing surface end to
// end through both control protocols: the typed SDK's Route/PayRouted
// (with EventRouteUpdate pushes) and the line shim's route/payroute/
// stats routing commands, against a real 3-node gossiping line.
func TestRoutedPaymentViaControlPlane(t *testing.T) {
	c := newRoutedCluster(t, map[string]Config{
		"alice": {},
		"bob":   {FeeBase: 2},
		"carol": {},
	})
	c.channel("alice", "bob", 500)
	c.channel("bob", "carol", 500)
	c.awaitEdge("alice", "alice", "bob", 500)
	c.awaitEdge("alice", "bob", "carol", 500)

	tc := dialControl(t, c.hosts["alice"])

	carolID := api.FormatIdentity(c.hosts["carol"].Identity())

	// Dry run: pathfinding without payment.
	info, err := tc.Route(carolID, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Hops) != 3 || info.Send != 102 || info.TotalFee() != 2 {
		t.Fatalf("route = %+v, want 3 hops at send 102", info)
	}
	var ae *api.Error
	if _, err := tc.Route("nobody-here", 100); !errors.As(err, &ae) || ae.Code != api.CodeNotFound {
		t.Fatalf("route to unknown target: %v, want CodeNotFound", err)
	}

	// Routed payment events must reach typed subscribers.
	events, err := tc.Subscribe(api.EventRouteUpdate.Mask(), 64)
	if err != nil {
		t.Fatal(err)
	}
	paid, err := tc.PayRouted(carolID, 100)
	if err != nil {
		t.Fatal(err)
	}
	if paid.Send != 102 || paid.Amount != 100 {
		t.Fatalf("paid route = %+v", paid)
	}
	select {
	case ev := <-events.C:
		if ev.Kind != api.EventRouteUpdate || ev.Count == 0 {
			t.Fatalf("first routing event = %+v", ev)
		}
	case <-time.After(testTimeout):
		t.Fatal("no EventRouteUpdate after a routed payment")
	}
	awaitState(t, c.hosts["carol"], func(e *core.Enclave) bool {
		for _, ch := range e.State().Channels {
			if ch.MyBal == 100 {
				return true
			}
		}
		return false
	})

}

// TestRoutedPayNoRoute pins the error shape when the graph cannot
// serve a request at all.
func TestRoutedPayNoRoute(t *testing.T) {
	c := newRoutedCluster(t, map[string]Config{"alice": {}, "bob": {}})
	c.channel("alice", "bob", 100)
	c.awaitGraph("alice", 2)
	alice := c.hosts["alice"]
	var stranger cryptoutil.PublicKey
	stranger[0] = 0xFF
	if _, err := alice.PayRouted(stranger, 10, testTimeout); !errors.Is(err, route.ErrNoRoute) {
		t.Fatalf("routing to an unknown identity: %v, want ErrNoRoute", err)
	}
	// Amount beyond every path's capacity is the same error.
	if _, err := alice.PayRouted(c.hosts["bob"].Identity(), 10_000, testTimeout); !errors.Is(err, route.ErrNoRoute) {
		t.Fatalf("routing beyond capacity: %v, want ErrNoRoute", err)
	}
}

// TestGossipWait pins the flusher's pacing rule: at once when the last
// flush is a period or more ago (or there was none), else at the end of
// that period.
func TestGossipWait(t *testing.T) {
	now := time.Now()
	for _, c := range []struct {
		last time.Time
		want time.Duration
	}{
		{time.Time{}, 0},
		{now.Add(-time.Hour), 0},
		{now.Add(-gossipFlushPeriod), 0},
		{now.Add(-gossipFlushPeriod / 5), gossipFlushPeriod * 4 / 5},
		{now, gossipFlushPeriod},
	} {
		if got := gossipWait(c.last, now); got != c.want {
			t.Fatalf("gossipWait(now%+v) = %v, want %v", c.last.Sub(now), got, c.want)
		}
	}
}

// TestGossipFlusher: announcements queued together reach each peer as
// one frame, a lone announcement after a quiet spell leaves without
// waiting out a period, and a kick with nothing queued sends nothing.
// The hub announces edges of channels it does not have — the gossip
// plane does not care — to two peers that have no other peer to pass
// them on to.
func TestGossipFlusher(t *testing.T) {
	c := newRoutedCluster(t, map[string]Config{"hub": {}, "bob": {}, "carol": {}})
	hub, bob, carol := c.hosts["hub"], c.hosts["bob"], c.hosts["carol"]
	for _, h := range []*Host{bob, carol} {
		if err := hub.DialPeer(h.ListenAddr()); err != nil {
			t.Fatal(err)
		}
		if _, err := hub.AwaitPeer(h.Name(), testTimeout); err != nil {
			t.Fatal(err)
		}
		if _, err := h.AwaitPeer("hub", testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	// quiet waits until the hub has drained its gossip queues and sent
	// nothing for four periods, and returns its frame count.
	quiet := func() uint64 {
		t.Helper()
		n := hub.Stats().FramesOut
		for still := 0; still < 4; {
			time.Sleep(gossipFlushPeriod)
			awaitGossipDrained(t, hub)
			if m := hub.Stats().FramesOut; m != n {
				n, still = m, 0
			} else {
				still++
			}
		}
		return n
	}
	announced := 0
	announce := func() {
		ch := wire.ChannelID(fmt.Sprintf("ch-%03d", announced))
		if _, fresh := hub.routes.Announce(ch, bob.Identity(), 100, route.FeePolicy{}, false); !fresh {
			t.Fatalf("announcement of %s not fresh", ch)
		}
		announced++
	}
	// seen waits until both peers hold every announcement so far.
	seen := func() {
		t.Helper()
		deadline := time.Now().Add(testTimeout)
		for bob.RouteGraph().Open() != announced || carol.RouteGraph().Open() != announced {
			if time.Now().After(deadline) {
				t.Fatalf("peers hold %d and %d of %d announced edges", bob.RouteGraph().Open(), carol.RouteGraph().Open(), announced)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Nothing pending: a kick sends nothing.
	before := quiet()
	hub.kickGossip()
	if got := quiet(); got != before {
		t.Fatalf("a kick with nothing queued sent %d frames", got-before)
	}

	// Sixteen announcements queued at once: one frame to each peer.
	for range 16 {
		announce()
	}
	hub.kickGossip()
	seen()
	if got := quiet() - before; got != 2 {
		t.Fatalf("16 queued announcements went out in %d frames to 2 peers, want 2", got)
	}

	// A lone announcement after a quiet spell is on both peer queues
	// well inside a period. A stalled machine can miss that by chance,
	// so it gets five tries; a flusher that always waits misses it on
	// every one.
	var took []time.Duration
	for try := 0; try < 5; try++ {
		before := quiet()
		announce()
		start := time.Now()
		hub.kickGossip()
		for hub.Stats().FramesOut < before+2 {
			if time.Since(start) > testTimeout {
				t.Fatal("a lone announcement never left")
			}
			time.Sleep(20 * time.Microsecond)
		}
		took = append(took, time.Since(start))
		if took[try] < gossipFlushPeriod {
			break
		}
	}
	if slices.Min(took) >= gossipFlushPeriod {
		t.Fatalf("a lone announcement after a quiet spell waited %v, want it out at once", took)
	}
	seen()
}
