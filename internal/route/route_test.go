package route

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

func nodeKey(n int) cryptoutil.PublicKey {
	var k cryptoutil.PublicKey
	k[0] = byte(n)
	k[1] = byte(n >> 8)
	k[64] = 0x42 // never the zero key
	return k
}

// addEdge installs a bidirectional channel between a and b with the
// given per-direction capacities and fee policies, version 1.
func addEdge(g *Graph, ch wire.ChannelID, a, b cryptoutil.PublicKey, capA, capB chain.Amount, feeA, feeB FeePolicy) {
	g.Apply(&wire.EdgeAnnounce{Channel: ch, From: a, To: b, Capacity: capA, FeeBase: feeA.Base, FeeRatePPM: feeA.RatePPM, Version: 1})
	g.Apply(&wire.EdgeAnnounce{Channel: ch, From: b, To: a, Capacity: capB, FeeBase: feeB.Base, FeeRatePPM: feeB.RatePPM, Version: 1})
}

// routeCost is what the pathfinder minimises: the forwarding fees plus
// hopCost per hop.
func routeCost(r Route, hopCost chain.Amount) chain.Amount {
	return r.TotalFee() + hopCost*chain.Amount(len(r.Hops)-1)
}

func TestFeePolicy(t *testing.T) {
	p := FeePolicy{Base: 2, RatePPM: 10_000} // 1%
	if got := p.Fee(1000); got != 12 {
		t.Fatalf("Fee(1000) = %d, want 12", got)
	}
	if got := p.Fee(1); got != 2 { // rate truncates to zero
		t.Fatalf("Fee(1) = %d, want 2", got)
	}
	if !(FeePolicy{}).Valid() || !p.Valid() {
		t.Fatal("valid policies rejected")
	}
	if (FeePolicy{Base: -1}).Valid() || (FeePolicy{RatePPM: FeeRateDenom + 1}).Valid() {
		t.Fatal("invalid policies accepted")
	}
}

// TestGraphStaleness pins the version-resolution rule: only strictly
// newer announcements change the graph, and Apply's return value is the
// re-broadcast gate.
func TestGraphStaleness(t *testing.T) {
	g := NewGraph()
	a, b := nodeKey(1), nodeKey(2)
	ann := wire.EdgeAnnounce{Channel: "ch-1", From: a, To: b, Capacity: 100, Version: 3}
	if !g.Apply(&ann) {
		t.Fatal("fresh announcement rejected")
	}
	// Same version, different content: a replay must not win.
	replay := ann
	replay.Capacity = 999
	if g.Apply(&replay) {
		t.Fatal("equal-version replay applied")
	}
	older := ann
	older.Version = 2
	older.Capacity = 1
	if g.Apply(&older) {
		t.Fatal("older announcement applied")
	}
	if e, ok := g.Edge(EdgeKey{Channel: "ch-1", From: a}); !ok || e.Capacity != 100 || e.Version != 3 {
		t.Fatalf("edge corrupted by stale floods: %+v", e)
	}
	newer := ann
	newer.Version = 4
	newer.Capacity = 55
	if !g.Apply(&newer) {
		t.Fatal("newer announcement rejected")
	}
	if e, _ := g.Edge(EdgeKey{Channel: "ch-1", From: a}); e.Capacity != 55 {
		t.Fatalf("newer announcement did not update: %+v", e)
	}

	// A closed edge leaves the pathfinder view but keeps suppressing.
	closed := newer
	closed.Version = 5
	closed.Closed = true
	g.Apply(&closed)
	if g.Open() != 0 {
		t.Fatal("closed edge still open")
	}
	if g.Apply(&newer) {
		t.Fatal("stale resurrection accepted after close")
	}
	if g.Version(EdgeKey{Channel: "ch-1", From: a}) != 5 {
		t.Fatal("closed edge lost its version")
	}
}

// TestGraphAntiEntropy checks Digest/Fresher round trips: a peer that
// summarises a stale graph gets exactly the fresher announcements back,
// and applying them converges the two graphs.
func TestGraphAntiEntropy(t *testing.T) {
	a, b, c := nodeKey(1), nodeKey(2), nodeKey(3)
	full := NewGraph()
	addEdge(full, "ch-ab", a, b, 100, 100, FeePolicy{}, FeePolicy{})
	addEdge(full, "ch-bc", b, c, 200, 200, FeePolicy{Base: 1}, FeePolicy{Base: 2})

	stale := NewGraph()
	// stale holds ch-ab but has never heard of ch-bc.
	addEdge(stale, "ch-ab", a, b, 100, 100, FeePolicy{}, FeePolicy{})

	fresher := full.Fresher(&wire.GossipSummary{Entries: stale.Digest()})
	if len(fresher) != 2 {
		t.Fatalf("Fresher returned %d announcements, want 2 (both ch-bc directions)", len(fresher))
	}
	for i := range fresher {
		stale.Apply(&fresher[i])
	}
	if !reflect.DeepEqual(stale.Digest(), full.Digest()) {
		t.Fatalf("graphs did not converge:\n stale %+v\n full  %+v", stale.Digest(), full.Digest())
	}
	// Converged graphs owe each other nothing.
	if extra := full.Fresher(&wire.GossipSummary{Entries: stale.Digest()}); len(extra) != 0 {
		t.Fatalf("converged graph still offered %d announcements", len(extra))
	}
}

// TestFindRouteFees builds a line A-B-C-D and checks the fee schedule
// compounds correctly toward the sender: C charges on the target
// amount, B charges on amount+C's fee.
func TestFindRouteFees(t *testing.T) {
	a, b, c, d := nodeKey(1), nodeKey(2), nodeKey(3), nodeKey(4)
	g := NewGraph()
	addEdge(g, "ch-ab", a, b, 10_000, 10_000, FeePolicy{}, FeePolicy{})
	addEdge(g, "ch-bc", b, c, 10_000, 10_000, FeePolicy{Base: 5, RatePPM: 10_000}, FeePolicy{})
	addEdge(g, "ch-cd", c, d, 10_000, 10_000, FeePolicy{Base: 3}, FeePolicy{})

	r, err := g.FindRoute(a, d, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantHops := []cryptoutil.PublicKey{a, b, c, d}
	if !slices.Equal(r.Hops, wantHops) {
		t.Fatalf("hops %v", r.Hops)
	}
	// C forwards 1000 to D, charging its own policy (base 3): fee 3,
	// so C must receive 1003. B forwards 1003, charging base 5 + 1%:
	// 5 + 10 = 15, so B must receive 1018. A pays no fee.
	if want := []chain.Amount{0, 15, 3, 0}; !reflect.DeepEqual(r.Fees, want) {
		t.Fatalf("fees %v, want %v", r.Fees, want)
	}
	if r.Amount != 1000 || r.Send != 1018 || r.TotalFee() != 18 {
		t.Fatalf("amounts: %+v", r)
	}
}

// TestFindRouteCheapest gives two paths and checks the cheaper (by fee)
// wins even when hop counts match, and that hop bias breaks fee ties.
func TestFindRouteCheapest(t *testing.T) {
	src, x, y, dst := nodeKey(1), nodeKey(2), nodeKey(3), nodeKey(4)
	g := NewGraph()
	free := FeePolicy{}
	addEdge(g, "ch-sx", src, x, 10_000, 10_000, free, free)
	addEdge(g, "ch-xd", x, dst, 10_000, 10_000, FeePolicy{Base: 10}, free)
	addEdge(g, "ch-sy", src, y, 10_000, 10_000, free, free)
	addEdge(g, "ch-yd", y, dst, 10_000, 10_000, FeePolicy{Base: 2}, free)

	r, err := g.FindRoute(src, dst, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r.Hops, []cryptoutil.PublicKey{src, y, dst}) || r.TotalFee() != 2 {
		t.Fatalf("picked %v fee %d, want via y fee 2", r.Hops, r.TotalFee())
	}

	// A free 3-hop path vs a free 2-hop path: hop cost prefers 2 hops.
	g2 := NewGraph()
	addEdge(g2, "ch-sd", src, dst, 10_000, 10_000, free, free)
	addEdge(g2, "ch-sx", src, x, 10_000, 10_000, free, free)
	addEdge(g2, "ch-xd", x, dst, 10_000, 10_000, free, free)
	r2, err := g2.FindRoute(src, dst, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Hops) != 2 {
		t.Fatalf("hop bias lost: %v", r2.Hops)
	}
}

// TestFindRouteCapacityPruning checks announced capacity gates edges —
// including the subtlety that an intermediary's inbound edge must carry
// amount PLUS downstream fees.
func TestFindRouteCapacityPruning(t *testing.T) {
	src, x, y, dst := nodeKey(1), nodeKey(2), nodeKey(3), nodeKey(4)
	g := NewGraph()
	free := FeePolicy{}
	// Cheap path via x but its last edge only carries 400.
	addEdge(g, "ch-sx", src, x, 10_000, 10_000, free, free)
	addEdge(g, "ch-xd", x, dst, 400, 10_000, free, free)
	// Expensive path via y with ample capacity.
	addEdge(g, "ch-sy", src, y, 10_000, 10_000, free, free)
	addEdge(g, "ch-yd", y, dst, 10_000, 10_000, FeePolicy{Base: 50}, free)

	r, err := g.FindRoute(src, dst, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r.Hops, []cryptoutil.PublicKey{src, y, dst}) {
		t.Fatalf("capacity pruning failed: %v", r.Hops)
	}

	// Fee-compounding case: y charges 50, so the src→y edge must carry
	// 550. Cap it at 520 and the route must disappear entirely.
	g.Apply(&wire.EdgeAnnounce{Channel: "ch-sy", From: src, To: y, Capacity: 520, Version: 2})
	if _, err := g.FindRoute(src, dst, 500, 0); err != ErrNoRoute {
		t.Fatalf("want ErrNoRoute when fee-inclusive amount exceeds capacity, got %v", err)
	}
	// 500 with fee fits at amount 400 (400+50=450 ≤ 520, and ch-xd can
	// carry 400 again): both paths feasible, cheap one wins.
	r, err = g.FindRoute(src, dst, 400, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r.Hops, []cryptoutil.PublicKey{src, x, dst}) {
		t.Fatalf("want cheap path at smaller amount, got %v", r.Hops)
	}
}

// TestFindRoutesKShortest asks for three routes across a 5-node mesh
// and checks they are distinct, cost-ordered, and fee-consistent.
func TestFindRoutesKShortest(t *testing.T) {
	src, x, y, z, dst := nodeKey(1), nodeKey(2), nodeKey(3), nodeKey(4), nodeKey(5)
	g := NewGraph()
	free := FeePolicy{}
	addEdge(g, "ch-sx", src, x, 10_000, 10_000, free, free)
	addEdge(g, "ch-xd", x, dst, 10_000, 10_000, FeePolicy{Base: 1}, free)
	addEdge(g, "ch-sy", src, y, 10_000, 10_000, free, free)
	addEdge(g, "ch-yd", y, dst, 10_000, 10_000, FeePolicy{Base: 5}, free)
	addEdge(g, "ch-sz", src, z, 10_000, 10_000, free, free)
	addEdge(g, "ch-zd", z, dst, 10_000, 10_000, FeePolicy{Base: 9}, free)

	routes, err := g.FindRoutes(src, dst, 100, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 3 {
		t.Fatalf("got %d routes, want 3", len(routes))
	}
	wantVia := []cryptoutil.PublicKey{x, y, z}
	for i, r := range routes {
		if !slices.Equal(r.Hops, []cryptoutil.PublicKey{src, wantVia[i], dst}) {
			t.Fatalf("route %d hops %v", i, r.Hops)
		}
		if i > 0 && routeCost(r, DefaultHopCost) < routeCost(routes[i-1], DefaultHopCost) {
			t.Fatalf("routes out of cost order at %d", i)
		}
		if r.Send != r.Amount+r.TotalFee() {
			t.Fatalf("route %d inconsistent amounts %+v", i, r)
		}
	}
	// Asking for more routes than exist returns what exists.
	routes, err = g.FindRoutes(src, dst, 100, 10, 0)
	if err != nil || len(routes) != 3 {
		t.Fatalf("k=10: %d routes, err %v", len(routes), err)
	}
}

// TestFindRouteDeterministic runs the same query many times over a
// graph with parallel equal-cost paths; the pathfinder must never vary
// with map iteration order.
func TestFindRouteDeterministic(t *testing.T) {
	g := NewGraph()
	src, dst := nodeKey(1), nodeKey(100)
	free := FeePolicy{}
	for i := 2; i < 20; i++ {
		mid := nodeKey(i)
		addEdge(g, wire.ChannelID(fmt.Sprintf("ch-s%d", i)), src, mid, 10_000, 10_000, free, free)
		addEdge(g, wire.ChannelID(fmt.Sprintf("ch-d%d", i)), mid, dst, 10_000, 10_000, free, free)
	}
	first, err := g.FindRoute(src, dst, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		r, err := g.FindRoute(src, dst, 100, 0)
		if err != nil || !slices.Equal(r.Hops, first.Hops) {
			t.Fatalf("run %d picked %v, first run picked %v (err %v)", i, r.Hops, first.Hops, err)
		}
	}
}

func TestFindRouteErrors(t *testing.T) {
	g := NewGraph()
	a, b := nodeKey(1), nodeKey(2)
	if _, err := g.FindRoute(a, b, 0, 0); err == nil {
		t.Fatal("zero amount accepted")
	}
	if _, err := g.FindRoute(a, a, 10, 0); err == nil {
		t.Fatal("self-route accepted")
	}
	if _, err := g.FindRoute(a, b, 10, 0); err != ErrNoRoute {
		t.Fatalf("empty graph: %v", err)
	}
}

// TestManagerFloodSuppression is the flood-storm guard test (satellite
// 1): a re-delivered announcement must not re-enter any peer queue, and
// queued announcements for the same edge coalesce to the newest.
func TestManagerFloodSuppression(t *testing.T) {
	self, p1, p2, origin := nodeKey(1), nodeKey(2), nodeKey(3), nodeKey(4)
	m := NewManager(self)
	m.AttachPeer(p1)
	m.AttachPeer(p2)

	ann := wire.EdgeAnnounce{Channel: "ch-1", From: origin, To: p1, Capacity: 10, Version: 1}
	if !m.Handle(origin, &ann) {
		t.Fatal("fresh announcement not applied")
	}
	// The same announcement arriving again (the mesh echo) must be
	// suppressed everywhere, and counted.
	if m.Handle(p1, &ann) {
		t.Fatal("duplicate announcement applied")
	}
	if sup, _ := m.Stats(); sup != 1 {
		t.Fatalf("suppressed = %d, want 1", sup)
	}
	// p1 got the original flood; the duplicate added nothing.
	if got := m.Drain(p1, nil, 0); len(got) != 1 || got[0].Version != 1 {
		t.Fatalf("p1 drain: %+v", got)
	}

	// Coalescing: two versions queued before a drain yield ONE entry,
	// the newer.
	v2, v3 := ann, ann
	v2.Version, v2.Capacity = 2, 20
	v3.Version, v3.Capacity = 3, 30
	m.Handle(origin, &v2)
	m.Handle(origin, &v3)
	got := m.Drain(p2, nil, 0)
	if len(got) != 1 || got[0].Version != 3 || got[0].Capacity != 30 {
		t.Fatalf("p2 drain did not coalesce to newest: %+v", got)
	}
	if got := m.Drain(p2, nil, 0); got != nil {
		t.Fatalf("drained queue not empty: %+v", got)
	}
	// The announcement's own origin never gets it echoed back.
	m.AttachPeer(origin)
	v4 := ann
	v4.Version = 4
	m.Handle(p1, &v4)
	if got := m.Drain(origin, nil, 0); got != nil {
		t.Fatalf("origin echoed its own edge: %+v", got)
	}
}

// TestManagerQueueBound fills a peer queue past MaxPeerQueue with
// distinct edges; the overflow must drop (counted), not grow.
func TestManagerQueueBound(t *testing.T) {
	self, peer, origin := nodeKey(1), nodeKey(2), nodeKey(3)
	m := NewManager(self)
	m.AttachPeer(peer)
	for i := 0; i < MaxPeerQueue+10; i++ {
		ann := wire.EdgeAnnounce{
			Channel: wire.ChannelID(fmt.Sprintf("ch-%05d", i)),
			From:    origin, To: self, Capacity: 1, Version: 1,
		}
		m.Handle(origin, &ann)
	}
	if _, dropped := m.Stats(); dropped != 10 {
		t.Fatalf("dropped = %d, want 10", dropped)
	}
	got := m.Drain(peer, nil, 0)
	if len(got) != MaxPeerQueue {
		t.Fatalf("drained %d, want %d", len(got), MaxPeerQueue)
	}
	// FIFO: first announcement queued drains first.
	if got[0].Channel != "ch-00000" {
		t.Fatalf("drain order broken: first is %s", got[0].Channel)
	}
}

// TestManagerAnnounceAndSummaries checks local announcements bump
// versions monotonically and the summary chunking covers the graph.
func TestManagerAnnounceAndSummaries(t *testing.T) {
	self, peer := nodeKey(1), nodeKey(2)
	m := NewManager(self)
	m.AttachPeer(peer)
	a1, fresh1 := m.Announce("ch-1", peer, 96, FeePolicy{Base: 2}, false)
	a2, fresh2 := m.Announce("ch-1", peer, 80, FeePolicy{Base: 2}, false)
	if a1.Version != 1 || a2.Version != 2 || !fresh1 || !fresh2 {
		t.Fatalf("versions %d (fresh %v), %d (fresh %v)", a1.Version, fresh1, a2.Version, fresh2)
	}
	// A balance the standing hint still covers is not an announcement.
	if a3, fresh := m.Announce("ch-1", peer, 150, FeePolicy{Base: 2}, false); fresh || a3 != a2 {
		t.Fatalf("balance 150 under hint 80: fresh %v, %+v", fresh, a3)
	}
	if e, _ := m.Graph().Edge(EdgeKey{Channel: "ch-1", From: self}); e.Capacity != 80 {
		t.Fatalf("local graph not updated: %+v", e)
	}
	got := m.Drain(peer, nil, 0)
	if len(got) != 1 || got[0].Capacity != 80 {
		t.Fatalf("flood did not coalesce local announcements: %+v", got)
	}
	// The hint stands, but a fee change is still news.
	if a4, fresh := m.Announce("ch-1", peer, 150, FeePolicy{Base: 3}, false); !fresh || a4.Version != 3 || a4.Capacity != 80 {
		t.Fatalf("fee change under a standing hint: fresh %v, %+v", fresh, a4)
	}
	m.Drain(peer, nil, 0)
	a2.Version, a2.FeeBase = 3, 3
	sums := m.Summaries()
	if len(sums) != 1 || len(sums[0].Entries) != 1 {
		t.Fatalf("summaries: %+v", sums)
	}
	// A peer with an empty graph gets everything back.
	fresher := m.HandleSummary(peer, &wire.GossipSummary{})
	if len(fresher) != 1 || fresher[0] != a2 {
		t.Fatalf("HandleSummary: %+v", fresher)
	}
}

// TestHintCapacity pins the announced-capacity rule: never above the
// balance, less than 1/16 below it, monotone, and exact where exactness
// is free — below 32 and on powers of two.
func TestHintCapacity(t *testing.T) {
	check := func(b chain.Amount) {
		t.Helper()
		h := HintCapacity(b)
		if h > b || (h != b && (b-h)*16 >= b) {
			t.Fatalf("HintCapacity(%d) = %d: want at most the balance and less than 1/16 below it", b, h)
		}
		if HintCapacity(h) != h {
			t.Fatalf("HintCapacity(%d) = %d is not a fixed point", b, h)
		}
		if b > 0 && HintCapacity(b-1) > h {
			t.Fatalf("HintCapacity(%d) = %d > HintCapacity(%d) = %d", b-1, HintCapacity(b-1), b, h)
		}
	}
	for b := chain.Amount(0); b < 1<<13; b++ {
		check(b)
		if b < 32 && HintCapacity(b) != b {
			t.Fatalf("HintCapacity(%d) = %d below 32", b, HintCapacity(b))
		}
	}
	for shift := 0; shift < 63; shift++ {
		p := chain.Amount(1) << shift
		if HintCapacity(p) != p {
			t.Fatalf("HintCapacity(2^%d) = %d", shift, HintCapacity(p))
		}
		check(p - 1)
		check(p + 1)
		check(p + p/3)
	}
	for _, c := range []struct{ in, want chain.Amount }{
		{33, 32}, {63, 62}, {1000, 992}, {790, 768}, {50_000, 49_152}, {1<<40 - 1, 1<<40 - 1<<35},
	} {
		if got := HintCapacity(c.in); got != c.want {
			t.Fatalf("HintCapacity(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestStandingHint pins the band rule: the announced hint never exceeds
// the balance and the balance never reaches twice a non-zero hint; a
// monotone climb announces once per doubling; a falling balance
// announces exactly when exact buckets would; and a balance that hovers
// announces a fraction as often as exact buckets do on the same walk.
func TestStandingHint(t *testing.T) {
	// announce replays a balance sequence against both rules and counts
	// the announcements each makes, checking the bound at every step.
	type counts struct{ band, exact int }
	announce := func(balances func(yield func(chain.Amount))) counts {
		var n counts
		band, exact := chain.Amount(-1), chain.Amount(-1) // nothing announced yet
		balances(func(b chain.Amount) {
			next := HintCapacity(b)
			if band >= 0 {
				next = StandingHint(band, b)
			}
			if next != band {
				band = next
				n.band++
			}
			if h := HintCapacity(b); h != exact {
				exact = h
				n.exact++
			}
			if band > b {
				t.Fatalf("balance %d announced as %d: the hint overstates", b, band)
			}
			if band > 0 && b >= 2*band {
				t.Fatalf("balance %d announced as %d: understated by half or more", b, band)
			}
			if band == 0 && b != 0 {
				t.Fatalf("balance %d announced as empty", b)
			}
		})
		return n
	}

	climb := announce(func(yield func(chain.Amount)) {
		for b := chain.Amount(1); b <= 1<<40; b += 1 + b/1000 {
			yield(b)
		}
		yield(1 << 40)
	})
	if climb.band > 41 {
		t.Fatalf("climb from 1 to 2^40 made %d announcements, want at most 41", climb.band)
	}
	if climb.exact < 10*climb.band {
		t.Fatalf("exact buckets announced %d times on the climb, the band %d: the test no longer shows the saving", climb.exact, climb.band)
	}

	fall := announce(func(yield func(chain.Amount)) {
		for b := chain.Amount(1 << 20); b >= 0; b -= 1 + b/1000 {
			yield(b)
		}
	})
	if fall.band != fall.exact {
		t.Fatalf("falling balance: band announced %d times, exact buckets %d — falling edges must behave as before", fall.band, fall.exact)
	}

	// ±5 walks of 10 000 steps from 100, floored at 0. While the balance
	// stays above a few steps' worth the band announces at most a tenth
	// as often as exact buckets; a walk that hugs the floor, where one
	// step is a large part of the balance and any honest hint must move,
	// still announces at most a quarter as often.
	tenths := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		low := false
		walk := announce(func(yield func(chain.Amount)) {
			b := chain.Amount(100)
			for i := 0; i < 10_000; i++ {
				b += chain.Amount(rng.Intn(11) - 5)
				if b < 0 {
					b = 0
				}
				low = low || b < 1<<hintBits
				yield(b)
			}
		})
		if walk.band*4 > walk.exact {
			t.Fatalf("walk %d: band announced %d times, exact buckets %d, want at most a quarter", seed, walk.band, walk.exact)
		}
		if !low {
			tenths++
			if walk.band*10 > walk.exact {
				t.Fatalf("walk %d: band announced %d times, exact buckets %d, want at most a tenth", seed, walk.band, walk.exact)
			}
		}
	}
	if tenths == 0 {
		t.Fatal("no walk stayed off the floor: the tenth bound was never checked")
	}

	// Overflow: the band test must not wrap near the top of the range.
	top := chain.Amount(1<<63 - 1)
	if h := StandingHint(1<<62, top); h != 1<<62 {
		t.Fatalf("StandingHint(2^62, max) = %d", h)
	}
	if h := StandingHint(1<<61, top); h != HintCapacity(top) {
		t.Fatalf("StandingHint(2^61, max) = %d", h)
	}
}

// TestSnapshotInvalidation: FindRoute answers from a snapshot that
// survives between queries. A stale announcement leaves it alone; one
// that only moves a capacity or fee gets a fresh edge array over the
// same topology; a new, closed or re-pointed edge rebuilds the
// topology. A snapshot already handed out never changes.
func TestSnapshotInvalidation(t *testing.T) {
	g := NewGraph()
	a, b, c, d := nodeKey(1), nodeKey(2), nodeKey(3), nodeKey(4)
	addEdge(g, "ab", a, b, 100, 100, FeePolicy{}, FeePolicy{})
	addEdge(g, "bc", b, c, 100, 100, FeePolicy{}, FeePolicy{})
	first := g.snapshot()
	frozen := slices.Clone(first.edges)
	unchanged := func() {
		t.Helper()
		if !reflect.DeepEqual(first.edges, frozen) {
			t.Fatalf("a snapshot handed out earlier was modified: %+v, was %+v", first.edges, frozen)
		}
	}
	if _, err := g.FindRoute(a, c, 50, 0); err != nil {
		t.Fatal(err)
	}
	if g.snapshot() != first {
		t.Fatal("snapshot rebuilt with no change to the graph")
	}
	stale := wire.EdgeAnnounce{Channel: "bc", From: b, To: c, Capacity: 1, Version: 1}
	if g.Apply(&stale) || g.snapshot() != first {
		t.Fatal("a stale announcement invalidated the snapshot")
	}

	// Capacity only: same topology, fresh edges.
	fresh := stale
	fresh.Version = 2
	if !g.Apply(&fresh) {
		t.Fatal("fresh announcement rejected")
	}
	if _, err := g.FindRoute(a, c, 50, 0); err != ErrNoRoute {
		t.Fatalf("route over a drained edge: %v — the pathfinder answered from a stale snapshot", err)
	}
	second := g.snapshot()
	if second == first || second.topo != first.topo {
		t.Fatal("a capacity-only announcement did not reuse the topology")
	}
	unchanged()
	// A fee change is the same case; a version bump that moves nothing
	// keeps the snapshot itself.
	fee := fresh
	fee.Version, fee.FeeBase = 3, 7
	g.Apply(&fee)
	third := g.snapshot()
	if third == second || third.topo != first.topo {
		t.Fatal("a fee-only announcement did not reuse the topology")
	}
	same := fee
	same.Version = 4
	g.Apply(&same)
	if g.snapshot() != third {
		t.Fatal("an announcement that moved nothing invalidated the snapshot")
	}

	// New, re-pointed and closed edges rebuild the topology.
	prev := third
	for _, ann := range []wire.EdgeAnnounce{
		{Channel: "cd", From: c, To: d, Capacity: 100, Version: 1}, // new edge
		{Channel: "bc", From: b, To: d, Capacity: 100, Version: 5}, // re-pointed
		{Channel: "bc", From: b, To: d, Version: 6, Closed: true},  // closed
		{Channel: "bc", From: b, To: c, Capacity: 100, Version: 7}, // reopened
	} {
		if !g.Apply(&ann) {
			t.Fatalf("%+v rejected", ann)
		}
		next := g.snapshot()
		if next.topo == prev.topo {
			t.Fatalf("%+v did not rebuild the topology", ann)
		}
		prev = next
	}
	unchanged()
	closed := wire.EdgeAnnounce{Channel: "bc", From: b, To: c, Version: 8, Closed: true}
	g.Apply(&closed)
	for _, e := range g.snapshot().edges {
		if e.channel == "bc" && e.from == g.snapshot().topo.node(b) {
			t.Fatalf("closed edge still in the snapshot: %+v", e)
		}
	}
	// A closed edge nobody knew is not the pathfinder's business.
	ghost := wire.EdgeAnnounce{Channel: "zz", From: a, To: d, Version: 1, Closed: true}
	last := g.snapshot()
	g.Apply(&ghost)
	if g.snapshot() != last {
		t.Fatal("an unknown closed edge invalidated the snapshot")
	}
}

// TestFindRouteAllocs is the pathfinder's allocation gate: a query over
// a standing snapshot of a 16-node network allocates the route it
// returns and little else — no per-query index, maps or boxed heap
// items. (It made 37 allocations when the search ran over maps keyed by
// node key.)
func TestFindRouteAllocs(t *testing.T) {
	g := NewGraph()
	const n = 16
	fee := FeePolicy{Base: 1, RatePPM: 1000}
	link := func(a, b int) {
		addEdge(g, wire.ChannelID(fmt.Sprintf("ch-%d-%d", a, b)), nodeKey(a), nodeKey(b), 5000, 5000, fee, fee)
	}
	for i := 0; i < n; i++ {
		link(i, (i+1)%n) // a ring, so every pair is routable...
		link(i, (i+5)%n) // ...and chords, so routes compete
	}
	src, dst := nodeKey(0), nodeKey(9)
	if _, err := g.FindRoute(src, dst, 100, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := g.FindRoute(src, dst, 100, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Fatalf("FindRoute over a standing 16-node snapshot allocates %.0f times, budget is 12", allocs)
	}
	t.Logf("%.0f allocations per query", allocs)
}
