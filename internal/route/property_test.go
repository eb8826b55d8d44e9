package route

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// randGraph is a seeded random channel graph of at most 8 nodes,
// numbered so that node i's key sorts i-th (nodeKey).
type randGraph struct {
	g     *Graph
	n     int
	edges []Edge // every open directed edge
}

// newRandGraph draws up to 3n directed edges, parallel ones included,
// with fees and capacities from fee and capacity, and closes some of
// them again.
func newRandGraph(rng *rand.Rand, fee func() FeePolicy, capacity func() chain.Amount) randGraph {
	rg := randGraph{g: NewGraph(), n: 3 + rng.Intn(6)}
	for i := 0; i < 3*rg.n; i++ {
		a, b := rng.Intn(rg.n), rng.Intn(rg.n)
		if a == b {
			continue
		}
		f := fee()
		ann := wire.EdgeAnnounce{
			Channel: wire.ChannelID(fmt.Sprintf("ch-%02d", i)), From: nodeKey(a), To: nodeKey(b),
			Capacity: capacity(), FeeBase: f.Base, FeeRatePPM: f.RatePPM, Version: 1,
		}
		rg.g.Apply(&ann)
		if rng.Intn(8) == 0 {
			ann.Version, ann.Closed = 2, true
			rg.g.Apply(&ann)
		}
	}
	for _, d := range rg.g.Digest() {
		if e, _ := rg.g.Edge(EdgeKey{Channel: d.Channel, From: d.From}); !e.Closed {
			rg.edges = append(rg.edges, e)
		}
	}
	return rg
}

// costOf prices a node path the way the pathfinder defines a route:
// walking back from the target, each hop but the sender charges the
// cheapest fee of its open edges to the next hop that can carry what
// must arrive there, plus hopCost per hop. ok is false when some hop
// has no such edge.
func (rg randGraph) costOf(hops []int, src int, amount, hopCost chain.Amount) (cost, send chain.Amount, ok bool) {
	send = amount
	for i := len(hops) - 2; i >= 0; i-- {
		fee, found := chain.Amount(0), false
		for _, e := range rg.edges {
			if e.From != nodeKey(hops[i]) || e.To != nodeKey(hops[i+1]) || e.Capacity < send {
				continue
			}
			if f := e.Fee.Fee(send); !found || f < fee {
				fee, found = f, true
			}
		}
		if !found {
			return 0, 0, false
		}
		if hops[i] != src {
			send += fee
		}
	}
	return send - amount + hopCost*chain.Amount(len(hops)-1), send, true
}

// paths enumerates every loop-free feasible path from `from` to dst
// with its cost, src being the sender who pays no fee.
func (rg randGraph) paths(from, dst, src int, amount, hopCost chain.Amount) (all [][]int, costs []chain.Amount) {
	var walk func(p []int)
	walk = func(p []int) {
		u := p[len(p)-1]
		if u == dst {
			if c, _, ok := rg.costOf(p, src, amount, hopCost); ok {
				all, costs = append(all, slices.Clone(p)), append(costs, c)
			}
			return
		}
		for v := 0; v < rg.n; v++ {
			if slices.Contains(p, v) {
				continue
			}
			for _, e := range rg.edges {
				if e.From == nodeKey(u) && e.To == nodeKey(v) {
					walk(append(p, v))
					break
				}
			}
		}
	}
	walk([]int{from})
	return all, costs
}

// nodesOf numbers a route's hops back, for messages.
func nodesOf(keys []cryptoutil.PublicKey) []int {
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i] = int(k[0])
	}
	return out
}

func keysOf(hops []int) []cryptoutil.PublicKey {
	keys := make([]cryptoutil.PublicKey, len(hops))
	for i, h := range hops {
		keys[i] = nodeKey(h)
	}
	return keys
}

// TestFindRouteMatchesExhaustive checks the pathfinder against
// exhaustive enumeration of every loop-free path on seeded random
// graphs of at most 8 nodes, random fees and random capacities.
//
// The backward search is exact when the cheapest way on from every
// node is also the one that needs the least delivered to it. That holds
// when fees are flat (a base fee, no rate: the cost of a path is then a
// sum of per-edge costs) and each capacity either cannot carry the
// amount at all or carries it with any fees on top; those are the
// graphs drawn here, and on them FindRoute must return the cheapest
// path and ErrNoRoute only when none exists. Where a rate compounds or
// a capacity admits the amount with some fee totals and not others,
// the search stays a heuristic: it keeps one route on from each node,
// and another, costlier one could have been the feasible or cheaper
// one upstream. TestFindRouteSoundOnRandomGraphs covers those graphs.
//
// The tie-break is included. Among equally cheap routes the search
// keeps, at each node, the next hop whose own route on to the target
// is cheapest, then shortest, then has the lowest key; the reference
// applies the same rule to the enumerated costs. FindRoutes(k=3) must
// return the three cheapest distinct routes, in non-decreasing cost.
func TestFindRouteMatchesExhaustive(t *testing.T) {
	const amount = 100
	for seed := int64(1); seed <= 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rg := newRandGraph(rng,
			func() FeePolicy { return FeePolicy{Base: chain.Amount(rng.Intn(6))} },
			func() chain.Amount {
				if rng.Intn(4) == 0 {
					return chain.Amount(rng.Intn(amount)) // cannot carry the amount
				}
				return amount + 8*5 + chain.Amount(rng.Intn(1000)) // carries any fees
			})
		src, dst := rng.Intn(rg.n), rng.Intn(rg.n)
		if src == dst {
			continue
		}
		hopCost := chain.Amount(1 + rng.Intn(2)*rng.Intn(10))
		name := fmt.Sprintf("seed %d (%d→%d, hop cost %d)", seed, src, dst, hopCost)

		// minCost[u]: the cheapest loop-free u→dst path, by enumeration.
		// With flat fees and capacities that never bind on fees, a hop
		// u→v costs the same whatever follows it: step(u, v).
		minCost := make([]chain.Amount, rg.n)
		for u := range minCost {
			minCost[u] = -1
			if _, costs := rg.paths(u, dst, src, amount, hopCost); len(costs) > 0 {
				minCost[u] = slices.Min(costs)
			}
		}
		step := func(u, v int) (chain.Amount, bool) {
			c, _, ok := rg.costOf([]int{u, v}, src, amount, hopCost)
			return c, ok
		}
		// best follows the tie rule from u: among next hops on a
		// cheapest route, the cheapest onward cost, then the fewest
		// onward hops, then the lowest key.
		var best func(u int) []int
		best = func(u int) []int {
			if u == dst {
				return []int{dst}
			}
			var next []int
			for v := 0; v < rg.n; v++ {
				c, ok := step(u, v)
				if !ok || minCost[v] < 0 || minCost[v]+c != minCost[u] {
					continue
				}
				if tail := best(v); next == nil || minCost[v] < minCost[next[0]] ||
					(minCost[v] == minCost[next[0]] && len(tail) < len(next)) {
					next = tail
				}
			}
			return append([]int{u}, next...)
		}

		r, err := rg.g.FindRoute(nodeKey(src), nodeKey(dst), amount, hopCost)
		all, costs := rg.paths(src, dst, src, amount, hopCost)
		if len(all) == 0 {
			if err != ErrNoRoute {
				t.Fatalf("%s: no path exists, FindRoute gave %v, %v", name, nodesOf(r.Hops), err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: FindRoute: %v, but %d paths exist", name, err, len(all))
		}
		if got := routeCost(r, hopCost); got != minCost[src] {
			t.Fatalf("%s: FindRoute cost %d, cheapest path costs %d", name, got, minCost[src])
		}
		if want := best(src); !slices.Equal(r.Hops, keysOf(want)) {
			t.Fatalf("%s: FindRoute picked %v, the tie rule picks %v", name, nodesOf(r.Hops), want)
		}

		routes, err := rg.g.FindRoutes(nodeKey(src), nodeKey(dst), amount, 3, hopCost)
		if err != nil || !slices.Equal(routes[0].Hops, r.Hops) {
			t.Fatalf("%s: FindRoutes: %v, or its first route is not FindRoute's %v", name, err, nodesOf(r.Hops))
		}
		slices.Sort(costs)
		if want := min(3, len(costs)); len(routes) != want {
			t.Fatalf("%s: FindRoutes(3) gave %d routes, %d paths exist", name, len(routes), len(costs))
		}
		for i, rt := range routes {
			if routeCost(rt, hopCost) != costs[i] {
				t.Fatalf("%s: route %d costs %d, the %d-th cheapest path costs %d", name, i, routeCost(rt, hopCost), i+1, costs[i])
			}
			for j := range i {
				if slices.Equal(routes[j].Hops, rt.Hops) {
					t.Fatalf("%s: routes %d and %d are the same path", name, j, i)
				}
			}
		}
	}
}

// TestFindRouteSoundOnRandomGraphs: on random graphs with rates and
// with capacities that admit the amount with some fee totals and not
// others — where the search is a heuristic — every route FindRoute(s)
// returns is still a loop-free path over open edges whose fee schedule
// is exactly what those edges announce, each hop carrying no more than
// its capacity, costing no less than the cheapest enumerated path;
// FindRoutes' routes are distinct and start with FindRoute's.
func TestFindRouteSoundOnRandomGraphs(t *testing.T) {
	const amount = 100
	found := 0
	for seed := int64(1); seed <= 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rg := newRandGraph(rng,
			func() FeePolicy {
				return FeePolicy{Base: chain.Amount(rng.Intn(6)), RatePPM: uint32(rng.Intn(4) * 50_000)}
			},
			func() chain.Amount { return chain.Amount(90 + rng.Intn(60)) })
		src, dst := rng.Intn(rg.n), rng.Intn(rg.n)
		if src == dst {
			continue
		}
		name := fmt.Sprintf("seed %d (%d→%d)", seed, src, dst)
		routes, err := rg.g.FindRoutes(nodeKey(src), nodeKey(dst), amount, 3, 0)
		_, costs := rg.paths(src, dst, src, amount, DefaultHopCost)
		if err != nil {
			if err != ErrNoRoute {
				t.Fatalf("%s: %v", name, err)
			}
			continue
		}
		found++
		if r, err := rg.g.FindRoute(nodeKey(src), nodeKey(dst), amount, 0); err != nil || !slices.Equal(r.Hops, routes[0].Hops) {
			t.Fatalf("%s: FindRoute %v (%v), FindRoutes starts with %v", name, nodesOf(r.Hops), err, nodesOf(routes[0].Hops))
		}
		for i, r := range routes {
			idx := nodesOf(r.Hops)
			if !slices.Equal(keysOf(idx), r.Hops) {
				t.Fatalf("%s: route %d has a hop outside the graph", name, i)
			}
			if idx[0] != src || idx[len(idx)-1] != dst || len(slices.Compact(slices.Sorted(slices.Values(idx)))) != len(idx) {
				t.Fatalf("%s: route %d %v is not a loop-free %d→%d path", name, i, idx, src, dst)
			}
			// costOf re-derives the schedule from the open edges alone.
			cost, send, ok := rg.costOf(idx, src, amount, DefaultHopCost)
			if !ok || send != r.Send || r.Amount != amount || cost != routeCost(r, DefaultHopCost) {
				t.Fatalf("%s: route %d %v: schedule %+v, the edges give send %d (feasible %v)", name, i, idx, r, send, ok)
			}
			var fees chain.Amount
			for _, f := range r.Fees {
				fees += f
			}
			if fees != r.TotalFee() || r.Fees[0] != 0 || r.Fees[len(r.Fees)-1] != 0 {
				t.Fatalf("%s: route %d fees %v do not add up to %d", name, i, r.Fees, r.TotalFee())
			}
			if cost < slices.Min(costs) {
				t.Fatalf("%s: route %d costs %d, below the cheapest enumerated %d", name, i, cost, slices.Min(costs))
			}
			for j := range i {
				if slices.Equal(routes[j].Hops, r.Hops) {
					t.Fatalf("%s: routes %d and %d are the same path", name, j, i)
				}
			}
		}
	}
	if found < 500 {
		t.Fatalf("only %d of 2000 graphs had a route: the generator no longer exercises the pathfinder", found)
	}
}
