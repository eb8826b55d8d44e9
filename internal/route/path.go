package route

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
)

// The pathfinder: Dijkstra over fee-plus-hop cost with capacity
// pruning, run BACKWARD from the target. Fees compound toward the
// sender — hop i must receive the target amount plus every fee charged
// after it — so the amount an edge must carry is only known once the
// downstream suffix is fixed, which is exactly what a reverse search
// gives for free. Yen's algorithm on top yields the k-shortest
// fallback paths PayRouted walks when a path aborts Transient.

// DefaultHopCost is the per-hop cost bias added to the fee metric: it
// makes the pathfinder prefer shorter paths among near-equal-fee
// routes (every extra hop is an extra lock/abort surface).
const DefaultHopCost chain.Amount = 1

// Route is one sender-to-target payment path with its fee schedule.
type Route struct {
	// Hops is the full path, sender first, target last.
	Hops []cryptoutil.PublicKey
	// Fees aligns with Hops: Fees[i] is the forwarding fee hop i keeps
	// (always zero at both endpoints).
	Fees []chain.Amount
	// Amount is what the target receives; Send = Amount + ΣFees is
	// what the sender's first channel is debited.
	Amount chain.Amount
	Send   chain.Amount
}

// TotalFee is the routing cost of the path: Send - Amount.
func (r Route) TotalFee() chain.Amount { return r.Send - r.Amount }

// ErrNoRoute reports that no open path with sufficient announced
// capacity connects the endpoints.
var ErrNoRoute = errors.New("route: no path with sufficient capacity")

// FindRoute returns the cheapest route from src to dst delivering
// amount, by total forwarding fee with hopCost added per hop
// (DefaultHopCost when <= 0).
func (g *Graph) FindRoute(src, dst cryptoutil.PublicKey, amount chain.Amount, hopCost chain.Amount) (Route, error) {
	routes, err := g.FindRoutes(src, dst, amount, 1, hopCost)
	if err != nil {
		return Route{}, err
	}
	return routes[0], nil
}

// FindRoutes returns up to k routes in increasing cost order (Yen's
// algorithm over the Dijkstra core). It never returns an empty slice
// without an error.
func (g *Graph) FindRoutes(src, dst cryptoutil.PublicKey, amount chain.Amount, k int, hopCost chain.Amount) ([]Route, error) {
	q, err := g.query(src, dst, amount, hopCost)
	if err != nil {
		return nil, err
	}
	defer q.release()
	best, ok := q.forPath(q.shortest(q.src, nil))
	if !ok {
		return nil, ErrNoRoute
	}
	paths := []path{best}

	// Yen's k-shortest: for each prefix of the last accepted path,
	// ban the next edges used by already-known paths sharing that
	// prefix plus the prefix's interior nodes, and find the best spur.
	var candidates []path
	for len(paths) < k {
		prev := paths[len(paths)-1]
		for i := 0; i < len(prev.hops)-1; i++ {
			root := prev.hops[:i+1]
			q.bannedHop = q.bannedHop[:0]
			for _, p := range paths {
				if len(p.hops) > i+1 && slices.Equal(p.hops[:i+1], root) {
					q.bannedHop = append(q.bannedHop, [2]int32{p.hops[i], p.hops[i+1]})
				}
			}
			spur := q.shortest(prev.hops[i], root[:i])
			if spur == nil {
				continue
			}
			cand, ok := q.forPath(append(slices.Clip(root[:i]), spur...))
			if !ok || containsPath(paths, cand) || containsPath(candidates, cand) {
				continue
			}
			candidates = append(candidates, cand)
		}
		if len(candidates) == 0 {
			break
		}
		bi := 0
		for ci := 1; ci < len(candidates); ci++ {
			if q.less(candidates[ci], candidates[bi]) {
				bi = ci
			}
		}
		paths = append(paths, candidates[bi])
		candidates = append(candidates[:bi], candidates[bi+1:]...)
	}
	routes := make([]Route, len(paths))
	for i, p := range paths {
		routes[i] = q.route(p)
	}
	return routes, nil
}

// path is a route over node numbers: hops[0] is the sender, fees align
// with hops, send is what the sender's first channel carries.
type path struct {
	hops []int32
	fees []chain.Amount
	send chain.Amount
}

func containsPath(ps []path, p path) bool {
	for i := range ps {
		if slices.Equal(ps[i].hops, p.hops) {
			return true
		}
	}
	return false
}

// query is one FindRoute(s) call: the snapshot it reads and the
// search scratch it writes, pooled so a query over a standing snapshot
// allocates only the route it returns.
type query struct {
	snap     *snapshot
	src, dst int32
	amount   chain.Amount
	hopCost  chain.Amount

	// Per-node search state, indexed by node number. cost[u] is the
	// fees accumulated from u to dst plus the hop bias; need[u] the
	// amount that must be delivered to u for the chosen suffix to
	// deliver amount at dst; next[u] the suffix's first hop.
	cost   []chain.Amount
	need   []chain.Amount
	next   []int32
	state  []uint8 // unseen, reached or done
	banned []bool
	heap   []pqItem
	// bannedHop lists the (tail, head) hops a Yen spur search may not
	// take; there are never more than the routes found so far.
	bannedHop [][2]int32
}

const (
	unseen uint8 = iota
	reached
	done
)

var queryPool = sync.Pool{New: func() any { return new(query) }}

// query validates a request and readies a pooled query over the
// current snapshot. ErrNoRoute when either endpoint has no open edge.
func (g *Graph) query(src, dst cryptoutil.PublicKey, amount, hopCost chain.Amount) (*query, error) {
	if amount <= 0 {
		return nil, fmt.Errorf("route: non-positive amount %d", amount)
	}
	if src == dst {
		return nil, errors.New("route: source is the target")
	}
	if hopCost <= 0 {
		hopCost = DefaultHopCost
	}
	snap := g.snapshot()
	s, d := snap.topo.node(src), snap.topo.node(dst)
	if s < 0 || d < 0 {
		return nil, ErrNoRoute
	}
	q := queryPool.Get().(*query)
	q.snap, q.src, q.dst, q.amount, q.hopCost = snap, s, d, amount, hopCost
	n := len(snap.topo.nodes)
	q.cost = slices.Grow(q.cost[:0], n)[:n]
	q.need = slices.Grow(q.need[:0], n)[:n]
	q.next = slices.Grow(q.next[:0], n)[:n]
	q.state = slices.Grow(q.state[:0], n)[:n]
	q.banned = slices.Grow(q.banned[:0], n)[:n]
	clear(q.banned)
	q.bannedHop = q.bannedHop[:0]
	return q, nil
}

// release returns the query to the pool, dropping its snapshot so the
// pool does not pin a superseded one.
func (q *query) release() {
	q.snap = nil
	queryPool.Put(q)
}

// route turns a node-number path into the caller's Route.
func (q *query) route(p path) Route {
	hops := make([]cryptoutil.PublicKey, len(p.hops))
	for i, n := range p.hops {
		hops[i] = q.snap.topo.nodes[n]
	}
	return Route{Hops: hops, Fees: p.fees, Amount: q.amount, Send: p.send}
}

// less orders routes by cost (fees plus the hop bias), then hop count,
// then hop keys — node numbers follow key order.
func (q *query) less(a, b path) bool {
	ca := a.send - q.amount + q.hopCost*chain.Amount(len(a.hops)-1)
	cb := b.send - q.amount + q.hopCost*chain.Amount(len(b.hops)-1)
	if ca != cb {
		return ca < cb
	}
	if len(a.hops) != len(b.hops) {
		return len(a.hops) < len(b.hops)
	}
	return slices.Compare(a.hops, b.hops) < 0
}

// pqItem is one frontier entry of the backward Dijkstra.
type pqItem struct {
	cost chain.Amount // fees accumulated from node to dst, plus hop bias
	hops int32
	node int32
}

func (a pqItem) less(b pqItem) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	return a.node < b.node
}

func (q *query) push(it pqItem) {
	h := append(q.heap, it)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	q.heap = h
}

func (q *query) pop() pqItem {
	h := q.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		min, l, r := i, 2*i+1, 2*i+2
		if l < last && h[l].less(h[min]) {
			min = l
		}
		if r < last && h[r].less(h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	q.heap = h
	return top
}

// shortest runs the backward Dijkstra from dst and returns the hops of
// the cheapest feasible from→dst path, nil when there is none.
// bannedNodes and q.bannedHop support Yen's spur searches, which start
// from a node inside an earlier path; dst is never banned. Only the
// sender pays no forwarding fee — it spends its own balance; every
// other node, a spur search's start included, charges its announced
// policy.
func (q *query) shortest(from int32, bannedNodes []int32) []int32 {
	edges, in := q.snap.edges, q.snap.topo.in
	clear(q.state)
	for _, n := range bannedNodes {
		q.banned[n] = true
	}
	q.cost[q.dst], q.need[q.dst], q.state[q.dst] = 0, q.amount, reached
	q.heap = append(q.heap[:0], pqItem{node: q.dst})
	for len(q.heap) > 0 {
		it := q.pop()
		v := it.node
		if q.state[v] == done {
			continue
		}
		q.state[v] = done
		if v == from {
			break
		}
		// Relax reversed edges: every open edge u→v whose announced
		// capacity covers what u must send.
		forward := q.need[v]
		for i := in[v]; i < in[v+1]; i++ {
			e := &edges[i]
			u := e.from
			if q.state[u] == done || q.banned[u] || q.hopBanned(u, v) || e.capacity < forward {
				continue
			}
			var fee chain.Amount
			if u != q.src {
				fee = e.fee.Fee(forward)
			}
			cost := it.cost + fee + q.hopCost
			if q.state[u] == reached && cost >= q.cost[u] {
				continue
			}
			q.cost[u], q.need[u], q.next[u], q.state[u] = cost, forward+fee, v, reached
			q.push(pqItem{cost: cost, hops: it.hops + 1, node: u})
		}
	}
	for _, n := range bannedNodes {
		q.banned[n] = false
	}
	if q.state[from] != done {
		return nil
	}
	n := 1
	for u := from; u != q.dst; u = q.next[u] {
		n++
	}
	hops := make([]int32, 0, n)
	for u := from; ; u = q.next[u] {
		hops = append(hops, u)
		if u == q.dst {
			return hops
		}
	}
}

func (q *query) hopBanned(u, v int32) bool {
	for _, h := range q.bannedHop {
		if h == [2]int32{u, v} {
			return true
		}
	}
	return false
}

// forPath computes the fee schedule for a fixed hop sequence,
// verifying every edge exists with sufficient announced capacity. Yen
// candidates go through here because a root-path prefix's fees depend
// on the spur suffix's amounts.
func (q *query) forPath(hops []int32) (path, bool) {
	if len(hops) < 2 {
		return path{}, false
	}
	fees := make([]chain.Amount, len(hops))
	needIn := q.amount // amount that must arrive at hops[i+1]
	for i := len(hops) - 2; i >= 0; i-- {
		e, ok := q.bestEdge(hops[i], hops[i+1], needIn)
		if !ok {
			return path{}, false
		}
		if i > 0 {
			fees[i] = e.fee.Fee(needIn)
			needIn += fees[i]
		}
	}
	return path{hops: hops, fees: fees, send: needIn}, true
}

// bestEdge picks the cheapest (then highest-capacity, then lowest
// channel id) open edge from u to v that can carry amount.
func (q *query) bestEdge(u, v int32, amount chain.Amount) (*flatEdge, bool) {
	var best *flatEdge
	for i := q.snap.topo.in[v]; i < q.snap.topo.in[v+1]; i++ {
		e := &q.snap.edges[i]
		if e.from != u || e.capacity < amount {
			continue
		}
		if best == nil {
			best = e
			continue
		}
		ef, bf := e.fee.Fee(amount), best.fee.Fee(amount)
		switch {
		case ef < bf:
			best = e
		case ef == bf && e.capacity > best.capacity:
			best = e
		case ef == bf && e.capacity == best.capacity && e.channel < best.channel:
			best = e
		}
	}
	return best, best != nil
}
