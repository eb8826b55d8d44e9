// Package route is Teechain's payment-routing layer: a gossip-built
// graph of the payment-channel network and a fee-aware pathfinder over
// it, so senders can say "pay amount X to identity Y" and let the host
// pick the hops (RouTEE-style routing for the paper's §5 multihop).
//
// The whole package is untrusted-host machinery: announcements are
// advisory hints about where capacity might be, and a wrong or stale
// graph can only make a payment abort cleanly (the enclave multihop
// protocol still verifies balances, fees, and τ at every hop). That is
// why gossip frames ride tokenless host-level frames like Hello and
// never enter an enclave.
package route

import (
	"bytes"
	"slices"
	"sort"
	"strings"
	"sync"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// FeeRateDenom is the denominator of FeePolicy.RatePPM: parts per
// million of the forwarded amount.
const FeeRateDenom = 1_000_000

// FeePolicy is a node's forwarding fee schedule: Base plus
// amount*RatePPM/FeeRateDenom per forwarded payment, truncated.
type FeePolicy struct {
	Base    chain.Amount
	RatePPM uint32
}

// Fee returns the fee charged for forwarding amount.
func (p FeePolicy) Fee(amount chain.Amount) chain.Amount {
	return p.Base + amount*chain.Amount(p.RatePPM)/FeeRateDenom
}

// Valid reports whether the policy is well-formed: a non-negative base
// and a rate of at most 100%.
func (p FeePolicy) Valid() bool { return p.Base >= 0 && p.RatePPM <= FeeRateDenom }

// EdgeKey identifies one directed edge of the channel graph: the
// channel plus the endpoint announcing (and spending) over it.
type EdgeKey struct {
	Channel wire.ChannelID
	From    cryptoutil.PublicKey
}

// Edge is the graph's record of one directed edge, built from the
// highest-version ChanAnnounce seen for its key. Closed edges stay in
// the graph (their version must keep suppressing stale resurrection
// floods) but are invisible to the pathfinder.
type Edge struct {
	Channel  wire.ChannelID
	From     cryptoutil.PublicKey
	To       cryptoutil.PublicKey
	Capacity chain.Amount
	Fee      FeePolicy
	Version  uint64
	Closed   bool
}

// Graph is a node's view of the payment-channel network: directed
// capacity/fee edges keyed by (channel, announcer), staleness-resolved
// by announcement version. Safe for concurrent use: it takes its own
// lock, so gossip never needs the host's.
type Graph struct {
	mu    sync.RWMutex
	edges map[EdgeKey]*Edge
	// snap is the pathfinder's view of the open edges, shared read-only
	// by every query until an announcement moves an edge. topoStale
	// marks a new, closed or re-pointed edge since it was built (the
	// node numbering and edge layout must be rebuilt); fieldsStale an
	// edge whose capacity or fee alone moved (a fresh copy of the flat
	// edge array refreshes them over the same layout).
	snap        *snapshot
	topoStale   bool
	fieldsStale bool
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{edges: make(map[EdgeKey]*Edge), topoStale: true}
}

// Apply folds one announcement into the graph. It reports whether the
// announcement was fresher than what the graph held — the flood
// protocol only re-broadcasts announcements that report true, which is
// what keeps a mesh flood from amplifying O(n²).
func (g *Graph) Apply(ann *wire.EdgeAnnounce) bool {
	key := EdgeKey{Channel: ann.Channel, From: ann.From}
	fee := FeePolicy{Base: ann.FeeBase, RatePPM: ann.FeeRatePPM}
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.edges[key]
	if ok && ann.Version <= e.Version {
		return false
	}
	switch {
	case !ok || e.Closed:
		// A new edge, or a retracted one coming back: only an open
		// one is the pathfinder's business.
		g.topoStale = g.topoStale || !ann.Closed
	case ann.Closed || ann.To != e.To:
		g.topoStale = true
	case ann.Capacity != e.Capacity || fee != e.Fee:
		g.fieldsStale = true
	}
	if !ok {
		e = new(Edge)
		g.edges[key] = e
	}
	*e = Edge{
		Channel:  ann.Channel,
		From:     ann.From,
		To:       ann.To,
		Capacity: ann.Capacity,
		Fee:      fee,
		Version:  ann.Version,
		Closed:   ann.Closed,
	}
	return true
}

// Version returns the version the graph holds for an edge (0 when the
// edge is unknown).
func (g *Graph) Version(key EdgeKey) uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if e, ok := g.edges[key]; ok {
		return e.Version
	}
	return 0
}

// Edge returns a copy of the edge stored for key.
func (g *Graph) Edge(key EdgeKey) (Edge, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if e, ok := g.edges[key]; ok {
		return *e, true
	}
	return Edge{}, false
}

// Open counts the open (routable) edges.
func (g *Graph) Open() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, e := range g.edges {
		if !e.Closed {
			n++
		}
	}
	return n
}

// Nodes counts the distinct endpoints of open edges.
func (g *Graph) Nodes() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	seen := make(map[cryptoutil.PublicKey]struct{})
	for _, e := range g.edges {
		if !e.Closed {
			seen[e.From] = struct{}{}
			seen[e.To] = struct{}{}
		}
	}
	return len(seen)
}

// Digest summarises every edge (open and closed) for anti-entropy, in
// deterministic (channel, announcer) order.
func (g *Graph) Digest() []wire.GossipDigest {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]wire.GossipDigest, 0, len(g.edges))
	for key, e := range g.edges {
		out = append(out, wire.GossipDigest{Channel: key.Channel, From: key.From, Version: e.Version})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Channel != out[j].Channel {
			return out[i].Channel < out[j].Channel
		}
		return bytes.Compare(out[i].From[:], out[j].From[:]) < 0
	})
	return out
}

// Fresher returns announcements for every edge the graph knows at a
// strictly higher version than the summary claims — including edges
// the summary omits entirely. This is the anti-entropy response: send
// these to the summary's sender and its graph catches up.
func (g *Graph) Fresher(sum *wire.GossipSummary) []wire.EdgeAnnounce {
	theirs := make(map[EdgeKey]uint64, len(sum.Entries))
	for i := range sum.Entries {
		e := &sum.Entries[i]
		theirs[EdgeKey{Channel: e.Channel, From: e.From}] = e.Version
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []wire.EdgeAnnounce
	for key, e := range g.edges {
		if e.Version > theirs[key] {
			out = append(out, announceEdge(e))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Channel != out[j].Channel {
			return out[i].Channel < out[j].Channel
		}
		return bytes.Compare(out[i].From[:], out[j].From[:]) < 0
	})
	return out
}

func announceEdge(e *Edge) wire.EdgeAnnounce {
	return wire.EdgeAnnounce{
		Channel:    e.Channel,
		From:       e.From,
		To:         e.To,
		Capacity:   e.Capacity,
		FeeBase:    e.Fee.Base,
		FeeRatePPM: e.Fee.RatePPM,
		Version:    e.Version,
		Closed:     e.Closed,
	}
}

// topology is the part of a snapshot that only a new, closed or
// re-pointed edge changes: the node numbering and the edge layout.
// Nodes are numbered in key-byte order, so comparing numbers compares
// keys and every tie-break of the pathfinder is the same as if it
// compared keys.
type topology struct {
	nodes []cryptoutil.PublicKey // node number → key, ascending
	// in[v]:in[v+1] are the positions of the edges into node v (the
	// backward search relaxes reversed edges), sorted by (tail, channel).
	in []int32
	// recs[i] is the graph record the edge at position i mirrors; only
	// read under Graph.mu, to refresh capacities and fees.
	recs []*Edge
}

// flatEdge is one open edge as the pathfinder sees it.
type flatEdge struct {
	from     int32 // tail node number
	capacity chain.Amount
	fee      FeePolicy
	channel  wire.ChannelID
}

// snapshot is the pathfinder's read-only view of the open edges.
// Nothing modifies one once it is handed out: an announcement makes the
// next query build a new one.
type snapshot struct {
	topo  *topology
	edges []flatEdge // by position, as laid out in topo
}

// node returns the number of key, or -1 when no open edge touches it.
func (t *topology) node(key cryptoutil.PublicKey) int32 {
	i, ok := slices.BinarySearchFunc(t.nodes, key, cmpKey)
	if !ok {
		return -1
	}
	return int32(i)
}

func cmpKey(a, b cryptoutil.PublicKey) int { return bytes.Compare(a[:], b[:]) }

// snapshot returns the current pathfinder view. Announcements are not
// rare next to route queries: under routed load every node receives
// several for each query it makes (about 0.44 per payment network-wide
// against one query per 16 payments on 16 nodes), so most queries
// meet a changed graph. Nearly all of those announcements only move a
// capacity, so that case is cheap: a copy of the flat edge array with
// the moved fields refreshed, over the same topology. Only a new,
// closed or re-pointed edge renumbers the nodes and re-sorts the edges.
func (g *Graph) snapshot() *snapshot {
	g.mu.RLock()
	s := g.snap
	if g.topoStale || g.fieldsStale {
		s = nil
	}
	g.mu.RUnlock()
	if s != nil {
		return s
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case g.topoStale:
		g.snap = g.buildLocked()
	case g.fieldsStale:
		edges := slices.Clone(g.snap.edges)
		for i, e := range g.snap.topo.recs {
			edges[i].capacity, edges[i].fee = e.Capacity, e.Fee
		}
		g.snap = &snapshot{topo: g.snap.topo, edges: edges}
	}
	g.topoStale, g.fieldsStale = false, false
	return g.snap
}

// buildLocked numbers the endpoints of the open edges and lays the
// edges out by (head, tail, channel). Caller holds g.mu exclusively.
func (g *Graph) buildLocked() *snapshot {
	t := &topology{}
	for _, e := range g.edges {
		if !e.Closed {
			t.recs = append(t.recs, e)
			t.nodes = append(t.nodes, e.From, e.To)
		}
	}
	slices.SortFunc(t.nodes, cmpKey)
	t.nodes = slices.Compact(t.nodes)
	slices.SortFunc(t.recs, func(a, b *Edge) int {
		if c := cmpKey(a.To, b.To); c != 0 {
			return c
		}
		if c := cmpKey(a.From, b.From); c != 0 {
			return c
		}
		return strings.Compare(string(a.Channel), string(b.Channel))
	})
	t.in = make([]int32, len(t.nodes)+1)
	edges := make([]flatEdge, len(t.recs))
	head := int32(0)
	for i, e := range t.recs {
		for t.nodes[head] != e.To {
			head++
			t.in[head] = int32(i)
		}
		edges[i] = flatEdge{from: t.node(e.From), capacity: e.Capacity, fee: e.Fee, channel: e.Channel}
	}
	for head++; int(head) <= len(t.nodes); head++ {
		t.in[head] = int32(len(t.recs))
	}
	return &snapshot{topo: t, edges: edges}
}
