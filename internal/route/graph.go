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
	"sort"
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
// by announcement version. Safe for concurrent use.
type Graph struct {
	mu    sync.RWMutex
	edges map[EdgeKey]*Edge
	// snap is the pathfinder's view of edges, built by snapshot on the
	// first query after a change and shared, read-only, by every query
	// until Apply changes an edge again (nil = stale).
	snap map[cryptoutil.PublicKey][]Edge
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{edges: make(map[EdgeKey]*Edge)}
}

// Apply folds one announcement into the graph. It reports whether the
// announcement was fresher than what the graph held — the flood
// protocol only re-broadcasts announcements that report true, which is
// what keeps a mesh flood from amplifying O(n²).
func (g *Graph) Apply(ann *wire.ChanAnnounce) bool {
	key := EdgeKey{Channel: ann.Channel, From: ann.From}
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.edges[key]
	if ok && ann.Version <= e.Version {
		return false
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
		Fee:      FeePolicy{Base: ann.FeeBase, RatePPM: ann.FeeRatePPM},
		Version:  ann.Version,
		Closed:   ann.Closed,
	}
	g.snap = nil
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
func (g *Graph) Fresher(sum *wire.GossipSummary) []wire.ChanAnnounce {
	theirs := make(map[EdgeKey]uint64, len(sum.Entries))
	for i := range sum.Entries {
		e := &sum.Entries[i]
		theirs[EdgeKey{Channel: e.Channel, From: e.From}] = e.Version
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []wire.ChanAnnounce
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

func announceEdge(e *Edge) wire.ChanAnnounce {
	return wire.ChanAnnounce{
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

// snapshot returns the open edges for pathfinder queries, indexed by
// head node (the backward Dijkstra relaxes reversed edges). It is built
// once per graph change — announcements are rare next to route queries
// — and callers must not modify it. The index is deterministic: in-edge
// lists are sorted by (tail, channel), so path choice never depends on
// map iteration order.
func (g *Graph) snapshot() map[cryptoutil.PublicKey][]Edge {
	g.mu.RLock()
	in := g.snap
	g.mu.RUnlock()
	if in != nil {
		return in
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.snap != nil {
		return g.snap
	}
	in = make(map[cryptoutil.PublicKey][]Edge)
	for _, e := range g.edges {
		if e.Closed {
			continue
		}
		in[e.To] = append(in[e.To], *e)
	}
	for _, edges := range in {
		sort.Slice(edges, func(i, j int) bool {
			if c := bytes.Compare(edges[i].From[:], edges[j].From[:]); c != 0 {
				return c < 0
			}
			return edges[i].Channel < edges[j].Channel
		})
	}
	g.snap = in
	return in
}
