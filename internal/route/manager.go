package route

import (
	"math/bits"
	"sync"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// MaxPeerQueue bounds each peer's pending-announcement queue. Entries
// coalesce by edge (a fresher version REPLACES the queued one), so the
// queue can only reach the bound when a peer lags behind more distinct
// edges than this — at which point the overflow is dropped and counted,
// and the next anti-entropy summary exchange heals the gap.
const MaxPeerQueue = 4096

// hintBits is how many significant bits of a balance an announcement
// keeps: exact below 32 and at powers of two, else less than 1/16 low.
const hintBits = 5

// hintBand is how far a balance may outgrow its announced hint before
// the hint is replaced: an announced A stands while A ≤ balance <
// hintBand·A.
const hintBand = 2

// HintCapacity is the capacity a node announces for a channel holding
// balance when no standing hint covers it: balance rounded DOWN to
// hintBits significant bits. The graph is a hint — the enclave is the
// arbiter of what a channel can pay — and rounding down means a route
// the pathfinder accepts is never refused for a balance the hint
// overstated.
func HintCapacity(balance chain.Amount) chain.Amount {
	if balance < 1<<hintBits {
		return balance
	}
	drop := bits.Len64(uint64(balance)) - hintBits
	return balance >> drop << drop
}

// StandingHint is the capacity to announce for a channel holding
// balance whose last announcement said announced: a hint stands while
// it is right — announced ≤ balance < hintBand·announced — and is
// replaced by HintCapacity(balance) outside that band. The hint never
// overstates and understates by less than half. A falling balance
// leaves the band at its bottom edge and re-announces once per
// HintCapacity bucket, as if there were no band; a rising one
// re-announces only when it has doubled, so a balance hovering around a
// value — the steady state of an edge that forwards both ways — sends
// nothing, where exact buckets would flood the network on almost every
// payment.
func StandingHint(announced, balance chain.Amount) chain.Amount {
	if announced > 0 && announced <= balance && balance/hintBand < announced {
		return announced
	}
	return HintCapacity(balance)
}

// Manager is a node's gossip engine: it owns the network graph, floods
// fresh announcements to peers with (edge, version) dedup, answers
// anti-entropy summaries, and versions the node's own announcements.
//
// The manager never touches sockets. The transport attaches each live
// peer connection, hands incoming gossip to Handle/HandleSummary, and
// drains per-peer queues into frames whenever peers have work. The
// manager and its graph take their own locks, so none of this needs
// the host's wide lock in write mode.
type Manager struct {
	self  cryptoutil.PublicKey
	graph *Graph

	mu    sync.Mutex
	peers map[cryptoutil.PublicKey]*peerQueue
	// own is what the node last announced for each of its channels:
	// the record Announce applies the hint rule against.
	own map[wire.ChannelID]wire.EdgeAnnounce

	suppressed uint64 // stale floods dropped by version dedup
	dropped    uint64 // announcements lost to a full peer queue
}

// peerQueue is one peer's pending announcements: FIFO over edge keys,
// coalescing repeat announcements for the same edge.
type peerQueue struct {
	pending map[EdgeKey]wire.EdgeAnnounce
	order   []EdgeKey
}

// NewManager returns a gossip manager for the node with identity self.
func NewManager(self cryptoutil.PublicKey) *Manager {
	return &Manager{
		self:  self,
		graph: NewGraph(),
		peers: make(map[cryptoutil.PublicKey]*peerQueue),
		own:   make(map[wire.ChannelID]wire.EdgeAnnounce),
	}
}

// Graph exposes the managed network graph (shared, concurrency-safe).
func (m *Manager) Graph() *Graph { return m.graph }

// AttachPeer registers a peer connection as a flood target. Idempotent;
// an existing queue survives reconnects (anti-entropy covers whatever
// the dead connection lost).
func (m *Manager) AttachPeer(id cryptoutil.PublicKey) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.peers[id]; !ok {
		m.peers[id] = &peerQueue{pending: make(map[EdgeKey]wire.EdgeAnnounce)}
	}
}

// Handle folds a received announcement into the graph and, when it was
// fresh, queues it for re-broadcast to every attached peer except the
// one it arrived from. It reports whether the graph changed — and so
// whether peer queues hold anything to drain; stale duplicates are
// counted and go no further — the flood-storm guard.
func (m *Manager) Handle(from cryptoutil.PublicKey, ann *wire.EdgeAnnounce) bool {
	if !m.graph.Apply(ann) {
		m.mu.Lock()
		m.suppressed++
		m.mu.Unlock()
		return false
	}
	m.enqueue(*ann, from)
	return true
}

// Announce versions and floods one of the node's own directed edges,
// applying it to the local graph first. The announced capacity is the
// StandingHint of balance against what the node last announced for the
// channel. A no-op announcement (the hint stands and nothing else about
// the edge moved) is swallowed without a version bump, so hosts can
// re-announce whole channel sets after every cold operation and only
// real changes hit the wire. It returns the edge as now announced and
// whether that was a fresh announcement, queued for every peer.
func (m *Manager) Announce(channel wire.ChannelID, to cryptoutil.PublicKey, balance chain.Amount, fee FeePolicy, closed bool) (wire.EdgeAnnounce, bool) {
	m.mu.Lock()
	last, ok := m.own[channel]
	capacity := HintCapacity(balance)
	if ok {
		capacity = StandingHint(last.Capacity, balance)
		if last.To == to && last.Capacity == capacity && last.FeeBase == fee.Base && last.FeeRatePPM == fee.RatePPM && last.Closed == closed {
			m.mu.Unlock()
			return last, false
		}
	}
	ann := wire.EdgeAnnounce{
		Channel:    channel,
		From:       m.self,
		To:         to,
		Capacity:   capacity,
		FeeBase:    fee.Base,
		FeeRatePPM: fee.RatePPM,
		Version:    last.Version + 1,
		Closed:     closed,
	}
	m.own[channel] = ann
	m.mu.Unlock()
	m.graph.Apply(&ann)
	m.enqueue(ann, m.self)
	return ann, true
}

// enqueue queues ann for every attached peer except skip, coalescing
// by edge key and dropping (counted) on a full queue. Gossip from
// different peers is handled concurrently, so two versions of one edge
// can reach here in either order: a queued entry is only ever replaced
// by a newer version.
func (m *Manager) enqueue(ann wire.EdgeAnnounce, skip cryptoutil.PublicKey) {
	key := EdgeKey{Channel: ann.Channel, From: ann.From}
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, q := range m.peers {
		if id == skip || id == ann.From {
			// The announcer already has its own edge; sending it back
			// is the n² amplification this guard exists to kill.
			continue
		}
		if queued, ok := q.pending[key]; ok {
			if ann.Version > queued.Version {
				q.pending[key] = ann // coalesce: newer version replaces
			}
			continue
		}
		if len(q.order) >= MaxPeerQueue {
			m.dropped++
			continue
		}
		q.pending[key] = ann
		q.order = append(q.order, key)
	}
}

// Drain removes up to max pending announcements for one peer (all of
// them when max <= 0), in FIFO order, and appends them to dst. It
// appends nothing when the peer has nothing queued (or is not
// attached).
func (m *Manager) Drain(peer cryptoutil.PublicKey, dst []wire.EdgeAnnounce, max int) []wire.EdgeAnnounce {
	m.mu.Lock()
	defer m.mu.Unlock()
	q, ok := m.peers[peer]
	if !ok || len(q.order) == 0 {
		return dst
	}
	n := len(q.order)
	if max > 0 && n > max {
		n = max
	}
	for _, key := range q.order[:n] {
		if ann, ok := q.pending[key]; ok {
			dst = append(dst, ann)
			delete(q.pending, key)
		}
	}
	rest := q.order[n:]
	q.order = append(q.order[:0], rest...)
	return dst
}

// PendingPeers appends to dst the attached peers with queued
// announcements.
func (m *Manager) PendingPeers(dst []cryptoutil.PublicKey) []cryptoutil.PublicKey {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, q := range m.peers {
		if len(q.order) > 0 {
			dst = append(dst, id)
		}
	}
	return dst
}

// Summaries digests the whole graph for anti-entropy, chunked to the
// wire bound. Sent on every (re)connection; the receiver answers via
// HandleSummary.
func (m *Manager) Summaries() []wire.GossipSummary {
	digest := m.graph.Digest()
	if len(digest) == 0 {
		return []wire.GossipSummary{{}}
	}
	var out []wire.GossipSummary
	for len(digest) > 0 {
		n := len(digest)
		if n > wire.MaxGossipSummary {
			n = wire.MaxGossipSummary
		}
		out = append(out, wire.GossipSummary{Entries: digest[:n]})
		digest = digest[n:]
	}
	return out
}

// HandleSummary answers a peer's anti-entropy summary with every
// announcement the local graph holds at a fresher version (or that the
// summary omits). The caller sends the result straight back to from.
func (m *Manager) HandleSummary(from cryptoutil.PublicKey, sum *wire.GossipSummary) []wire.EdgeAnnounce {
	return m.graph.Fresher(sum)
}

// Stats reports the flood-guard counters: announcements suppressed as
// stale duplicates and announcements dropped on full peer queues.
func (m *Manager) Stats() (suppressed, dropped uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.suppressed, m.dropped
}
