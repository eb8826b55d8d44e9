package transport

// The routing plane: channel-graph gossip and routed multihop payments
// (internal/route deployed over real sockets). Gossip frames are
// host-level and tokenless, like Hello — routing is advisory
// untrusted-host machinery, and a stale or hostile graph can only make
// a payment abort cleanly (the enclave re-verifies balances, fees, and
// τ at every hop). The route manager and its graph lock themselves, so
// gossip receive, anti-entropy answers and the gossip flusher hold the
// wide lock only in read mode, beside the payment lanes; only the own
// announcements that cold operations make (reannounceLocked) are queued
// under it exclusively.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"teechain/internal/chain"
	"teechain/internal/core"
	"teechain/internal/cryptoutil"
	"teechain/internal/route"
	"teechain/internal/wire"
)

// EvRouteUpdate is a transport-level host event: the node's view of the
// payment-channel graph changed (a fresh announcement arrived or one of
// our own edges moved). It backs the control plane's EventRouteUpdate
// stream.
type EvRouteUpdate struct {
	Channel wire.ChannelID // edge whose announcement changed
	Nodes   int            // distinct endpoints across open edges
	Edges   int            // open directed edges
}

// RouteStats snapshots the routing plane for the control plane.
type RouteStats struct {
	Nodes      int    // distinct endpoints across open edges
	Edges      int    // open directed edges in the graph
	Suppressed uint64 // stale announcements dropped by the flood guard
	Dropped    uint64 // announcements lost to full peer queues
	FeeBase    chain.Amount
	FeeRatePPM uint32
}

// RouteStats reports the gossip graph size, flood-guard counters, and
// the node's own fee policy.
func (h *Host) RouteStats() RouteStats {
	suppressed, dropped := h.routes.Stats()
	g := h.routes.Graph()
	fee := h.enclave.FeePolicy()
	return RouteStats{
		Nodes:      g.Nodes(),
		Edges:      g.Open(),
		Suppressed: suppressed,
		Dropped:    dropped,
		FeeBase:    fee.Base,
		FeeRatePPM: fee.RatePPM,
	}
}

// RouteGraph exposes the gossip-built network graph (shared,
// concurrency-safe) for pathfinding and harness convergence checks.
func (h *Host) RouteGraph() *route.Graph { return h.routes.Graph() }

// FindRoute runs the fee-aware pathfinder over the gossip graph: the
// cheapest currently-known path from this node to dst that can deliver
// amount, with its full fee schedule.
func (h *Host) FindRoute(dst cryptoutil.PublicKey, amount chain.Amount) (route.Route, error) {
	return h.routes.Graph().FindRoute(h.enclave.Identity(), dst, amount, 0)
}

// PayRouted pays amount to the node with identity dst without an
// explicit path: the pathfinder picks the cheapest route from the
// gossip graph, and benign collisions — a hop busy with a crossing
// payment, capacity that moved since it was announced, a fee raised
// since — fall through to the next-cheapest routes. Those alternatives
// are only computed once the cheapest route has collided: most payments
// complete on it, and Yen's k-shortest costs several single searches.
// When every route in a round collides, PayRouted waits route.Socket's
// jittered backoff, which decorrelates senders contending for the same
// channels, and re-resolves against the by then fresher graph, until
// the deadline. Every route — adjacent targets included — runs through
// the atomic multihop stages, never the optimistic payment lane: a lane
// payment racing a crossing lock is nacked and reversed after Pay
// already returned, and a route reported as paid must actually have
// moved the money. The route actually paid is returned; its TotalFee
// is what the payment cost beyond amount. Non-transient failures and an
// unroutable target return the error unwrapped, so callers (the client
// SDK's Retrier above all) can re-resolve against a fresher graph and
// try again.
func (h *Host) PayRouted(dst cryptoutil.PublicKey, amount chain.Amount, timeout time.Duration) (route.Route, error) {
	deadline := time.Now().Add(timeout)
	g, self := h.routes.Graph(), h.enclave.Identity()
	retry := route.Retry{Policy: route.Socket}
	var routes []route.Route
	var lastErr error
	for {
		if retry.Path == 0 {
			best, err := g.FindRoute(self, dst, amount, 0)
			if err != nil {
				// No feasible path in the graph at all: the caller's graph
				// subscription, not a retry here, is what fixes that.
				return route.Route{}, err
			}
			routes = append(routes[:0], best)
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		r := routes[retry.Path]
		err := h.payMultihopFees(r.Hops, r.Fees, amount, remaining)
		if err == nil {
			return r, nil
		}
		lastErr = err
		transient := transientRouteErr(err)
		if transient && len(routes) == 1 {
			// The cheapest route collided: every lock was released, so
			// its alternates start clean.
			alts, ferr := g.FindRoutes(self, dst, amount, retry.Paths-1, 0)
			if ferr != nil {
				return route.Route{}, ferr
			}
			for _, a := range alts {
				if !slices.Equal(a.Hops, routes[0].Hops) {
					routes = append(routes, a)
				}
			}
		}
		// A hard failure is not retried: alternates share the same
		// broken reality (insufficient funds, a frozen chain).
		wait, ok := retry.Failed(transient, len(routes), rand.Int63n)
		if !ok {
			return route.Route{}, err
		}
		if time.Until(deadline) < wait {
			break
		}
		time.Sleep(wait)
	}
	// Out of time: the last collision says more than the deadline.
	if lastErr != nil {
		return route.Route{}, lastErr
	}
	return route.Route{}, fmt.Errorf("%w: %s: routed payment of %d", ErrTimeout, h.cfg.Name, amount)
}

// transientRouteErr reports whether a routed-payment attempt failed
// only because it collided with crossing traffic — a Transient multihop
// abort, or a channel the local enclave found locked at issue time —
// and is worth retrying on another route or after a backoff.
func transientRouteErr(err error) bool {
	var mhe *MultihopAbortError
	if errors.As(err, &mhe) {
		return mhe.Transient
	}
	return errors.Is(err, core.ErrChannelLocked)
}

// --- Gossip plumbing ---

// gossipFlushPeriod is the least time between two gossip flushes. The
// first announcement after a quiet spell goes out at once; whatever is
// queued while the period runs goes out together when it ends, one
// frame per peer — announcements batch per hop under load, as in
// Lightning's staggered gossip broadcast (BOLT #7), and the graph lags
// by at most one period per hop.
const gossipFlushPeriod = 5 * time.Millisecond

// gossipWait is how long the flusher holds a kick when it last flushed
// at last: nothing when the period since has run out (or it never
// flushed), else the rest of the period.
func gossipWait(last, now time.Time) time.Duration {
	return max(0, last.Add(gossipFlushPeriod).Sub(now))
}

// kickGossip wakes the gossip flusher without blocking.
func (h *Host) kickGossip() {
	select {
	case h.gossipKick <- struct{}{}:
	default:
	}
}

// gossipFlusher drains the peers' announcement queues, paced by
// gossipWait, until the host closes.
func (h *Host) gossipFlusher() {
	defer h.wg.Done()
	timer := time.NewTimer(gossipFlushPeriod)
	timer.Stop()
	var (
		last  time.Time
		peers []cryptoutil.PublicKey
		msg   wire.ChanAnnounce
	)
	for {
		select {
		case <-h.gossipKick:
		case <-h.quit:
			return
		}
		if wait := gossipWait(last, time.Now()); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-h.quit:
				return
			}
		}
		if peers = h.flushGossip(peers[:0], &msg); len(peers) > 0 {
			last = time.Now()
		}
	}
}

// flushGossip sends every peer its queued announcements, one frame per
// peer (more only past wire.MaxChanAnnounce). peers and msg are the
// flusher's scratch; it returns the peers it had work for.
func (h *Host) flushGossip(peers []cryptoutil.PublicKey, msg *wire.ChanAnnounce) []cryptoutil.PublicKey {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.closed {
		return peers
	}
	peers = h.routes.PendingPeers(peers)
	for _, id := range peers {
		for {
			msg.Edges = h.routes.Drain(id, msg.Edges[:0], wire.MaxChanAnnounce)
			if len(msg.Edges) == 0 {
				break
			}
			h.sendTokenless(id, msg)
		}
	}
	return peers
}

// handleGossipFrame folds a peer's gossip into the graph: announcements
// are applied, and the fresh ones queued onward for the flusher; a
// summary is answered with everything fresher, in the same frames. The
// wide lock is held in read mode only, so lanes on this host keep
// running. It reports false for any frame that is not gossip.
func (h *Host) handleGossipFrame(p *peer, f wire.Frame) bool {
	switch f.Msg.(type) {
	case *wire.ChanAnnounce, *wire.GossipSummary:
	default:
		return false
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.closed {
		return true
	}
	h.countFrameIn(p, f.From)
	switch m := f.Msg.(type) {
	case *wire.ChanAnnounce:
		fresh := false
		for i := range m.Edges {
			if h.routes.Handle(f.From, &m.Edges[i]) {
				h.noteRouteUpdate(m.Edges[i].Channel)
				fresh = true
			}
		}
		if fresh {
			h.kickGossip()
		}
	case *wire.GossipSummary:
		anns := h.routes.HandleSummary(f.From, m)
		for len(anns) > 0 {
			n := min(len(anns), wire.MaxChanAnnounce)
			h.sendTokenless(f.From, &wire.ChanAnnounce{Edges: anns[:n]})
			anns = anns[n:]
		}
	}
	return true
}

// attachGossipPeerLocked wires a newly-helloed peer into the gossip
// plane: it becomes a flood target and receives our full anti-entropy
// summary. Hellos are resent on every reconnection, so a healed
// partition resyncs both graphs without replaying the flood history.
func (h *Host) attachGossipPeerLocked(id cryptoutil.PublicKey) {
	h.routes.AttachPeer(id)
	sums := h.routes.Summaries()
	for i := range sums {
		h.sendTokenless(id, &sums[i])
	}
}

// reannounceLocked re-derives this node's own gossip announcements from
// enclave channel state: one directed edge per open channel carrying
// our spendable balance, plus retractions for closed ones. Announce
// turns the balance into a capacity hint that stands while it is right
// (route.StandingHint) and swallows no-ops without a version bump, so
// calling this after every cold operation is cheap and only real
// changes flood: a multihop payment that leaves every balance within a
// factor of two above its hint sends no gossip at all, and the flusher
// is only kicked when something was queued. Lane payments deliberately
// do not reannounce — per-payment gossip would drown the network, and
// stale capacity only costs a clean transient abort at pathfinding's
// expense.
func (h *Host) reannounceLocked() {
	st := h.enclave.State()
	if len(st.Channels) == 0 {
		return
	}
	fee := h.enclave.FeePolicy()
	announced := false
	for id, c := range st.Channels {
		if !c.Open {
			continue
		}
		if _, fresh := h.routes.Announce(id, c.Remote, c.MyBal, fee, c.Closed); fresh {
			h.noteRouteUpdate(id)
			announced = true
		}
	}
	if announced {
		h.kickGossip()
	}
}

// noteRouteUpdate reports a graph change to control-plane subscribers.
// The graph locks itself, so any lock mode will do.
func (h *Host) noteRouteUpdate(ch wire.ChannelID) {
	if h.observers.Load() == nil {
		return
	}
	g := h.routes.Graph()
	h.fanObservers(EvRouteUpdate{Channel: ch, Nodes: g.Nodes(), Edges: g.Open()})
}

// payMultihopFees is PayMultihop carrying an explicit per-hop fee
// schedule (aligned with path, zero at both endpoints); PayRouted feeds
// it the pathfinder's schedule. A nil schedule is the legacy fee-free
// payment. The caller sleeps until handleEventLocked signals the
// payment's verdict, the deadline passes, or the host closes.
func (h *Host) payMultihopFees(path []cryptoutil.PublicKey, fees []chain.Amount, amount chain.Amount, timeout time.Duration) error {
	h.mu.Lock()
	h.seq++
	pid := wire.PaymentID(fmt.Sprintf("mh-%s-%d", h.cfg.Name, h.seq))
	res, err := h.enclave.PayMultihopFees(pid, amount, 1, path, fees)
	if err != nil {
		h.mu.Unlock()
		return err
	}
	h.sentTotal.Add(1)
	out := &mhOutcome{done: make(chan struct{})}
	h.mh[pid] = out
	h.dispatchLocked(res)
	h.mu.Unlock()

	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	select {
	case <-out.done:
	case <-h.quit:
		err = fmt.Errorf("%w while waiting for multihop %s", ErrClosed, pid)
	case <-deadline.C:
		err = h.timeoutErr("multihop " + string(pid))
	}
	if err != nil {
		// Stop waiting: the entry goes, so abandoned payments do not
		// pile up in Host.mh — unless the verdict won the race for
		// the lock, in which case it stands.
		h.mu.Lock()
		delete(h.mh, pid)
		h.mu.Unlock()
		select {
		case <-out.done:
		default:
			return err
		}
	}
	if !out.ok {
		return &MultihopAbortError{Reason: out.reason, Transient: out.transient}
	}
	h.noteAcked(1)
	return nil
}
