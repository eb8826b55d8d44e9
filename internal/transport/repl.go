package transport

// Replication over sockets: committee formation and the per-chain
// replication flusher.
//
// A replicated socket host keeps payments on the per-peer lane fast
// path (core.Enclave.EnableConcurrentHost): lane commits append their ops
// and withheld effects to the enclave's replication log, and the
// flusher goroutine here drains that log into ReplBatch frames (payment
// ops) and solo ReplUpdate frames (everything else), pipelining them to
// the chain's first backup without waiting for acknowledgements, up to
// a bounded in-flight window. Cumulative ReplBatchAck frames come back
// on the wide path, release whole runs of withheld PayAcks/events in
// one dispatch, and re-kick the flusher (window space freed).
//
// The flusher wakes on three triggers: a size kick from the enclave
// (the log grew), an ack kick (the window drained), and a safety ticker
// (so nothing ever waits longer than the flush interval). Under load it
// self-batches: each drain loop packs everything that accumulated while
// the previous frame was being sealed and enqueued.

import (
	"errors"
	"time"

	"teechain/internal/core"
	"teechain/internal/cryptoutil"
)

// Replication flusher parameters.
const (
	// maxReplBatchOps caps the ops one ReplBatch frame carries (within
	// wire.MaxReplBatch); minReplBatchOps floors the adaptive flush
	// batch: an idle chain flushes small, low-latency frames, and
	// backlog doubles the batch up to the cap (see replFlush).
	maxReplBatchOps = 512
	minReplBatchOps = 32

	// replWindowOps bounds flushed-but-unacknowledged replication ops —
	// the pipelining window. It equals the peer queue bound: each
	// in-flight op withholds at most one outbound frame, so a cumulative
	// ack can never release more frames than an empty peer queue admits
	// (released frames have no retransmit; overflowing the queue with
	// them would diverge host-level state).
	replWindowOps = outboxDepth

	// replFlushPeriod is the flusher's safety tick; size kicks normally
	// wake it much sooner.
	replFlushPeriod = 2 * time.Millisecond

	// defaultReplStallTicks × replFlushPeriod ≈ 500 ms of zero ack
	// progress with ops pending before the watchdog trips.
	defaultReplStallTicks = 250

	committeeReadyAwaitWhat = "committee ready"
)

// FormCommittee forms this enclave's committee chain (§6) from the
// named peers, in chain order, with signature threshold m over
// len(members)+1 keys. Peers are attested first when needed. The chain
// is pipelined (NewHost saw to that) and the replication flusher
// starts. Blocks until every member has returned its committee key (the
// chain is ready for deposits). A durable host then snapshots at once:
// forming a chain writes no WAL record, so an owner that crashed before
// its first periodic snapshot would otherwise come back without it.
func (h *Host) FormCommittee(members []string, m int, timeout time.Duration) error {
	if len(members) == 0 {
		return errors.New("transport: committee needs at least one member")
	}
	ids := make([]cryptoutil.PublicKey, len(members))
	for i, name := range members {
		if err := h.Attest(name, timeout); err != nil {
			return err
		}
		id, err := h.AwaitPeer(name, timeout)
		if err != nil {
			return err
		}
		ids[i] = id
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return errors.New("transport: host closed")
	}
	res, err := h.enclave.FormCommittee(ids, m)
	if err != nil {
		h.mu.Unlock()
		return err
	}
	h.dispatchLocked(res)
	startFlusher := !h.replRunning
	if startFlusher {
		h.replRunning = true
		h.wg.Add(1)
	}
	h.mu.Unlock()
	if startFlusher {
		go h.replFlusher()
	}
	if err := h.await(timeout, committeeReadyAwaitWhat, func() bool {
		return h.enclave.CommitteeReady()
	}); err != nil || !h.enclave.Durable() {
		return err
	}
	_, err = h.SnapshotNow()
	return err
}

// kickRepl wakes the replication flusher without blocking; it doubles
// as the enclave's log-append notification.
func (h *Host) kickRepl() {
	select {
	case h.replKick <- struct{}{}:
	default:
	}
}

// replFlusher drains the replication log until the host closes. The
// flush batch size adapts to backlog (replFlush), and the safety tick
// doubles as the stall watchdog's clock (replWatch).
func (h *Host) replFlusher() {
	defer h.wg.Done()
	ticker := time.NewTicker(replFlushPeriod)
	defer ticker.Stop()
	batchOps := minReplBatchOps
	var wd replWatchdog
	for {
		select {
		case <-h.replKick:
		case <-ticker.C:
			h.replWatch(&wd)
		case <-h.quit:
			return
		}
		batchOps = h.replFlush(batchOps)
	}
}

// replFlush drains everything currently flushable: each iteration asks
// the enclave for the next frame-worth of pending ops and seals,
// frames, and enqueues it under the backup peer's lane (token sealing
// must stay ordered per peer). Holding only the wide read lock, it
// never stalls payment lanes on other peers.
//
// batchOps is the adaptive batch bound: every full frame doubles it
// (backlog — amortize framing and sealing over more ops) up to
// maxReplBatchOps, and every drained pass halves it back toward
// minReplBatchOps (idle — flush small for latency). The adapted value
// is returned for the flusher to carry into the next pass.
func (h *Host) replFlush(batchOps int) int {
	for {
		h.mu.RLock()
		if h.closed {
			h.mu.RUnlock()
			return batchOps
		}
		to, msg, n := h.enclave.ReplNextFlush(h.replBatch, batchOps, replWindowOps)
		if n == 0 {
			h.mu.RUnlock()
			if batchOps > minReplBatchOps {
				if batchOps /= 2; batchOps < minReplBatchOps {
					batchOps = minReplBatchOps
				}
			}
			return batchOps
		}
		p := h.peersByID[to]
		if p == nil {
			// The backup was attested, so a missing record means its peer
			// entry collapsed mid-restart. Rewind the cursor so the ops
			// are re-offered once the record is back.
			h.enclave.ReplRewind(msg, n)
			h.mu.RUnlock()
			h.logf("%s: no peer record for replication backup %s, deferring %d ops", h.cfg.Name, to, n)
			return batchOps
		}
		p.lane.Lock()
		sent := h.sendLane(p, to, msg)
		p.lane.Unlock()
		if !sent {
			// Queue full (or encode failure): the frame never left, so
			// un-flush the ops — a silently skipped batch would cost a
			// NACK round trip at the next sequence gap. Retried on the
			// next kick or tick, by which time the writer has drained
			// queue space.
			h.enclave.ReplRewind(msg, n)
			h.mu.RUnlock()
			return batchOps
		}
		h.mu.RUnlock()
		h.replBatchesOut.Add(1)
		h.replOpsOut.Add(uint64(n))
		if n >= batchOps && batchOps < maxReplBatchOps {
			batchOps *= 2
		}
	}
}

// replWatchdog is the flusher-private stall detector state: the last
// observed committee ack cursor, how many safety ticks it has sat
// still with ops pending, and how many heal attempts the current
// stall has consumed (reset on any ack progress).
type replWatchdog struct {
	lastAck uint64
	ticks   int
	heals   int
}

// replWatch runs on the flusher's safety tick. If the ack cursor makes
// no progress for Config.ReplStallTicks consecutive ticks while ops
// are queued or in flight, the chain is stalled (PR 6's lost-ReplBatch
// failure mode: the mirror idles before the gap, the owner's window
// never drains, and nothing signals anyone — e.g. when the NACK itself
// was lost). The watchdog raises CommitteeStats.Stalled, emits
// EvReplStalled to observers, and heals in two steps:
//
//  1. Retransmit. The unacked window is re-served from the log with
//     the Retx flag (core.ReplRetransmitStart); mirrors treat
//     duplicates as lost-ack repair and re-ack. This covers both lost
//     frames and lost acks, costs one window of wire traffic, and
//     needs no durable state.
//  2. Resync (durable hosts, second consecutive trip): mirrors
//     re-adopt the owner's state wholesale via the existing ReplResync
//     path, which both unfreezes genuinely diverged mirrors and
//     releases the wedged window (core.handleReplResyncAck advances
//     the ack cursor to the resync sequence).
//
// A spurious trip — the mirror was only slow — is safe at either step:
// retransmitted frames dedupe against the mirror's digest ring, and
// resync is idempotent re-seeding, ordered on the same connection
// after every already-flushed frame.
func (h *Host) replWatch(wd *replWatchdog) {
	limit := h.cfg.ReplStallTicks
	if limit <= 0 {
		return
	}
	h.mu.RLock()
	st, ok := h.enclave.ReplStats()
	h.mu.RUnlock()
	if !ok || (st.Window == 0 && st.Queued == 0) {
		wd.lastAck = st.AckSeq
		wd.ticks = 0
		wd.heals = 0
		h.replStalled.Store(false)
		return
	}
	if st.AckSeq != wd.lastAck {
		wd.lastAck = st.AckSeq
		wd.ticks = 0
		wd.heals = 0
		h.replStalled.Store(false)
		return
	}
	wd.ticks++
	// Consecutive heal attempts back off geometrically (x2 per failed
	// attempt, capped x32): when the link is congested rather than
	// dead, what the stalled window needs is its in-flight
	// retransmission DELIVERED, and re-pumping the whole window every
	// stall period just feeds the congestion. Ack progress resets the
	// backoff along with the rest of the watchdog state.
	backoff := wd.heals
	if backoff > 5 {
		backoff = 5
	}
	if wd.ticks < limit<<backoff {
		return
	}
	wd.ticks = 0 // rearm: a failed heal trips again after a backed-off period
	wd.heals++
	if h.replStalled.CompareAndSwap(false, true) {
		h.replStalls.Add(1)
		h.logf("%s: replication chain %s stalled at ack %d (window %d, queued %d)",
			h.cfg.Name, st.Chain, st.AckSeq, st.Window, st.Queued)
		h.fanObservers(EvReplStalled{Chain: st.Chain, AckSeq: st.AckSeq})
	}
	if wd.heals == 1 || !h.enclave.Durable() {
		// Heal step 1 (and the only step on non-durable hosts, retried
		// each trip): re-serve the unacked window from the log.
		h.mu.RLock()
		closed := h.closed
		started := false
		if !closed {
			started = h.enclave.ReplRetransmitStart()
		}
		h.mu.RUnlock()
		if closed || !started {
			return
		}
		h.kickRepl()
		h.logf("%s: replication stall: retransmitting unacked window for chain %s", h.cfg.Name, st.Chain)
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	res, err := h.enclave.ReplResyncStart()
	if err != nil {
		h.mu.Unlock()
		h.logf("%s: replication stall self-heal: %v", h.cfg.Name, err)
		return
	}
	h.dispatchLocked(res)
	h.mu.Unlock()
	h.logf("%s: replication stall: resync kicked for chain %s", h.cfg.Name, st.Chain)
}

// CommitteeStats snapshots the replication pipeline for the control
// API: the enclave's log cursors plus the host's flusher counters.
type CommitteeStats struct {
	core.ReplStats
	BatchesOut    uint64 // replication frames flushed (batches + solo updates)
	OpsOut        uint64 // ops carried by those frames
	Mirrors       int    // chains this host serves as a committee member
	FrozenMirrors int    // mirrored chains frozen for genuine divergence
	Stalled       bool   // watchdog: ack cursor stuck with ops pending
	Stalls        uint64 // watchdog trips since the host started
}

// CommitteeStats reports the committee pipeline state; ok is false when
// this host neither owns a chain nor mirrors one.
func (h *Host) CommitteeStats() (CommitteeStats, bool) {
	var st CommitteeStats
	var owner, mirrors bool
	h.mu.RLock()
	st.ReplStats, owner = h.enclave.ReplStats()
	st.Mirrors = h.enclave.MirrorCount()
	st.FrozenMirrors = h.enclave.FrozenMirrors()
	h.mu.RUnlock()
	mirrors = st.Mirrors > 0
	st.BatchesOut = h.replBatchesOut.Load()
	st.OpsOut = h.replOpsOut.Load()
	st.Stalled = h.replStalled.Load()
	st.Stalls = h.replStalls.Load()
	return st, owner || mirrors
}
