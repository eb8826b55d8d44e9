// Self-healing replication, mirror side (PR 9): instead of freezing on
// any sequence gap, a committee mirror buffers ahead-of-sequence frames
// in a bounded reorder buffer and reports the gap upstream with a typed
// ReplNack; the primary re-serves the missing range from its retained
// log entries (Retx-flagged), the buffered frames drain, and the chain
// converges. Freeze remains the verdict for genuine divergence only:
// overlapping frames whose payloads differ from what the mirror already
// applied (detected via a rolling per-sequence digest ring), forged
// ops, and mirror apply failures.
package core

import (
	"fmt"

	"teechain/internal/chain"
	"teechain/internal/wire"
)

const (
	// replHeldMax bounds the mirror's reorder buffer (frames, not ops).
	// Overflow drops the highest-sequence frame — the one farthest from
	// the gap, cheapest to re-serve later.
	replHeldMax = 64
	// replDigestWindow is the span of recent sequences whose op digests
	// a mirror retains for overlap verification. Retransmissions only
	// ever cover the unacknowledged window (≤ the flusher's window
	// bound), so anything older is unverifiable but also unreachable by
	// an honest primary.
	replDigestWindow = 8192
	// replNackEvery re-arms NACK emission after this many held/ahead
	// frames arrive without progress, so a lost ReplNack does not leave
	// the gap silent until the stall watchdog (suppression re-send).
	replNackEvery = 8
)

// replHeld is one buffered ahead-of-sequence replication frame: a
// payment batch (ops, copied — byte transports reuse the decode
// target) or a solo update (op).
type replHeld struct {
	firstSeq uint64
	ops      []wire.ReplBatchOp // batch payload; nil for a solo update
	op       *Op                // solo payload
	retx     bool
}

func (h *replHeld) lastSeq() uint64 {
	if h.op != nil {
		return h.firstSeq
	}
	return h.firstSeq + uint64(len(h.ops)) - 1
}

// replOpDigest hashes the replicated fields of one batch op (FNV-1a).
// Solo ops are digested over the same projection with a tag bit so a
// solo and a batch op at the same sequence never collide.
func replOpDigest(solo bool, kind uint8, ch wire.ChannelID, amount chain.Amount, count int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	tag := uint64(kind)
	if solo {
		tag |= 1 << 8
	}
	mix(tag)
	for i := 0; i < len(ch); i++ {
		h ^= uint64(ch[i])
		h *= prime64
	}
	mix(uint64(amount))
	mix(uint64(count))
	return h
}

func soloDigest(op *Op) uint64 {
	return replOpDigest(true, uint8(op.Kind), op.Channel, op.Amount, op.Count)
}

func batchOpDigest(w *wire.ReplBatchOp) uint64 {
	return replOpDigest(false, w.Kind, w.Channel, w.Amount, w.Count)
}

// recordDigest remembers the digest of the op applied at seq.
func (b *replBackup) recordDigest(seq, dig uint64) {
	if b.digests == nil {
		b.digests = make([]uint64, replDigestWindow)
	}
	b.digests[seq%replDigestWindow] = dig
}

// digestAt returns the recorded digest for seq, with ok reporting
// whether the ring still covers it (applied by this mirror, within the
// window). Sequences covered by the attach/resync snapshot (≤ digBase)
// are unverifiable.
func (b *replBackup) digestAt(seq uint64) (uint64, bool) {
	if b.digests == nil || seq <= b.digBase || seq > b.lastSeq || seq+replDigestWindow <= b.lastSeq {
		return 0, false
	}
	return b.digests[seq%replDigestWindow], true
}

// verifyBatchOverlap checks the already-applied prefix of a batch
// against the recorded digests; a mismatch means the primary (or a
// forger) is re-sending different payloads for committed sequences —
// genuine divergence, the freeze case. Returns "" when consistent.
func (b *replBackup) verifyBatchOverlap(firstSeq uint64, ops []wire.ReplBatchOp) string {
	for i := range ops {
		seq := firstSeq + uint64(i)
		if seq > b.lastSeq {
			break
		}
		if have, ok := b.digestAt(seq); ok && have != batchOpDigest(&ops[i]) {
			return fmt.Sprintf("conflicting payload at seq %d: retransmission differs from applied op", seq)
		}
	}
	return ""
}

// verifySoloOverlap is verifyBatchOverlap for a solo update.
func (b *replBackup) verifySoloOverlap(seq uint64, op *Op) string {
	if have, ok := b.digestAt(seq); ok && have != soloDigest(op) {
		return fmt.Sprintf("conflicting payload at seq %d: retransmission differs from applied op", seq)
	}
	return ""
}

// replProgress resets NACK suppression after the mirror cursor moved.
func (b *replBackup) replProgress() {
	b.lastNackWant = 0
	b.nackHeld = 0
}

// replHold buffers an ahead-of-sequence frame and (subject to
// suppression) reports the gap upstream. The buffer stays sorted by
// firstSeq; a frame for an already-held first sequence replaces the
// held one when it carries at least as many ops.
func (e *Enclave) replHold(b *replBackup, h replHeld) (*Result, error) {
	at := len(b.held)
	replace := false
	for i := range b.held {
		if b.held[i].firstSeq >= h.firstSeq {
			at = i
			replace = b.held[i].firstSeq == h.firstSeq
			break
		}
	}
	if replace {
		if h.lastSeq() >= b.held[at].lastSeq() {
			b.held[at] = h
		}
	} else {
		b.held = append(b.held, replHeld{})
		copy(b.held[at+1:], b.held[at:])
		b.held[at] = h
		if len(b.held) > replHeldMax {
			// Drop the frame farthest from the gap; the retransmission
			// the NACK triggers re-covers it anyway.
			b.held = b.held[:replHeldMax]
		}
	}
	res := &Result{}
	want := b.lastSeq + 1
	b.nackHeld++
	if b.lastNackWant != want || b.nackHeld >= replNackEvery {
		b.lastNackWant = want
		b.nackHeld = 0
		res.Out = append(res.Out, Outbound{To: b.prev(), Msg: &wire.ReplNack{
			Chain: b.chainID, WantSeq: want, HaveThrough: b.lastSeq,
		}})
	}
	return res, nil
}

// applyBatchSuffix applies the not-yet-applied suffix of a batch run to
// the mirror, recording digests. The caller verified the overlap
// prefix. Returns a freeze reason on forged ops or apply failure.
func (e *Enclave) applyBatchSuffix(b *replBackup, firstSeq uint64, ops []wire.ReplBatchOp) string {
	op := &b.scratchOp
	for i := range ops {
		seq := firstSeq + uint64(i)
		if seq <= b.lastSeq {
			continue
		}
		w := &ops[i]
		kind, ok := replOpKind(w.Kind)
		if !ok {
			return fmt.Sprintf("unknown batch op kind %d", w.Kind)
		}
		// Forged-frame hardening, mirroring sumBatch: a non-positive
		// amount slips through Apply's one-sided balance guards and a
		// huge one overflows them; neither may touch the mirror.
		if w.Amount <= 0 || w.Count < 1 {
			return fmt.Sprintf("invalid batch op amount %d count %d", w.Amount, w.Count)
		}
		*op = Op{Kind: kind, Channel: w.Channel, Amount: w.Amount, Count: w.Count}
		if err := b.mirror.Apply(op); err != nil {
			return fmt.Sprintf("mirror apply failed at seq %d: %v", seq, err)
		}
		b.recordDigest(seq, batchOpDigest(w))
		b.lastSeq = seq
	}
	b.replProgress()
	return ""
}

// applySolo applies one exactly-next solo update to the mirror,
// producing this member's τ signatures when the op is a multi-hop sign
// stage. Signatures are remembered in pendingSigs at every position —
// middles merge them into the upstream ack, and any member re-serves
// them when a Retx duplicate repairs a lost ack. Returns a freeze
// reason on divergence.
func (e *Enclave) applySolo(b *replBackup, seq uint64, op *Op) ([]wire.TauSig, string) {
	if err := b.mirror.Apply(op); err != nil {
		return nil, fmt.Sprintf("mirror apply failed: %v", err)
	}
	b.recordDigest(seq, soloDigest(op))
	b.lastSeq = seq
	b.replProgress()
	var mySigs []wire.TauSig
	if op.Kind == OpMhStage && op.Stage == MhSign && op.Tau != nil {
		sigs, err := e.signTauInputs(b, op.Tau)
		if err != nil {
			return nil, fmt.Sprintf("tau signing failed: %v", err)
		}
		mySigs = sigs
	}
	if len(mySigs) > 0 {
		b.rememberSigs(seq, mySigs)
	}
	return mySigs, ""
}

// rememberSigs caches this member's τ signatures for seq so a lost ack
// can be repaired from a retransmission, pruning entries that fell out
// of the verifiable window.
func (b *replBackup) rememberSigs(seq uint64, sigs []wire.TauSig) {
	b.pendingSigs[seq] = sigs
	if len(b.pendingSigs) > 1024 {
		for k := range b.pendingSigs {
			if k+replDigestWindow <= seq {
				delete(b.pendingSigs, k)
			}
		}
	}
}

// replDrainHeld applies every buffered frame that became contiguous
// after the mirror cursor advanced, appending relays (middle) and acks
// (tail) to res. ackPending tracks whether a cumulative ReplBatchAck up
// to the current lastSeq is owed; it is flushed before any solo's
// per-sequence ReplAck so the primary sees acks in cursor order.
// Returns a freeze reason on divergence.
func (e *Enclave) replDrainHeld(b *replBackup, res *Result, ackPending *bool) string {
	next, hasNext := b.next()
	flushAck := func() {
		if *ackPending {
			res.Out = append(res.Out, Outbound{To: b.prev(), Msg: e.pools.replBatchAck(b.chainID, b.lastSeq)})
			*ackPending = false
		}
	}
	for len(b.held) > 0 && b.held[0].firstSeq <= b.lastSeq+1 {
		h := b.held[0]
		copy(b.held, b.held[1:])
		b.held[len(b.held)-1] = replHeld{}
		b.held = b.held[:len(b.held)-1]
		if h.op != nil {
			// Solo update.
			if h.firstSeq <= b.lastSeq {
				if reason := b.verifySoloOverlap(h.firstSeq, h.op); reason != "" {
					return reason
				}
				continue // full duplicate: already applied, already acked
			}
			mySigs, reason := e.applySolo(b, h.firstSeq, h.op)
			if reason != "" {
				return reason
			}
			if hasNext {
				res.Out = append(res.Out, Outbound{To: next, Msg: &wire.ReplUpdate{
					Chain: b.chainID, Seq: h.firstSeq, Op: h.op, Retx: h.retx,
				}})
			} else {
				flushAck()
				res.Out = append(res.Out, Outbound{To: b.prev(), Msg: &wire.ReplAck{
					Chain: b.chainID, Seq: h.firstSeq, TauSigs: mySigs,
				}})
			}
			continue
		}
		// Batch.
		if reason := b.verifyBatchOverlap(h.firstSeq, h.ops); reason != "" {
			return reason
		}
		if h.lastSeq() <= b.lastSeq {
			continue // full duplicate
		}
		if reason := e.applyBatchSuffix(b, h.firstSeq, h.ops); reason != "" {
			return reason
		}
		if hasNext {
			relay := e.pools.getReplBatchMsg()
			relay.Chain, relay.FirstSeq, relay.Retx = b.chainID, h.firstSeq, h.retx
			relay.Ops = append(relay.Ops, h.ops...)
			res.Out = append(res.Out, Outbound{To: next, Msg: relay})
		} else {
			*ackPending = true
		}
	}
	return ""
}

// freezeMerged freezes the chain for reason and merges the freeze
// events/notifications into res (which may already carry relays for
// frames applied before the divergence was detected — those are valid).
func (e *Enclave) freezeMerged(b *replBackup, res *Result, reason string) (*Result, error) {
	fres, err := e.freezeChainLocal(b, reason)
	if err != nil {
		return nil, err
	}
	res.Out = append(res.Out, fres.Out...)
	res.Events = append(res.Events, fres.Events...)
	return res, nil
}

// MirrorProgress reports a mirror's replication cursor and reorder
// buffer occupancy, for tests and stall diagnostics.
func (e *Enclave) MirrorProgress(chainID string) (lastSeq uint64, held int, ok bool) {
	b, found := e.backups[chainID]
	if !found {
		return 0, 0, false
	}
	return b.lastSeq, len(b.held), true
}

// MirrorChains lists the chain IDs this enclave mirrors.
func (e *Enclave) MirrorChains() []string {
	ids := make([]string, 0, len(e.backups))
	for id := range e.backups {
		ids = append(ids, id)
	}
	return ids
}

// FrozenMirrors counts the chains this enclave mirrors that are frozen
// (harness chaos assertions: self-healing schedules must end with 0).
func (e *Enclave) FrozenMirrors() int {
	n := 0
	for _, b := range e.backups {
		if b.frozen {
			n++
		}
	}
	return n
}
