// Replication log: the dedicated concurrency domain of a chain
// primary (Alg. 3 with the chain-replication batching/pipelining of
// van Renesse & Schneider, OSDI'04).
//
// A replicated commit applies the op to the primary's state and then
// appends the op — together with its withheld externally visible
// effects (outbound messages, events, the unboxed payment outcome) — to
// the chain's replication log. The log has its own mutex, so payment
// lanes (which hold the host's wide lock only in READ mode, see
// concurrent.go) can commit replicated payments concurrently: the lane
// lock orders ops per channel, the log mutex orders the global append,
// and ops on different channels commute, so backups that apply in log
// order converge to the primary's state.
//
// Commits only append to this one log, and each host drains it with
// ReplNextFlush in its own frame size. A socket host's flusher packs
// runs of payment ops into ReplBatch frames (everything else flushes as
// solo ReplUpdate frames), pipelining batches down the chain without
// waiting, bounded by an in-flight window; the tail acknowledges
// cumulatively and one ReplBatchAck releases a whole run of withheld
// effects. The simulator's Node drains after every dispatch with a
// one-op batch: each payment op leaves as its own ReplBatch (cold ops
// as solo ReplUpdate) and each ReplBatchAck releases exactly one entry
// (the per-update chain of §6 that the harness determinism tests pin).
//
// Entries are pooled and recycled on release, so a replicated payment
// commit allocates nothing in steady state.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// replMaxPending bounds committed-but-unacknowledged ops (queued plus
// in flight). Commits beyond it fail with ErrReplBacklog instead of
// growing the log without bound when the chain stalls — the host
// surfaces the error and the caller retries.
const replMaxPending = 1 << 17

// ErrReplBacklog reports that the replication chain has fallen too far
// behind for further optimistic commits.
var ErrReplBacklog = errors.New("core: replication backlog full")

// replEntry is one committed, not-yet-acknowledged state update with
// its withheld effects. Pooled; out and events keep capacity across
// journeys.
type replEntry struct {
	seq    uint64
	op     *Op
	out    []Outbound
	events []Event
	pay    payEvent
	// tauPending marks a multi-hop sign-stage op whose committee τ
	// signatures have not been folded in yet: a cumulative ReplBatchAck
	// may not release it (the per-sequence ReplAck carrying the
	// signatures must land first), see advanceAckLocked.
	tauPending bool
}

// replLog is the commit pipeline state of a chain primary and/or a
// durable enclave: one ordered sequence of committed ops with their
// withheld effects, consumed by up to two independent cursors — the
// replication ack cursor (ackSeq) and the WAL fsync cursor (syncSeq).
// An entry's effects release only once every enabled cursor has passed
// it (releaseTargetLocked), which is exactly the paper's commit-before-
// ack ordering for both replication and stable storage. All fields are
// guarded by mu except backlog (atomic, read before Apply so an
// over-full log rejects commits without taking the lock) and
// notify/durable (written once under the wide lock before any
// concurrent commit exists).
type replLog struct {
	mu sync.Mutex

	// notify, when set, wakes the host's flusher(s) after an append.
	// Called outside mu; must not block.
	notify func()
	// durable gates releases on the WAL fsync cursor (syncSeq).
	durable bool

	nextSeq  uint64 // last committed sequence number
	flushSeq uint64 // last sequence handed to the transport
	ackSeq   uint64 // last sequence cumulatively acknowledged by the chain
	walSeq   uint64 // last sequence handed to the WAL flusher
	syncSeq  uint64 // last sequence fsynced to the WAL
	relSeq   uint64 // last sequence whose effects were released

	// Retransmission cursor (self-healing replication): when a mirror
	// NACKs a gap — or the stall watchdog fires — the flusher re-serves
	// seqs retxSeq+1..retxEnd from the retained entries with the Retx
	// flag set, before any new flushing. Inactive when retxSeq >= retxEnd.
	retxSeq uint64
	retxEnd uint64
	// batchAckHigh is the highest cumulative ReplBatchAck seen. It can
	// run ahead of ackSeq when an earlier per-sequence ReplAck (τ
	// signatures) was lost: ackSeq holds at the unfolded entry until a
	// retransmission recovers the signatures, then resumes to here.
	batchAckHigh uint64
	// Self-healing telemetry, surfaced through ReplStats.
	nacksIn uint64 // ReplNacks received from the chain
	retxOps uint64 // ops re-served from the log

	// entries[head:] holds the entries for seqs relSeq+1..nextSeq in
	// order; popping advances head and compacts like chanRuntime.
	entries []*replEntry
	head    int

	free    []*replEntry
	backlog atomic.Int64 // nextSeq - relSeq, maintained on append/release
}

func (l *replLog) getEntryLocked() *replEntry {
	if k := len(l.free); k > 0 {
		e := l.free[k-1]
		l.free = l.free[:k-1]
		return e
	}
	return &replEntry{}
}

func (l *replLog) putEntryLocked(ent *replEntry) {
	for i := range ent.out {
		ent.out[i] = Outbound{}
	}
	for i := range ent.events {
		ent.events[i] = nil
	}
	ent.out = ent.out[:0]
	ent.events = ent.events[:0]
	ent.op = nil
	ent.pay = payEvent{}
	ent.seq = 0
	ent.tauPending = false
	l.free = append(l.free, ent)
}

// admit reports whether another commit may enter the log. Approximate
// by design (concurrent lanes may overshoot by a handful), checked
// BEFORE State.Apply so a rejected commit leaves no divergence between
// the primary's state and the replication stream.
func (l *replLog) admit() error {
	if l.backlog.Load() >= replMaxPending {
		return ErrReplBacklog
	}
	return nil
}

// append assigns the next sequence number to a pooled entry built by
// the caller and enqueues it for the host to drain.
func (l *replLog) append(ent *replEntry) {
	l.mu.Lock()
	l.nextSeq++
	ent.seq = l.nextSeq
	l.entries = append(l.entries, ent)
	l.backlog.Add(1)
	l.mu.Unlock()
	if l.notify != nil {
		l.notify()
	}
}

// entryAt returns the queued entry for seq, or nil. Caller holds mu.
func (l *replLog) entryAtLocked(seq uint64) *replEntry {
	if seq <= l.relSeq || seq > l.nextSeq {
		return nil
	}
	return l.entries[l.head+int(seq-l.relSeq-1)]
}

// releaseTargetLocked computes how far withheld effects may release:
// the committed frontier, clamped by the chain ack cursor when the op
// was replicated and by the WAL fsync cursor when the log is durable.
// Caller holds mu.
func (l *replLog) releaseTargetLocked(replicated bool) uint64 {
	t := l.nextSeq
	if replicated && l.ackSeq < t {
		t = l.ackSeq
	}
	if l.durable && l.syncSeq < t {
		t = l.syncSeq
	}
	return t
}

// popLocked removes and returns the oldest entry (seq relSeq+1),
// advancing relSeq. Caller holds mu and has checked it exists.
func (l *replLog) popLocked() *replEntry {
	ent := l.entries[l.head]
	l.entries[l.head] = nil
	l.head++
	l.relSeq++
	l.backlog.Add(-1)
	if l.head == len(l.entries) {
		l.entries = l.entries[:0]
		l.head = 0
	} else if l.head >= 64 && l.head*2 >= len(l.entries) {
		live := copy(l.entries, l.entries[l.head:])
		for i := live; i < len(l.entries); i++ {
			l.entries[i] = nil
		}
		l.entries = l.entries[:live]
		l.head = 0
	}
	return ent
}

// attachTail appends out behind the newest pending entry's effects,
// preserving per-channel FIFO between committed responses (PayAck) and
// uncommitted ones (PayNack). Returns false when nothing is pending and
// the message should be sent immediately.
func (l *replLog) attachTail(out Outbound) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.head >= len(l.entries) {
		return false
	}
	ent := l.entries[len(l.entries)-1]
	ent.out = append(ent.out, out)
	return true
}

// clear drops every pending entry (freeze). Entries are NOT recycled:
// their ops may still ride in-flight replication messages.
func (l *replLog) clear() {
	l.mu.Lock()
	for i := range l.entries {
		l.entries[i] = nil
	}
	l.entries = l.entries[:0]
	l.head = 0
	l.ackSeq = l.nextSeq
	l.flushSeq = l.nextSeq
	l.walSeq = l.nextSeq
	l.syncSeq = l.nextSeq
	l.relSeq = l.nextSeq
	l.batchAckHigh = l.nextSeq
	l.retxSeq = 0
	l.retxEnd = 0
	l.backlog.Store(0)
	l.mu.Unlock()
}

// releaseTo pops every entry with seq <= target, merging its withheld
// effects into res (in sequence order) and recycling entries and hot
// ops. Same-channel PayReceived outcomes merge into one unboxed event
// (hosts only count them); anything else that cannot share the unboxed
// slot is boxed. Caller computed target via releaseTargetLocked (or
// validated it against the cursors directly).
func (e *Enclave) releaseTo(l *replLog, target uint64, res *Result) {
	l.mu.Lock()
	for l.relSeq < target {
		ent := l.popLocked()
		res.Out = append(res.Out, ent.out...)
		res.Events = append(res.Events, ent.events...)
		if ent.pay.kind != PayNone {
			if res.pay.kind == PayNone {
				res.pay = ent.pay
			} else if res.pay.kind == PayReceived && ent.pay.kind == PayReceived &&
				res.pay.channel == ent.pay.channel {
				res.pay.amount += ent.pay.amount
				res.pay.count += ent.pay.count
			} else {
				res.Events = append(res.Events, ent.pay.box())
			}
		}
		if ent.op != nil && hotOp(ent.op) {
			e.pools.putOp(ent.op)
		}
		l.putEntryLocked(ent)
	}
	l.mu.Unlock()
}

// bothNotify returns the append notification of a log two flushers
// drain — the WAL's and the replication chain's: it calls whichever of
// a and b are set.
func bothNotify(a, b func()) func() {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func() { a(); b() }
}

// ReplStats is a snapshot of the replication pipeline, surfaced through
// the host's "stats committee" control command.
type ReplStats struct {
	Chain       string
	NextSeq     uint64 // last committed op
	FlushSeq    uint64 // last op handed to the transport
	AckSeq      uint64 // last op acknowledged by the whole chain
	Queued      int    // committed, not yet flushed
	Window      int    // flushed, not yet acknowledged
	Frozen      bool   // the owner chain is frozen
	NacksIn     uint64 // gap NACKs received from the chain
	Retransmits uint64 // ops re-served from the log (self-healing)
}

// ReplStats snapshots the primary's replication log; ok is false when
// no committee is formed.
func (e *Enclave) ReplStats() (ReplStats, bool) {
	if e.repl == nil {
		return ReplStats{}, false
	}
	l := e.repl.log
	l.mu.Lock()
	st := ReplStats{
		Chain:       e.repl.chainID,
		NextSeq:     l.nextSeq,
		FlushSeq:    l.flushSeq,
		AckSeq:      l.ackSeq,
		Queued:      int(l.nextSeq - l.flushSeq),
		Window:      int(l.flushSeq - l.ackSeq),
		Frozen:      e.state.Frozen,
		NacksIn:     l.nacksIn,
		Retransmits: l.retxOps,
	}
	l.mu.Unlock()
	return st, true
}

// replBatchKind maps a batchable op kind to its wire code (0 = not
// batchable; such ops flush as solo ReplUpdate frames).
func replBatchKind(k OpKind) uint8 {
	switch k {
	case OpPaySend:
		return wire.ReplOpPaySend
	case OpPayRecv:
		return wire.ReplOpPayRecv
	case OpPayRevert:
		return wire.ReplOpPayRevert
	}
	return 0
}

// replOpKind is the inverse mapping, validating the wire code.
func replOpKind(k uint8) (OpKind, bool) {
	switch k {
	case wire.ReplOpPaySend:
		return OpPaySend, true
	case wire.ReplOpPayRecv:
		return OpPayRecv, true
	case wire.ReplOpPayRevert:
		return OpPayRevert, true
	}
	return 0, false
}

// ReplNextFlush hands the host its next replication frame: a run of at
// most maxOps consecutive payment ops packed into batch, or a solo
// *wire.ReplUpdate for ops that cannot batch (multi-hop stages need
// per-sequence τ-signature piggybacking). Returns n == 0
// when nothing is flushable — the log is drained, or
// flushed-but-unacknowledged ops already fill maxWindow (the pipelining
// backpressure bound). A scheduled retransmission (ReplNack or
// ReplRetransmitStart) is served first, Retx-flagged, from the retained
// entries; retransmissions ignore maxWindow because their ops are
// already inside the flushed window. Caller holds the wide lock in read
// mode.
func (e *Enclave) ReplNextFlush(batch *wire.ReplBatch, maxOps, maxWindow int) (to cryptoutil.PublicKey, msg wire.Message, n int) {
	if e.repl == nil || e.state.Frozen {
		return to, nil, 0
	}
	backup, ok := e.repl.backup()
	if !ok {
		return to, nil, 0
	}
	l := e.repl.log
	l.mu.Lock()
	defer l.mu.Unlock()
	if maxOps > wire.MaxReplBatch {
		maxOps = wire.MaxReplBatch
	}
	// Retransmission first: acknowledged ops need no re-serving, so the
	// cursor fast-forwards past acks that landed since the NACK.
	if l.retxSeq < l.ackSeq {
		l.retxSeq = l.ackSeq
	}
	if l.retxEnd > l.flushSeq {
		l.retxEnd = l.flushSeq
	}
	cursor, end, retx := &l.flushSeq, l.nextSeq, false
	if l.retxSeq < l.retxEnd {
		cursor, end, retx = &l.retxSeq, l.retxEnd, true
	} else if l.flushSeq >= l.nextSeq || int(l.flushSeq-l.ackSeq) >= maxWindow {
		return to, nil, 0
	}
	first := *cursor + 1
	ent := l.entryAtLocked(first)
	if replBatchKind(ent.op.Kind) == 0 {
		*cursor++
		if retx {
			l.retxOps++
		}
		ru := e.pools.getReplUpdateMsg()
		ru.Chain, ru.Seq, ru.Op, ru.Retx = e.repl.chainID, first, ent.op, retx
		return backup, ru, 1
	}
	batch.Chain = e.repl.chainID
	batch.FirstSeq = first
	batch.Retx = retx
	batch.Ops = batch.Ops[:0]
	for len(batch.Ops) < maxOps && *cursor < end {
		ent := l.entryAtLocked(*cursor + 1)
		kind := replBatchKind(ent.op.Kind)
		if kind == 0 {
			break // cold op: ends the run, flushes solo next call
		}
		batch.Ops = append(batch.Ops, wire.ReplBatchOp{
			Kind:    kind,
			Channel: ent.op.Channel,
			Amount:  ent.op.Amount,
			Count:   ent.op.Count,
		})
		*cursor++
	}
	if retx {
		l.retxOps += uint64(len(batch.Ops))
	}
	return backup, batch, len(batch.Ops)
}

// ReplRewind un-serves msg, a frame of n ops from ReplNextFlush, after
// the host failed to hand it to the transport (outbound queue full,
// encode failure): the entries are still in the window, so moving back
// the cursor the frame was served from — the retransmit cursor for a
// Retx-flagged frame, the flush cursor otherwise — re-offers them to
// the next ReplNextFlush. Safe because the frame never left the host —
// no ack for those sequences can be in flight, and the freshness
// counter the discarded frame consumed is just a gap the receiver's
// anti-replay window skips. A cursor never moves below the ack.
func (e *Enclave) ReplRewind(msg wire.Message, n int) {
	if e.repl == nil || n <= 0 {
		return
	}
	retx := false
	switch m := msg.(type) {
	case *wire.ReplBatch:
		retx = m.Retx
	case *wire.ReplUpdate:
		retx = m.Retx
	}
	l := e.repl.log
	l.mu.Lock()
	cursor := &l.flushSeq
	if retx {
		cursor = &l.retxSeq
	}
	if un := uint64(n); *cursor >= un && *cursor-un >= l.ackSeq {
		*cursor -= un
	}
	l.mu.Unlock()
}

// ReplRetransmitStart schedules a retransmission of the entire
// unacknowledged flushed window (ackSeq+1..flushSeq) from the retained
// log entries. The stall watchdog calls this as its first, cheap heal
// step — a lost frame or lost ack recovers from the log without the
// durable wholesale resync. Returns false when there is nothing to
// re-serve.
func (e *Enclave) ReplRetransmitStart() bool {
	if e.repl == nil || e.state.Frozen {
		return false
	}
	l := e.repl.log
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ackSeq >= l.flushSeq {
		return false
	}
	if l.retxSeq < l.ackSeq {
		l.retxSeq = l.ackSeq
	}
	if l.retxSeq < l.retxEnd {
		// A retransmission is still being served; restarting it from
		// ackSeq would re-serve the same prefix on every watchdog trip,
		// flooding a slow link instead of healing it. Let the flusher
		// finish the round — the next trip re-arms if it bought nothing.
		return false
	}
	l.retxSeq = l.ackSeq
	l.retxEnd = l.flushSeq
	return true
}

// advanceAckLocked advances the cumulative ack cursor toward the
// highest cumulative batch ack seen, stopping at any entry whose
// committee τ signatures are still outstanding: a cumulative ack must
// not release a sign-stage op before its per-sequence ReplAck folds the
// signatures in (the deferred sign-stage message would depart
// unsigned). Caller holds mu.
func (l *replLog) advanceAckLocked() {
	for l.ackSeq < l.batchAckHigh {
		ent := l.entryAtLocked(l.ackSeq + 1)
		if ent == nil || ent.tauPending {
			break
		}
		l.ackSeq++
	}
}

// --- Backup side: batch application ---

// handleReplBatch applies a batched run of payment ops to the mirror,
// relays it down the chain, and (at the tail) acknowledges
// cumulatively. Sequence discipline is exactly-next with self-healing
// (repl_heal.go): a batch whose ops were all seen already is a
// transport redelivery — dropped, or answered with a fresh cumulative
// ack when Retx-flagged (lost-ack repair); a batch ahead of sequence is
// buffered and the gap NACKed upstream; an overlapping batch has its
// already-applied prefix digest-verified (divergence freezes) and only
// the suffix applied. Freeze is reserved for genuine divergence: forged
// ops, apply failures, and conflicting payloads at committed sequences.
func (e *Enclave) handleReplBatch(from cryptoutil.PublicKey, m *wire.ReplBatch) (*Result, error) {
	b, ok := e.backups[m.Chain]
	if !ok {
		return nil, fmt.Errorf("core: not a member of chain %s", m.Chain)
	}
	if b.frozen {
		return nil, fmt.Errorf("core: chain %s is frozen", m.Chain)
	}
	if from != b.prev() {
		return nil, fmt.Errorf("core: replication batch from non-predecessor %s", from)
	}
	n := len(m.Ops)
	if n < 1 || n > wire.MaxReplBatch {
		return nil, fmt.Errorf("core: replication batch of %d ops", n)
	}
	last := m.FirstSeq + uint64(n) - 1
	if last < m.FirstSeq {
		return nil, errors.New("core: replication batch sequence range overflows")
	}
	next, hasNext := b.next()
	if last <= b.lastSeq {
		// Whole-batch duplicate: a redelivered frame after a connection
		// handover, or a retransmission that crossed the ack it repairs.
		// The payload must still match what was applied.
		if reason := b.verifyBatchOverlap(m.FirstSeq, m.Ops); reason != "" {
			return e.freezeChainLocal(b, reason)
		}
		if m.Retx {
			// Lost-ack repair: the primary would not re-serve acked
			// sequences, so the ack must have been lost downstream of
			// here — relay (middle) or re-acknowledge (tail).
			res := e.pools.getResult()
			if hasNext {
				res.Out = append(res.Out, Outbound{To: next, Msg: e.pools.replBatchCopy(m)})
			} else {
				res.Out = append(res.Out, Outbound{To: b.prev(), Msg: e.pools.replBatchAck(m.Chain, b.lastSeq)})
			}
			return res, nil
		}
		return nil, fmt.Errorf("core: duplicate replication batch %d..%d (have %d)", m.FirstSeq, last, b.lastSeq)
	}
	if m.FirstSeq > b.lastSeq+1 {
		// Ahead of sequence: the frames in between were lost or
		// reordered. Buffer and report the gap instead of freezing.
		return e.replHold(b, replHeld{
			firstSeq: m.FirstSeq,
			ops:      append([]wire.ReplBatchOp(nil), m.Ops...),
			retx:     m.Retx,
		})
	}
	// Contiguous (possibly overlapping) run: verify the applied prefix,
	// apply the suffix.
	if reason := b.verifyBatchOverlap(m.FirstSeq, m.Ops); reason != "" {
		return e.freezeChainLocal(b, reason)
	}
	if reason := e.applyBatchSuffix(b, m.FirstSeq, m.Ops); reason != "" {
		return e.freezeChainLocal(b, reason)
	}
	res := e.pools.getResult()
	if hasNext {
		res.Out = append(res.Out, Outbound{To: next, Msg: e.pools.replBatchCopy(m)})
	}
	ackPending := !hasNext
	if reason := e.replDrainHeld(b, res, &ackPending); reason != "" {
		return e.freezeMerged(b, res, reason)
	}
	if ackPending {
		res.Out = append(res.Out, Outbound{To: b.prev(), Msg: e.pools.replBatchAck(m.Chain, b.lastSeq)})
	}
	return res, nil
}

// handleReplBatchAck relays a cumulative acknowledgement up the chain
// (middle members) or releases every withheld effect up to Seq (the
// primary). Acks must be strictly monotonic and can never exceed what
// was flushed — a forged ack cannot release effects of updates the
// chain has not applied.
func (e *Enclave) handleReplBatchAck(from cryptoutil.PublicKey, m *wire.ReplBatchAck) (*Result, error) {
	if b, ok := e.backups[m.Chain]; ok {
		if next, hasNext := b.next(); !hasNext || next != from {
			return nil, fmt.Errorf("core: replication ack from non-successor %s", from)
		}
		res := e.pools.getResult()
		res.Out = append(res.Out, Outbound{To: b.prev(), Msg: e.pools.replBatchAck(m.Chain, m.Seq)})
		return res, nil
	}
	if e.repl == nil || e.repl.chainID != m.Chain {
		return nil, fmt.Errorf("core: ack for unknown chain %s", m.Chain)
	}
	backup, ok := e.repl.backup()
	if !ok || from != backup {
		return nil, fmt.Errorf("core: replication ack from non-backup %s", from)
	}
	l := e.repl.log
	l.mu.Lock()
	if m.Seq <= l.ackSeq {
		ackSeq := l.ackSeq
		l.mu.Unlock()
		return nil, fmt.Errorf("core: stale cumulative ack %d (acked %d)", m.Seq, ackSeq)
	}
	if m.Seq > l.flushSeq {
		flushSeq := l.flushSeq
		l.mu.Unlock()
		return nil, fmt.Errorf("core: cumulative ack %d beyond flushed %d", m.Seq, flushSeq)
	}
	if m.Seq > l.batchAckHigh {
		l.batchAckHigh = m.Seq
	}
	l.advanceAckLocked()
	target := l.releaseTargetLocked(true)
	l.mu.Unlock()
	res := e.pools.getResult()
	e.releaseTo(l, target, res)
	return res, nil
}

// handleReplNack processes a mirror's gap report: middle members relay
// it toward the primary; the primary schedules a retransmission of the
// missing range from its retained log entries. NACK-suppression lives
// here too — a retransmission already in flight that covers the wanted
// range is not restarted, so a slow mirror cannot amplify one loss into
// a retransmit storm.
func (e *Enclave) handleReplNack(from cryptoutil.PublicKey, m *wire.ReplNack) (*Result, error) {
	if b, ok := e.backups[m.Chain]; ok {
		if next, hasNext := b.next(); !hasNext || next != from {
			return nil, fmt.Errorf("core: replication nack from non-successor %s", from)
		}
		// Relay a copy: byte transports reuse the decode target.
		return &Result{Out: oneOut(b.prev(), &wire.ReplNack{
			Chain: m.Chain, WantSeq: m.WantSeq, HaveThrough: m.HaveThrough,
		})}, nil
	}
	if e.repl == nil || e.repl.chainID != m.Chain {
		return nil, fmt.Errorf("core: nack for unknown chain %s", m.Chain)
	}
	backup, ok := e.repl.backup()
	if !ok || from != backup {
		return nil, fmt.Errorf("core: replication nack from non-backup %s", from)
	}
	l := e.repl.log
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nacksIn++
	if m.WantSeq == 0 || m.WantSeq > l.flushSeq+1 {
		return nil, fmt.Errorf("core: nack wants %d outside flushed window (flushed %d)", m.WantSeq, l.flushSeq)
	}
	start := m.WantSeq - 1
	if start < l.ackSeq {
		start = l.ackSeq
	}
	if l.retxSeq < l.retxEnd && start >= l.retxSeq {
		// A retransmission already covering the wanted range is in
		// flight; let it run instead of rewinding (suppression).
		return &Result{}, nil
	}
	l.retxSeq = start
	l.retxEnd = l.flushSeq
	return &Result{}, nil
}
