package core

// Tests for the pipelined replication path (repl.go): enclaves wired
// directly (no simulator), with the test driving the flusher by hand so
// batching, windowing, release ordering, and the hardening against
// forged/replayed frames are all observable step by step.

import (
	"math"
	"strings"
	"testing"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/tee"
	"teechain/internal/wire"
)

// directWorld wires enclaves to each other without a simulator: every
// outbound message is queued and delivered synchronously by pump, and
// the replication log is flushed only when the test says so — exactly a
// socket host's flusher, minus the socket.
type directWorld struct {
	t     *testing.T
	encs  map[cryptoutil.PublicKey]*Enclave
	queue []Outbound
	from  []cryptoutil.PublicKey
	// events records boxed events per enclave identity, in order.
	events map[cryptoutil.PublicKey][]Event
	// wire records every replication frame delivered, for replay tests.
	replFrames []wire.Message
}

func newDirectWorld(t *testing.T) *directWorld {
	return &directWorld{
		t:      t,
		encs:   make(map[cryptoutil.PublicKey]*Enclave),
		events: make(map[cryptoutil.PublicKey][]Event),
	}
}

func (w *directWorld) enclave(auth *tee.Authority, name string) *Enclave {
	w.t.Helper()
	wallet, err := cryptoutil.GenerateKeyPair(cryptoutil.NewDeterministicReader([]byte("wallet"), []byte(name)))
	if err != nil {
		w.t.Fatal(err)
	}
	e, err := NewEnclave(tee.NewPlatform(auth, name), auth.PublicKey(), Config{
		MinConfirmations: 1,
		PayoutKey:        wallet.Public(),
	})
	if err != nil {
		w.t.Fatal(err)
	}
	w.encs[e.Identity()] = e
	return e
}

// dispatch queues a result's outbound messages and records its events.
func (w *directWorld) dispatch(from *Enclave, res *Result, err error) {
	w.t.Helper()
	if err != nil {
		w.t.Fatalf("dispatch from %s: %v", from.Identity(), err)
	}
	if res == nil {
		return
	}
	for _, out := range res.Out {
		w.queue = append(w.queue, out)
		w.from = append(w.from, from.Identity())
	}
	id := from.Identity()
	res.ForEachEvent(func(ev Event) { w.events[id] = append(w.events[id], ev) })
}

// pump delivers queued messages until the network is quiet. Events from
// receivers are recorded; channel requests are auto-accepted and
// deposit approvals auto-confirmed, like a host would.
func (w *directWorld) pump() {
	w.t.Helper()
	for len(w.queue) > 0 {
		out, from := w.queue[0], w.from[0]
		w.queue, w.from = w.queue[1:], w.from[1:]
		e, ok := w.encs[out.To]
		if !ok {
			w.t.Fatalf("no enclave for %s", out.To)
		}
		switch out.Msg.(type) {
		case *wire.ReplUpdate, *wire.ReplAck, *wire.ReplBatch, *wire.ReplBatchAck:
			w.replFrames = append(w.replFrames, out.Msg)
		}
		res, err := e.HandleMessage(from, out.Msg)
		w.dispatch(e, res, err)
		w.hostReactions(e)
	}
}

// hostReactions plays the host's role for events that need an answer.
func (w *directWorld) hostReactions(e *Enclave) {
	w.t.Helper()
	id := e.Identity()
	pending := w.events[id]
	w.events[id] = nil
	for _, ev := range pending {
		switch ev := ev.(type) {
		case EvChannelRequest:
			res, err := e.AcceptChannel(ev.Channel, ev.Remote, ev.RemoteAddr, e.cfg.PayoutKey.Address(), false)
			w.dispatch(e, res, err)
		case EvDepositApprovalNeeded:
			res, err := e.ConfirmRemoteDeposit(ev.Remote, ev.Deposit, 1)
			w.dispatch(e, res, err)
		}
	}
}

// connect runs mutual attestation between two enclaves.
func (w *directWorld) connect(a, b *Enclave) {
	w.t.Helper()
	res, err := a.StartAttest(b.Identity())
	w.dispatch(a, res, err)
	r1, err := a.RegisterPayoutKey(b.cfg.PayoutKey)
	w.dispatch(a, r1, err)
	r2, err := b.RegisterPayoutKey(a.cfg.PayoutKey)
	w.dispatch(b, r2, err)
	w.pump()
	if !a.SessionEstablished(b.Identity()) || !b.SessionEstablished(a.Identity()) {
		w.t.Fatal("attestation did not complete")
	}
}

// flushOnce drains at most one frame from e's replication log.
func (w *directWorld) flushOnce(e *Enclave, batch *wire.ReplBatch, maxOps, window int) int {
	w.t.Helper()
	to, msg, n := e.ReplNextFlush(batch, maxOps, window)
	if n == 0 {
		return 0
	}
	w.queue = append(w.queue, Outbound{To: to, Msg: msg})
	w.from = append(w.from, e.Identity())
	w.pump()
	return n
}

// settle flushes and pumps until both the network and e's replication
// log are fully drained.
func (w *directWorld) settle(e *Enclave) {
	w.t.Helper()
	var batch wire.ReplBatch
	for i := 0; i < 10_000; i++ {
		w.pump()
		if w.flushOnce(e, &batch, wire.MaxReplBatch, 1<<20) == 0 {
			return
		}
	}
	w.t.Fatal("replication log never drained")
}

// eventsOf drains and returns the recorded events for an enclave.
func (w *directWorld) eventsOf(e *Enclave) []Event {
	evs := w.events[e.Identity()]
	w.events[e.Identity()] = nil
	return evs
}

// pipeFund is the owner-side channel funding in pipelinedPair; larger
// than replMaxPending so the backlog test hits the log bound before the
// balance bound.
const pipeFund = chain.Amount(1 << 18)

// pipelinedPair builds owner (pipelined committee with member m1) and
// counterparty bob with a funded channel: owner side pipeFund.
func pipelinedPair(t *testing.T) (*directWorld, *Enclave, *Enclave, *Enclave, wire.ChannelID) {
	t.Helper()
	w := newDirectWorld(t)
	auth, err := tee.NewAuthority("repl-test")
	if err != nil {
		t.Fatal(err)
	}
	owner := w.enclave(auth, "owner")
	m1 := w.enclave(auth, "m1")
	bob := w.enclave(auth, "bob")
	w.connect(owner, m1)
	w.connect(owner, bob)

	// What a socket host does at construction: from here on every chain
	// this enclave forms is pipelined.
	if err := owner.EnableConcurrentHost(nil); err != nil {
		t.Fatal(err)
	}
	res, err := owner.FormCommittee([]cryptoutil.PublicKey{m1.Identity()}, 2)
	w.dispatch(owner, res, err)
	w.pump()
	if !owner.CommitteeReady() {
		t.Fatal("committee never became ready")
	}
	if !owner.repl.log.pipelined {
		t.Fatal("a concurrent host's chain is not pipelined")
	}

	// Fund a channel owner->bob through the full approval dance; every
	// owner-side commit rides the pipelined log.
	id := wire.ChannelID("ch-repl")
	res, err = owner.OpenChannel(id, bob.Identity(), owner.cfg.PayoutKey.Address(), false)
	w.dispatch(owner, res, err)
	w.settle(owner)

	script, err := owner.NewDepositScript()
	if err != nil {
		t.Fatal(err)
	}
	point := chain.OutPoint{Tx: chain.TxID{0xd0}, Index: 0}
	res, err = owner.RegisterDeposit(owner.DepositInfoFor(point, pipeFund, script))
	w.dispatch(owner, res, err)
	w.settle(owner)
	res, err = owner.RequestDepositApproval(bob.Identity(), point)
	w.dispatch(owner, res, err)
	w.settle(owner)
	res, err = owner.AssociateDeposit(id, point)
	w.dispatch(owner, res, err)
	w.settle(owner)

	c := owner.State().Channels[id]
	if c == nil || !c.Open || c.MyBal != pipeFund {
		t.Fatalf("channel not funded: %+v", c)
	}
	return w, owner, m1, bob, id
}

// TestConcurrentHostRefusesLaneDisqualifyingConfig: outsourcing funnels
// payment commits through shared state, so it cannot be combined with
// concurrent lanes, and the refusal happens at construction — there is
// no per-message eligibility question left to ask.
func TestConcurrentHostRefusesLaneDisqualifyingConfig(t *testing.T) {
	auth, err := tee.NewAuthority("repl-test")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MinConfirmations: 1, AllowOutsource: true}
	e, err := NewEnclave(tee.NewPlatform(auth, "outsourcing"), auth.PublicKey(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableConcurrentHost(nil); err == nil {
		t.Error("EnableConcurrentHost accepted an outsourcing Config")
	}
}

func TestPipelinedPaymentsBatchAndReleaseInOrder(t *testing.T) {
	w, owner, m1, bob, id := pipelinedPair(t)

	// Issue 10 payments: commits succeed immediately, but nothing may
	// reach bob until the chain acknowledges.
	for i := 0; i < 10; i++ {
		res, err := owner.Pay(id, chain.Amount(i+1), 1)
		w.dispatch(owner, res, err)
	}
	w.pump()
	if got := bob.State().Channels[id].RemoteBal; got != pipeFund {
		t.Fatalf("bob saw balance movement before replication ack: %d", got)
	}
	st, _ := owner.ReplStats()
	if st.Queued != 10 {
		t.Fatalf("queued %d ops, want 10", st.Queued)
	}

	// One flush must carry all 10 ops in one batch and, after the
	// cumulative ack, release all 10 Pay messages in issue order.
	var batch wire.ReplBatch
	if n := w.flushOnce(owner, &batch, wire.MaxReplBatch, 1<<20); n != 10 {
		t.Fatalf("flushed %d ops, want 10", n)
	}
	if owner.State().Channels[id].MyBal != pipeFund-55 {
		t.Fatalf("owner balance %d", owner.State().Channels[id].MyBal)
	}
	if got := bob.State().Channels[id].MyBal; got != 55 {
		t.Fatalf("bob credited %d, want 55 after release", got)
	}
	mirror, ok := m1.MirrorState(owner.ChainID())
	if !ok {
		t.Fatal("no mirror")
	}
	if mc := mirror.Channels[id]; mc.MyBal != pipeFund-55 || mc.RemoteBal != 55 {
		t.Fatalf("mirror balances %d/%d", mc.MyBal, mc.RemoteBal)
	}
	st, _ = owner.ReplStats()
	if st.Queued != 0 || st.Window != 0 || st.AckSeq != st.NextSeq {
		t.Fatalf("log not drained: %+v", st)
	}
}

func TestPipelinedWindowBoundsFlushing(t *testing.T) {
	w, owner, _, _, id := pipelinedPair(t)
	for i := 0; i < 8; i++ {
		res, err := owner.Pay(id, 1, 1)
		w.dispatch(owner, res, err)
	}
	// A window of 4 admits one 4-op batch; with the ack not yet
	// processed the second flush must be held back.
	var batch wire.ReplBatch
	to, msg, n := owner.ReplNextFlush(&batch, 4, 4)
	if n != 4 {
		t.Fatalf("first flush %d ops, want 4", n)
	}
	if _, _, n2 := owner.ReplNextFlush(&batch, 4, 4); n2 != 0 {
		t.Fatalf("window-full flush returned %d ops, want 0", n2)
	}
	// Deliver the batch; the cumulative ack frees the window.
	w.queue = append(w.queue, Outbound{To: to, Msg: msg})
	w.from = append(w.from, owner.Identity())
	w.pump()
	if _, _, n3 := owner.ReplNextFlush(&batch, 4, 4); n3 != 4 {
		t.Fatalf("post-ack flush %d ops, want 4", n3)
	}
}

func TestReplRewindFlushReoffersOps(t *testing.T) {
	w, owner, _, _, id := pipelinedPair(t)
	for i := 0; i < 3; i++ {
		res, err := owner.Pay(id, chain.Amount(i+1), 1)
		w.dispatch(owner, res, err)
	}
	// Flush without delivering (the host's queue was full), rewind, and
	// flush again: the exact same run must be re-offered.
	var batch wire.ReplBatch
	_, _, n := owner.ReplNextFlush(&batch, wire.MaxReplBatch, 1<<20)
	if n != 3 {
		t.Fatalf("flushed %d ops, want 3", n)
	}
	first, ops := batch.FirstSeq, append([]wire.ReplBatchOp(nil), batch.Ops...)
	owner.ReplRewind(&batch, n)
	to, msg, n2 := owner.ReplNextFlush(&batch, wire.MaxReplBatch, 1<<20)
	if n2 != 3 || batch.FirstSeq != first {
		t.Fatalf("re-flush: %d ops from seq %d, want 3 from %d", n2, batch.FirstSeq, first)
	}
	for i := range ops {
		if batch.Ops[i] != ops[i] {
			t.Fatalf("re-flushed op %d differs: %+v vs %+v", i, batch.Ops[i], ops[i])
		}
	}
	// Delivering the re-flushed batch completes the payments normally.
	w.queue = append(w.queue, Outbound{To: to, Msg: msg})
	w.from = append(w.from, owner.Identity())
	w.pump()
	st, _ := owner.ReplStats()
	if st.AckSeq != st.NextSeq {
		t.Fatalf("log not drained after re-flush: %+v", st)
	}
}

// TestReplRewindRetxReoffersSameSeqs: a retransmitted frame that never
// left the host rewinds the retransmit cursor, so the next flush
// re-serves exactly the same sequence numbers, and a rewind never takes
// the cursor below the committee's ack.
func TestReplRewindRetxReoffersSameSeqs(t *testing.T) {
	w, owner, m1, _, id := pipelinedPair(t)
	for i := 0; i < 6; i++ {
		res, err := owner.Pay(id, 10, 1)
		w.dispatch(owner, res, err)
	}
	// Lose the first 3-op batch and deliver the second: the mirror's
	// gap NACK schedules a retransmission of the whole window.
	var lost wire.ReplBatch
	if _, _, n := owner.ReplNextFlush(&lost, 3, 1<<20); n != 3 {
		t.Fatalf("stole %d ops, want 3", n)
	}
	base := lost.FirstSeq
	var batch wire.ReplBatch
	if n := w.flushOnce(owner, &batch, 3, 1<<20); n != 3 {
		t.Fatalf("flushed %d ops, want 3", n)
	}
	if st, _ := owner.ReplStats(); st.NacksIn == 0 {
		t.Fatalf("owner never saw the gap NACK: %+v", st)
	}

	// Take a 2-op retransmission, fail to send it, rewind it.
	var retx wire.ReplBatch
	_, msg, n := owner.ReplNextFlush(&retx, 2, 1<<20)
	if n != 2 || !retx.Retx || retx.FirstSeq != base {
		t.Fatalf("retransmission: %d ops from seq %d (retx %v), want 2 from %d", n, retx.FirstSeq, retx.Retx, base)
	}
	ops := append([]wire.ReplBatchOp(nil), retx.Ops...)
	flushSeq := owner.repl.log.flushSeq
	owner.ReplRewind(msg, n)
	if got := owner.repl.log.flushSeq; got != flushSeq {
		t.Fatalf("retransmit rewind moved the flush cursor %d -> %d", flushSeq, got)
	}
	to, msg, n := owner.ReplNextFlush(&retx, 2, 1<<20)
	if n != 2 || !retx.Retx || retx.FirstSeq != base {
		t.Fatalf("re-serve: %d ops from seq %d (retx %v), want 2 from %d", n, retx.FirstSeq, retx.Retx, base)
	}
	for i := range ops {
		if retx.Ops[i] != ops[i] {
			t.Fatalf("re-served op %d differs: %+v vs %+v", i, retx.Ops[i], ops[i])
		}
	}

	// Deliver it: the mirror acks through base+1. Rewinding the frame
	// now would cross that ack, so the cursor stays.
	w.queue = append(w.queue, Outbound{To: to, Msg: msg})
	w.from = append(w.from, owner.Identity())
	w.pump()
	if st, _ := owner.ReplStats(); st.AckSeq != base+1 {
		t.Fatalf("ack through %d, want %d", st.AckSeq, base+1)
	}
	owner.ReplRewind(msg, n)
	if l := owner.repl.log; l.retxSeq < l.ackSeq {
		t.Fatalf("rewind took the retransmit cursor to %d, below the ack %d", l.retxSeq, l.ackSeq)
	}
	if _, _, n := owner.ReplNextFlush(&retx, 2, 1<<20); n == 0 || retx.FirstSeq != base+2 {
		t.Fatalf("after the ack: %d ops from seq %d, want the retransmission to resume at %d", n, retx.FirstSeq, base+2)
	}
	owner.ReplRewind(&retx, n)
	w.settle(owner)
	st, _ := owner.ReplStats()
	if st.AckSeq != st.NextSeq {
		t.Fatalf("log never converged: %+v", st)
	}
	mirror, _ := m1.MirrorState(owner.ChainID())
	if mc := mirror.Channels[id]; mc.MyBal != pipeFund-60 || mc.RemoteBal != 60 {
		t.Fatalf("mirror did not converge: %d/%d", mc.MyBal, mc.RemoteBal)
	}
}

func TestPipelinedColdOpsFlushSolo(t *testing.T) {
	w, owner, _, bob, _ := pipelinedPair(t)
	// A second channel open is a cold (non-payment) op: it must flush as
	// a classic per-sequence ReplUpdate, not a batch.
	res, err := owner.OpenChannel("ch-2", bob.Identity(), owner.cfg.PayoutKey.Address(), false)
	w.dispatch(owner, res, err)
	var batch wire.ReplBatch
	_, msg, n := owner.ReplNextFlush(&batch, wire.MaxReplBatch, 1<<20)
	if n != 1 {
		t.Fatalf("cold flush %d ops, want 1", n)
	}
	if _, ok := msg.(*wire.ReplUpdate); !ok {
		t.Fatalf("cold op flushed as %T, want *wire.ReplUpdate", msg)
	}
}

func TestReplBatchDuplicateDroppedWithoutFreeze(t *testing.T) {
	w, owner, m1, _, id := pipelinedPair(t)
	for i := 0; i < 3; i++ {
		res, err := owner.Pay(id, 10, 1)
		w.dispatch(owner, res, err)
	}
	w.settle(owner)
	// Find the delivered batch and replay it: a redelivered frame after
	// a connection handover must be dropped, not applied, not frozen.
	var replayed *wire.ReplBatch
	for _, m := range w.replFrames {
		if b, ok := m.(*wire.ReplBatch); ok {
			replayed = b
		}
	}
	if replayed == nil {
		t.Fatal("no ReplBatch was delivered")
	}
	mirror, _ := m1.MirrorState(owner.ChainID())
	before := mirror.Channels[id].RemoteBal
	_, err := m1.HandleMessage(owner.Identity(), replayed)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("replayed batch: err=%v, want duplicate rejection", err)
	}
	if mirror.Frozen {
		t.Fatal("duplicate batch froze the chain")
	}
	if got := mirror.Channels[id].RemoteBal; got != before {
		t.Fatalf("duplicate batch moved mirror balance %d -> %d", before, got)
	}
}

// TestReplBatchGapNacksAndRecovers is the tentpole behavior change of
// self-healing replication: a lost batch no longer freezes the chain.
// The mirror buffers the ahead-of-sequence frame, NACKs the gap, the
// owner retransmits the missing range from its log (Retx-flagged), and
// the chain converges with no freeze and no lost payments.
func TestReplBatchGapNacksAndRecovers(t *testing.T) {
	w, owner, m1, _, id := pipelinedPair(t)
	base, _ := owner.ReplStats()
	for i := 0; i < 6; i++ {
		res, err := owner.Pay(id, 10, 1)
		w.dispatch(owner, res, err)
	}
	// Steal the first 3-op batch off the flush cursor (the frame is
	// "lost"), then deliver the second batch: the mirror sees a gap.
	var lost wire.ReplBatch
	if _, _, n := owner.ReplNextFlush(&lost, 3, 1<<20); n != 3 {
		t.Fatalf("stole %d ops, want 3", n)
	}
	var batch wire.ReplBatch
	if n := w.flushOnce(owner, &batch, 3, 1<<20); n != 3 {
		t.Fatalf("flushed %d ops, want 3", n)
	}
	// The gap must not have frozen anything; the NACK (delivered by the
	// pump) scheduled a retransmission the next flush serves.
	mirror, _ := m1.MirrorState(owner.ChainID())
	if mirror.Frozen || owner.State().Frozen {
		t.Fatal("sequence gap froze the chain")
	}
	st, _ := owner.ReplStats()
	if st.NacksIn == 0 {
		t.Fatalf("owner never saw the gap NACK: %+v", st)
	}
	w.settle(owner)
	st, _ = owner.ReplStats()
	if st.AckSeq != st.NextSeq {
		t.Fatalf("log never converged after retransmission: %+v", st)
	}
	if st.Retransmits < 3 {
		t.Fatalf("retransmitted %d ops, want >= 3", st.Retransmits)
	}
	if mc := mirror.Channels[id]; mc.MyBal != pipeFund-60 || mc.RemoteBal != 60 {
		t.Fatalf("mirror did not converge: %d/%d (acked from %d)", mc.MyBal, mc.RemoteBal, base.AckSeq)
	}
}

// TestReplReorderedBatchesDrainWithoutRetransmit pins the reorder
// buffer: two batches delivered out of order converge through the held
// buffer alone — the NACK's retransmission is never needed because the
// "missing" frame arrives right behind.
func TestReplReorderedBatchesDrainWithoutRetransmit(t *testing.T) {
	w, owner, m1, _, id := pipelinedPair(t)
	for i := 0; i < 6; i++ {
		res, err := owner.Pay(id, 5, 1)
		w.dispatch(owner, res, err)
	}
	var a, b wire.ReplBatch
	toA, _, n1 := owner.ReplNextFlush(&a, 3, 1<<20)
	if n1 != 3 {
		t.Fatalf("first flush %d, want 3", n1)
	}
	_, _, n2 := owner.ReplNextFlush(&b, 3, 1<<20)
	if n2 != 3 {
		t.Fatalf("second flush %d, want 3", n2)
	}
	// Deliver B before A (reordered link).
	w.queue = append(w.queue, Outbound{To: toA, Msg: &b})
	w.from = append(w.from, owner.Identity())
	w.pump()
	w.queue = append(w.queue, Outbound{To: toA, Msg: &a})
	w.from = append(w.from, owner.Identity())
	w.pump()
	mirror, _ := m1.MirrorState(owner.ChainID())
	if mirror.Frozen {
		t.Fatal("reordered delivery froze the chain")
	}
	st, _ := owner.ReplStats()
	if st.AckSeq != st.NextSeq {
		t.Fatalf("reordered batches never converged: %+v", st)
	}
	if st.Retransmits != 0 {
		t.Fatalf("in-window reorder retransmitted %d ops, want 0", st.Retransmits)
	}
	if mc := mirror.Channels[id]; mc.MyBal != pipeFund-30 || mc.RemoteBal != 30 {
		t.Fatalf("mirror balances %d/%d", mc.MyBal, mc.RemoteBal)
	}
}

// TestReplNackSuppression: redelivering the same ahead-of-sequence
// frame must not emit a NACK per arrival — only when the wanted
// sequence changes or the re-arm threshold hits.
func TestReplNackSuppression(t *testing.T) {
	w, owner, m1, _, id := pipelinedPair(t)
	for i := 0; i < 4; i++ {
		res, err := owner.Pay(id, 1, 1)
		w.dispatch(owner, res, err)
	}
	var lost, ahead wire.ReplBatch
	if _, _, n := owner.ReplNextFlush(&lost, 2, 1<<20); n != 2 {
		t.Fatal("steal failed")
	}
	if _, _, n := owner.ReplNextFlush(&ahead, 2, 1<<20); n != 2 {
		t.Fatal("flush failed")
	}
	res, err := m1.HandleMessage(owner.Identity(), &ahead)
	if err != nil {
		t.Fatalf("ahead-of-sequence frame: %v", err)
	}
	if got := len(res.Out); got != 1 {
		t.Fatalf("first gap emitted %d messages, want 1 NACK", got)
	}
	if _, ok := res.Out[0].Msg.(*wire.ReplNack); !ok {
		t.Fatalf("gap emitted %T, want *wire.ReplNack", res.Out[0].Msg)
	}
	// Same frame again: held already, same wanted seq — suppressed.
	res, err = m1.HandleMessage(owner.Identity(), &ahead)
	if err != nil {
		t.Fatalf("redelivered ahead frame: %v", err)
	}
	if len(res.Out) != 0 {
		t.Fatalf("suppressed redelivery still emitted %d messages", len(res.Out))
	}
}

// TestReplConflictingPayloadFreezes is the genuine-divergence guard:
// a frame overlapping already-applied sequences with a DIFFERENT
// payload is not message loss but state forking, and must freeze.
func TestReplConflictingPayloadFreezes(t *testing.T) {
	w, owner, m1, _, id := pipelinedPair(t)
	for i := 0; i < 3; i++ {
		res, err := owner.Pay(id, 10, 1)
		w.dispatch(owner, res, err)
	}
	w.settle(owner)
	st, _ := owner.ReplStats()
	// Overlap the last applied sequence with a different amount.
	forged := &wire.ReplBatch{
		Chain:    owner.ChainID(),
		FirstSeq: st.AckSeq,
		Retx:     true,
		Ops: []wire.ReplBatchOp{
			{Kind: wire.ReplOpPaySend, Channel: id, Amount: 999, Count: 1},
			{Kind: wire.ReplOpPaySend, Channel: id, Amount: 1, Count: 1},
		},
	}
	res, err := m1.HandleMessage(owner.Identity(), forged)
	if err != nil {
		t.Fatalf("conflicting batch returned transport error: %v", err)
	}
	frozen := false
	res.ForEachEvent(func(ev Event) {
		if _, ok := ev.(EvFrozen); ok {
			frozen = true
		}
	})
	if !frozen {
		t.Fatal("conflicting payload at a committed sequence did not freeze the chain")
	}
}

// TestReplRetxDuplicateRepairsLostAck: a Retx-flagged whole-duplicate
// batch means the primary never saw our ack — the mirror re-emits the
// cumulative ack instead of dropping the frame as noise.
func TestReplRetxDuplicateRepairsLostAck(t *testing.T) {
	w, owner, m1, _, id := pipelinedPair(t)
	for i := 0; i < 3; i++ {
		res, err := owner.Pay(id, 10, 1)
		w.dispatch(owner, res, err)
	}
	w.settle(owner)
	var replayed *wire.ReplBatch
	for _, m := range w.replFrames {
		if bb, ok := m.(*wire.ReplBatch); ok {
			replayed = bb
		}
	}
	if replayed == nil {
		t.Fatal("no ReplBatch was delivered")
	}
	cp := *replayed
	cp.Retx = true
	res, err := m1.HandleMessage(owner.Identity(), &cp)
	if err != nil {
		t.Fatalf("retx duplicate rejected: %v", err)
	}
	if len(res.Out) != 1 {
		t.Fatalf("retx duplicate emitted %d messages, want 1 ack", len(res.Out))
	}
	ack, ok := res.Out[0].Msg.(*wire.ReplBatchAck)
	if !ok {
		t.Fatalf("retx duplicate answered with %T, want *wire.ReplBatchAck", res.Out[0].Msg)
	}
	mirror, _ := m1.MirrorState(owner.ChainID())
	if mirror.Frozen {
		t.Fatal("retx duplicate froze the chain")
	}
	st, _ := owner.ReplStats()
	if ack.Seq != st.AckSeq {
		t.Fatalf("repair ack covers %d, mirror has %d", ack.Seq, st.AckSeq)
	}
}

// TestReplCumulativeAckClampsAtPendingTau: a cumulative ReplBatchAck
// that overtakes a lost per-sequence ReplAck must not release a
// sign-stage entry whose committee τ signatures are still unfolded —
// the ack cursor clamps there until the per-seq ack (recovered by
// retransmission in production) delivers the signatures.
func TestReplCumulativeAckClampsAtPendingTau(t *testing.T) {
	w, owner, m1, _, id := pipelinedPair(t)
	for i := 0; i < 4; i++ {
		res, err := owner.Pay(id, 1, 1)
		w.dispatch(owner, res, err)
	}
	l := owner.repl.log
	l.mu.Lock()
	clampSeq := l.ackSeq + 2
	l.entryAtLocked(clampSeq).tauPending = true
	l.mu.Unlock()
	var batch wire.ReplBatch
	if _, _, n := owner.ReplNextFlush(&batch, wire.MaxReplBatch, 1<<20); n != 4 {
		t.Fatalf("flushed %d ops, want 4", n)
	}
	st, _ := owner.ReplStats()
	res, err := owner.HandleMessage(m1.Identity(), &wire.ReplBatchAck{Chain: owner.ChainID(), Seq: st.FlushSeq})
	w.dispatch(owner, res, err)
	st, _ = owner.ReplStats()
	if st.AckSeq != clampSeq-1 {
		t.Fatalf("cumulative ack released past the pending-τ entry: ackSeq %d, want %d", st.AckSeq, clampSeq-1)
	}
	// The recovered per-sequence ack folds the (empty) signature set and
	// unclamps; the cursor resumes to the recorded cumulative high mark.
	res, err = owner.HandleMessage(m1.Identity(), &wire.ReplAck{Chain: owner.ChainID(), Seq: clampSeq})
	w.dispatch(owner, res, err)
	w.pump()
	st, _ = owner.ReplStats()
	if st.AckSeq != st.FlushSeq {
		t.Fatalf("per-seq ack did not resume the cursor: %+v", st)
	}
}

func TestReplBatchForgedOpsFreeze(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   wire.ReplBatchOp
	}{
		{"negative amount", wire.ReplBatchOp{Kind: wire.ReplOpPayRecv, Channel: "ch-repl", Amount: -5, Count: 1}},
		{"zero amount", wire.ReplBatchOp{Kind: wire.ReplOpPaySend, Channel: "ch-repl", Amount: 0, Count: 1}},
		{"overflow amount", wire.ReplBatchOp{Kind: wire.ReplOpPaySend, Channel: "ch-repl", Amount: math.MaxInt64, Count: 1}},
		{"bad kind", wire.ReplBatchOp{Kind: 77, Channel: "ch-repl", Amount: 1, Count: 1}},
		{"bad count", wire.ReplBatchOp{Kind: wire.ReplOpPaySend, Channel: "ch-repl", Amount: 1, Count: 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, owner, m1, _, _ := pipelinedPair(t)
			st, _ := owner.ReplStats()
			forged := &wire.ReplBatch{
				Chain:    owner.ChainID(),
				FirstSeq: st.AckSeq + 1,
				Ops:      []wire.ReplBatchOp{tc.op},
			}
			res, err := m1.HandleMessage(owner.Identity(), forged)
			if err != nil {
				t.Fatalf("forged batch returned transport error: %v", err)
			}
			frozen := false
			res.ForEachEvent(func(ev Event) {
				if _, ok := ev.(EvFrozen); ok {
					frozen = true
				}
			})
			if !frozen {
				t.Fatal("forged batch op did not freeze the chain")
			}
			mirror, _ := m1.MirrorState(owner.ChainID())
			if mc := mirror.Channels["ch-repl"]; mc.MyBal+mc.RemoteBal != pipeFund {
				t.Fatalf("forged op corrupted mirror: %d/%d", mc.MyBal, mc.RemoteBal)
			}
		})
	}
}

func TestReplBatchAckHardening(t *testing.T) {
	w, owner, m1, _, id := pipelinedPair(t)
	for i := 0; i < 4; i++ {
		res, err := owner.Pay(id, 1, 1)
		w.dispatch(owner, res, err)
	}
	var batch wire.ReplBatch
	to, msg, n := owner.ReplNextFlush(&batch, 2, 1<<20)
	if n != 2 {
		t.Fatalf("flushed %d, want 2", n)
	}
	st, _ := owner.ReplStats()

	// A forged ack beyond what was flushed must not release anything.
	if _, err := owner.HandleMessage(m1.Identity(), &wire.ReplBatchAck{Chain: owner.ChainID(), Seq: st.FlushSeq + 2}); err == nil {
		t.Fatal("accepted cumulative ack beyond the flushed window")
	}
	// A stale (already-acknowledged) ack is rejected too.
	if _, err := owner.HandleMessage(m1.Identity(), &wire.ReplBatchAck{Chain: owner.ChainID(), Seq: st.AckSeq}); err == nil {
		t.Fatal("accepted stale cumulative ack")
	}
	// Deliver the real batch; the genuine cumulative ack still works.
	w.queue = append(w.queue, Outbound{To: to, Msg: msg})
	w.from = append(w.from, owner.Identity())
	w.pump()
	st2, _ := owner.ReplStats()
	if st2.AckSeq != st.FlushSeq {
		t.Fatalf("genuine ack did not advance: %+v", st2)
	}
}

func TestReplUpdateDuplicateDroppedWithoutFreeze(t *testing.T) {
	w, owner, m1, bob, _ := pipelinedPair(t)
	// Cold op -> solo ReplUpdate; replaying it must be dropped, not
	// frozen (exactly-next discipline with redelivery tolerance).
	res, err := owner.OpenChannel("ch-dup", bob.Identity(), owner.cfg.PayoutKey.Address(), false)
	w.dispatch(owner, res, err)
	w.settle(owner)
	var update *wire.ReplUpdate
	for _, m := range w.replFrames {
		if u, ok := m.(*wire.ReplUpdate); ok {
			update = u
		}
	}
	if update == nil {
		t.Fatal("no solo ReplUpdate was delivered")
	}
	if _, err := m1.HandleMessage(owner.Identity(), update); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("replayed update: err=%v, want duplicate rejection", err)
	}
	mirror, _ := m1.MirrorState(owner.ChainID())
	if mirror.Frozen {
		t.Fatal("duplicate update froze the chain")
	}
}

func TestPipelinedBacklogBoundsCommits(t *testing.T) {
	w, owner, _, _, id := pipelinedPair(t)
	// Fill the backlog without ever flushing: commits must eventually be
	// refused instead of growing the log without bound. Payments of the
	// minimum amount keep the channel solvent throughout.
	var refused error
	for i := 0; i < replMaxPending+10; i++ {
		res, err := owner.Pay(id, 1, 1)
		if err != nil {
			refused = err
			break
		}
		w.dispatch(owner, res, nil)
	}
	if refused == nil {
		t.Fatal("backlog never refused a commit")
	}
	if !strings.Contains(refused.Error(), "backlog") {
		t.Fatalf("unexpected refusal: %v", refused)
	}
}
