package core

import (
	"sync"

	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// hotPools recycles the objects a payment allocates on its way through
// the stack — the replicated Op, the wire message, the Result
// aggregate, and the host Envelope (whose Token and Payload buffers
// double as the token and encoding scratch space). Each is alive only from one enclave
// entry point to the next simulator event, so with the pools the
// steady-state payment path allocates nothing except event boxing; see
// DESIGN.md §6 for the ownership rules.
//
// One hotPools instance is shared by every node of a deployment (via
// its Directory). Simulated deployments run on a single goroutine, so
// the freelists are plain by default; a socket host whose payment lanes
// run concurrently (see concurrent.go) calls setShared once at startup,
// after which every get/put takes the pool mutex. The lock is a few
// tens of nanoseconds against the microseconds a socket payment costs,
// so it is not the lane-scaling bottleneck — and the sim path pays only
// a predicted-false branch (no defer: these bodies cannot panic between
// lock and unlock).
type hotPools struct {
	// shared is set once, before any concurrency exists, and read-only
	// afterwards.
	shared bool
	mu     sync.Mutex

	envs        []*Envelope
	results     []*Result
	ops         []*Op
	pays        []*wire.Pay
	acks        []*wire.PayAck
	batches     []*wire.PayBatch
	batchAcks   []*wire.PayBatchAck
	replUpdates []*wire.ReplUpdate
	replAcks    []*wire.ReplAck
	replBatches []*wire.ReplBatch
	replBAcks   []*wire.ReplBatchAck
}

func newHotPools() *hotPools { return &hotPools{} }

// setShared switches the pools to mutex-guarded mode. Must be called
// before the deployment spawns any goroutine that touches them.
func (p *hotPools) setShared() { p.shared = true }

// lock/unlock keep the mutex operations out of line so that the
// non-shared (simulator) path inlines to a single predicted-false
// branch at every call site — the sim's zero-alloc hot path must not
// pay function-call overhead for a lock it never takes.
func (p *hotPools) lock() {
	if p.shared {
		p.lockSlow()
	}
}

func (p *hotPools) unlock() {
	if p.shared {
		p.unlockSlow()
	}
}

//go:noinline
func (p *hotPools) lockSlow() { p.mu.Lock() }

//go:noinline
func (p *hotPools) unlockSlow() { p.mu.Unlock() }

// take pops a recycled object off one of p's freelists, or returns a
// new zero one when the list is empty. Objects return to their list
// through the put and recycle functions, which reset them first.
func take[T any](p *hotPools, free *[]*T) *T {
	p.lock()
	var m *T
	if k := len(*free); k > 0 {
		m = (*free)[k-1]
		*free = (*free)[:k-1]
	} else {
		m = new(T)
	}
	p.unlock()
	return m
}

// getResult returns an empty pooled Result. Results obtained here are
// recycled by Node.dispatch after their contents are consumed; only
// construct one per enclave return value, never retain it.
func (p *hotPools) getResult() *Result {
	r := take(p, &p.results)
	r.pooled = true
	return r
}

// putResult recycles a Result previously obtained from getResult.
// Results built with plain literals (pooled == false) pass through
// untouched, so cold paths may keep references to theirs.
func (p *hotPools) putResult(r *Result) {
	if r == nil || !r.pooled {
		return
	}
	p.lock()
	p.putResultLocked(r)
	p.unlock()
}

func (p *hotPools) putResultLocked(r *Result) {
	for i := range r.Out {
		r.Out[i] = Outbound{}
	}
	for i := range r.Events {
		r.Events[i] = nil
	}
	r.Out = r.Out[:0]
	r.Events = r.Events[:0]
	r.pay = payEvent{}
	p.results = append(p.results, r)
}

// getOp returns a zeroed Op for a hot-path state transition. commitFast
// recycles it once nothing retains it (on commit when unreplicated,
// otherwise when the replication ack releases the pending update).
func (p *hotPools) getOp() *Op { return take(p, &p.ops) }

func (p *hotPools) putOp(op *Op) {
	*op = Op{}
	p.lock()
	p.ops = append(p.ops, op)
	p.unlock()
}

// RecycleResult returns a Result obtained from an enclave entry point
// (and any poolable wire messages it carries) to the enclave's hot-path
// pools. External hosts — the socket transport — call it after fully
// consuming a result: every outbound message encoded, every event
// handled, no references retained. Node-hosted deployments recycle
// through dispatch instead and never call this. Literal (non-pooled)
// results pass through untouched, so it is always safe to call.
func (e *Enclave) RecycleResult(r *Result) {
	if r == nil || !r.pooled {
		return
	}
	p := e.pools
	p.lock()
	for i := range r.Out {
		p.recycleMsgLocked(r.Out[i].Msg)
	}
	p.putResultLocked(r)
	p.unlock()
}

// recycleMsg returns a message that never left its host to its
// freelist.
func (p *hotPools) recycleMsg(msg wire.Message) {
	p.lock()
	p.recycleMsgLocked(msg)
	p.unlock()
}

// recycleMsgLocked returns a poolable wire message to its freelist;
// non-poolable messages pass through untouched.
func (p *hotPools) recycleMsgLocked(msg wire.Message) {
	switch m := msg.(type) {
	case *wire.Pay:
		*m = wire.Pay{}
		p.pays = append(p.pays, m)
	case *wire.PayAck:
		*m = wire.PayAck{}
		p.acks = append(p.acks, m)
	case *wire.PayBatch:
		m.Channel = ""
		m.Amounts = m.Amounts[:0]
		p.batches = append(p.batches, m)
	case *wire.PayBatchAck:
		*m = wire.PayBatchAck{}
		p.batchAcks = append(p.batchAcks, m)
	case *wire.ReplUpdate:
		// The Op pointer is dropped, not recycled: it stays referenced by
		// the primary's log entry until the chain acknowledges it.
		*m = wire.ReplUpdate{}
		p.replUpdates = append(p.replUpdates, m)
	case *wire.ReplAck:
		m.Chain = ""
		m.Seq = 0
		m.TauSigs = nil // sig slices travel onward in relayed acks
		p.replAcks = append(p.replAcks, m)
	case *wire.ReplBatch:
		m.Chain, m.FirstSeq, m.Retx = "", 0, false
		m.Ops = m.Ops[:0]
		p.replBatches = append(p.replBatches, m)
	case *wire.ReplBatchAck:
		*m = wire.ReplBatchAck{}
		p.replBAcks = append(p.replBAcks, m)
	}
}

// hotOp reports whether op is one of the pay-path kinds whose Apply
// retains nothing, making the op safe to recycle.
func hotOp(op *Op) bool {
	switch op.Kind {
	case OpPaySend, OpPayRecv, OpPayRevert:
		return true
	}
	return false
}

func (p *hotPools) getPayMsg() *wire.Pay { return take(p, &p.pays) }

func (p *hotPools) getPayAckMsg() *wire.PayAck { return take(p, &p.acks) }

// getPayBatchMsg returns a PayBatch whose Amounts slice keeps capacity
// from previous journeys; append into Amounts[:0].
func (p *hotPools) getPayBatchMsg() *wire.PayBatch { return take(p, &p.batches) }

func (p *hotPools) getPayBatchAckMsg() *wire.PayBatchAck { return take(p, &p.batchAcks) }

// getReplUpdateMsg returns a zeroed ReplUpdate for solo flushes
// (ReplNextFlush) and mirror relays.
func (p *hotPools) getReplUpdateMsg() *wire.ReplUpdate { return take(p, &p.replUpdates) }

// getReplAckMsg returns a zeroed ReplAck for the backup ack path.
func (p *hotPools) getReplAckMsg() *wire.ReplAck { return take(p, &p.replAcks) }

// getReplBatchMsg returns an empty ReplBatch whose Ops slice keeps
// capacity from previous journeys.
func (p *hotPools) getReplBatchMsg() *wire.ReplBatch { return take(p, &p.replBatches) }

// replBatchCopy returns a pooled copy of m. A member relays a copy,
// never the inbound frame: the simulator recycles that with its
// envelope, and a byte transport decodes the next frame into it.
func (p *hotPools) replBatchCopy(m *wire.ReplBatch) *wire.ReplBatch {
	c := p.getReplBatchMsg()
	c.Chain, c.FirstSeq, c.Retx = m.Chain, m.FirstSeq, m.Retx
	c.Ops = append(c.Ops, m.Ops...)
	return c
}

// replBatchAck returns a pooled cumulative ack for seq on chain.
func (p *hotPools) replBatchAck(chain string, seq uint64) *wire.ReplBatchAck {
	m := take(p, &p.replBAcks)
	m.Chain, m.Seq = chain, seq
	return m
}

// getEnvelope returns an Envelope whose Token and Payload buffers may
// carry capacity from a previous journey; Envelope.seal reuses them.
func (p *hotPools) getEnvelope() *Envelope {
	env := take(p, &p.envs)
	env.pooled = true
	return env
}

// putEnvelope recycles an envelope after its receiver has fully handled
// it, along with the poolable wire messages it carried. Only envelopes
// from getEnvelope recycle — hosts send each exactly once — while
// externally constructed ones (tests model replay attacks by delivering
// one envelope twice) pass through untouched, so a duplicate delivery
// can never alias a recycled object. The flag also makes release
// idempotent.
func (p *hotPools) putEnvelope(env *Envelope) {
	if !env.pooled {
		return
	}
	env.pooled = false
	p.lock()
	p.recycleMsgLocked(env.Msg)
	env.From = cryptoutil.PublicKey{}
	env.Msg = nil
	env.Token = env.Token[:0]
	env.Code = 0
	env.Payload = env.Payload[:0]
	p.envs = append(p.envs, env)
	p.unlock()
}
