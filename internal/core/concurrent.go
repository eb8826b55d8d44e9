// Lane concurrency: the enclave-side half of the channel-sharded socket
// deployment (internal/transport).
//
// The enclave is a single-threaded state machine by design, but most of
// its state is naturally partitioned: a payment on channel A touches
// A's balances, A's peer session (freshness-token counters), and the
// hot-path pools — nothing a payment on channel B with a different peer
// needs. A socket host exploits that with two lock levels:
//
//   - a WIDE lock (the host's RWMutex held exclusively) for everything
//     that mutates shared structure: attestation and session setup,
//     channel open/close, deposits, multi-hop, replication, settlement,
//     and state inspection;
//   - per-peer LANE locks (held together with the wide lock in read
//     mode) for the payment fast path.
//
// The stripe is the *peer*, not the channel: session freshness tokens
// carry a strictly increasing per-session counter (cryptoutil.Session,
// whose receiver tolerates only window-bounded reordering), so all
// sealing and verification against one peer must stay ordered —
// and every channel belongs to exactly one peer, so per-peer
// serialization covers per-channel state too. Payments on channels with
// different peers proceed fully in parallel; payments on channels
// sharing a peer serialize on that peer's lane, which costs nothing in
// practice because they also share a TCP connection and arrive in order
// anyway.
//
// The caller's obligations for every method in this file:
//
//  1. hold the deployment's wide lock in READ mode (so session,
//     channel, and peer maps are not mutated underneath), and
//  2. hold the lane lock of the peer involved (so per-session counters
//     and per-channel balances see one writer at a time).
//
// What makes lanes safe at all — mutex-guarded pools, commits that
// append to a log behind its own mutex, no feature that funnels
// payments through shared state — is established once, by
// EnableConcurrentHost, before any concurrency exists.
package core

import (
	"errors"
	"fmt"

	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// EnableConcurrentHost prepares the enclave for a host that runs
// payment lanes concurrently (see the package comment above), once and
// for the enclave's lifetime:
//
//   - the hot-path pools become mutex-guarded;
//   - replNotify, when set, wakes the host's replication flusher after
//     every append to the log of a committee chain this enclave forms
//     (or restores). Replicated lane commits append their ops and
//     withheld effects behind the log's own mutex (repl.go), so they
//     never need the wide lock; serving as a committee BACKUP never
//     touches lanes either: mirrors only see replication frames, which
//     are wide-path messages;
//   - a Config that allows outsourcing is refused: its command relay
//     funnels payment commits through shared state, so such an enclave
//     belongs on a single-threaded host (the simulator's Node).
//
// Must be called before the host spawns any goroutine that can reach
// the enclave, and before FormCommittee or RestoreDurable.
func (e *Enclave) EnableConcurrentHost(replNotify func()) error {
	if e.cfg.AllowOutsource {
		return errors.New("core: AllowOutsource serializes payments through shared state; a concurrent host cannot run it")
	}
	e.pools.setShared()
	e.replNotify = replNotify
	return nil
}

// LaneMessage reports whether msg is one of the payment messages
// HandleLaneBound accepts.
func LaneMessage(msg wire.Message) bool {
	switch msg.(type) {
	case *wire.Pay, *wire.PayAck, *wire.PayNack, *wire.PayBatch, *wire.PayBatchAck:
		return true
	}
	return false
}

// HandleLaneBound is HandleSealedBound restricted to the payment fast
// path, subject to the lane discipline above: verification of the bound
// freshness token (it must authenticate the frame's payload bytes and
// declared type code) followed by the payment handler, touching only
// per-peer and per-channel state (plus the shared pools, which lock
// internally).
func (e *Enclave) HandleLaneBound(from cryptoutil.PublicKey, token []byte, code byte, payload []byte, msg wire.Message) (*Result, error) {
	s, err := e.session(from)
	if err != nil {
		return nil, err
	}
	if err := verifyTokenBound(s.transport, token, code, payload); err != nil {
		return nil, err
	}
	if e.state.Frozen {
		return nil, ErrFrozen
	}
	switch m := msg.(type) {
	case *wire.Pay:
		return e.handlePay(from, m)
	case *wire.PayAck:
		return e.handlePayAck(from, m)
	case *wire.PayNack:
		return e.handlePayNack(from, m)
	case *wire.PayBatch:
		return e.handlePayBatch(from, m)
	case *wire.PayBatchAck:
		return e.handlePayBatchAck(from, m)
	default:
		return nil, fmt.Errorf("core: %T is not a lane message", msg)
	}
}
