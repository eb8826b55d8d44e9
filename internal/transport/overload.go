package transport

// Overload control: payment admission at issue time, per-connection
// fair sharing of the global in-flight ceiling, and the typed
// backpressure the control plane translates into CodeOverloaded +
// RetryAfterMillis (DESIGN.md §3g).
//
// Admission is checked BEFORE the enclave debits anything, under the
// same lock that orders the issue (the peer's lane, or the wide lock on
// the fallback path), so a rejected payment provably leaves balances
// untouched — the same reject-before-debit ordering the enclave's
// sumBatch uses. The accept path costs two atomic RMWs (gauge up at
// issue, gauge down at ack/nack) and allocates nothing; only the reject
// path allocates its error.

import (
	"errors"
	"fmt"
	"sync/atomic"

	"teechain/internal/chain"
	"teechain/internal/wire"
)

// Admission defaults: generous enough that a self-clocked workload
// (bounded issue window, acks draining) never trips them, tight enough
// that an open-loop flood is refused with a typed error rather than
// running into the replication backlog bound (core.replMaxPending,
// 1<<17) or wedging the peer outbound queues.
const (
	defaultMaxInflightPerChannel = 1 << 15
	defaultMaxInflightTotal      = 1 << 16
)

// retryHintMillis is the backoff hint that goes with every overload
// rejection (api.Error.RetryAfterMillis, EvOverload).
const retryHintMillis = 5

// ErrOverloaded reports a payment refused at admission (budget
// exhausted) or a wait abandoned while the host is shedding. Rejected
// payments were never applied: no balance moved, no sequence number was
// consumed. Callers should back off and retry; the control plane maps
// this to api.CodeOverloaded with the retryHintMillis hint.
var ErrOverloaded = errors.New("transport: overloaded")

// overloadErrorf builds an ErrOverloaded naming this host and a reason.
func (h *Host) overloadErrorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s: "+format, append([]any{ErrOverloaded, h.cfg.Name}, args...)...)
}

// EvOverload is the transport-level event observers receive when the
// host starts (Shedding true) or stops (false) rejecting payment
// admissions. The control plane forwards it as api.EventOverload.
type EvOverload struct {
	Shedding         bool
	RetryAfterMillis uint32
}

// EvReplStalled is the transport-level event the replication watchdog
// emits when the committee ack cursor stops advancing with ops still
// queued or in flight (repl.go). AckSeq is the stuck cursor.
type EvReplStalled struct {
	Chain  string
	AckSeq uint64
}

// channelInflight computes a channel's issued-but-unsettled payment
// count from its lane counters. Signed and clamped: a recovered host
// can observe acks for payments issued by its previous incarnation.
func channelInflight(ci *channelInfo) int64 {
	infl := int64(ci.sent.Load()) - int64(ci.acked.Load()) - int64(ci.nacked.Load())
	if infl < 0 {
		infl = 0
	}
	return infl
}

// admitPay decides whether count more payments may enter the host,
// charging the per-issuer and global in-flight gauges on success.
// Called under the issue lock, before the enclave applies anything.
// The global gauge uses add-then-check-then-rollback so the ceiling
// stays exact under concurrent lanes; the per-channel bound derives
// from the existing lane counters for free.
func (h *Host) admitPay(ci *channelInfo, pi *PayIssuer, count uint64) error {
	c := int64(count)
	if max := int64(h.cfg.MaxInflightPerChannel); max > 0 && channelInflight(ci)+c > max {
		return h.rejectPay(count, "channel budget %d", max)
	}
	if pi != nil {
		if err := pi.admit(c); err != nil {
			return err
		}
	}
	if tot := int64(h.cfg.MaxInflightTotal); tot > 0 {
		if h.payInflight.Add(c) > tot {
			h.payInflight.Add(-c)
			if pi != nil {
				pi.inflight.Add(-c)
			}
			return h.rejectPay(count, "global budget %d", tot)
		}
	} else {
		h.payInflight.Add(c)
	}
	return nil
}

// unadmitPay rolls an admission back after the enclave refused the
// payment (nothing was issued, so nothing will ever ack it).
func (h *Host) unadmitPay(pi *PayIssuer, count uint64) {
	if pi != nil {
		pi.inflight.Add(-int64(count))
	}
	h.payReleased(count)
}

// rejectPay counts a shed admission, flips the shedding state on the
// first reject (hysteresis: payReleased flips it back at the low-water
// mark), and builds the typed error.
func (h *Host) rejectPay(count uint64, format string, args ...any) error {
	h.admitRejects.Add(count)
	if h.shedding.CompareAndSwap(false, true) {
		h.shedStarts.Add(1)
		h.fanObservers(EvOverload{Shedding: true, RetryAfterMillis: retryHintMillis})
	}
	return h.overloadErrorf(format, args...)
}

// payReleased credits the global in-flight gauge as payments settle
// (acked or nacked on the issuer side) and ends shedding once the gauge
// drains to half the ceiling (the hysteresis low-water mark). The gauge
// may go slightly negative after crash recovery (acks for a previous
// incarnation's payments); that only grants headroom and is clamped at
// display time.
func (h *Host) payReleased(n uint64) {
	v := h.payInflight.Add(-int64(n))
	if !h.shedding.Load() {
		return
	}
	if tot := int64(h.cfg.MaxInflightTotal); tot <= 0 || v <= tot/2 {
		if h.shedding.CompareAndSwap(true, false) {
			h.fanObservers(EvOverload{Shedding: false})
		}
	}
}

// PayIssuer is a per-connection admission handle: every issuer gets a
// fair share of the global in-flight ceiling, so one greedy subscriber
// saturating its share cannot starve the rest. The api server opens one
// per typed connection; direct Host entry points (and the line shim)
// issue unshared, bounded only by the per-channel and global budgets.
type PayIssuer struct {
	h        *Host
	inflight atomic.Int64
	closed   atomic.Bool
}

// NewPayIssuer registers a fair-share admission handle. Close it when
// the connection goes away.
func (h *Host) NewPayIssuer() *PayIssuer {
	h.payIssuers.Add(1)
	return &PayIssuer{h: h}
}

// Close deregisters the issuer from fair-share accounting. Idempotent.
// In-flight payments it admitted still release through the global gauge
// as their acks arrive.
func (pi *PayIssuer) Close() {
	if pi.closed.CompareAndSwap(false, true) {
		pi.h.payIssuers.Add(-1)
	}
}

// Release credits n settled payments back to this issuer's share. The
// api acker calls it as tracked payments complete.
func (pi *PayIssuer) Release(n uint64) { pi.inflight.Add(-int64(n)) }

// admit charges count payments against this issuer's fair share:
// MaxInflightTotal divided by the registered issuers, floored at one
// full batch so a single request always fits an idle share.
func (pi *PayIssuer) admit(c int64) error {
	h := pi.h
	tot := int64(h.cfg.MaxInflightTotal)
	if tot <= 0 {
		pi.inflight.Add(c)
		return nil
	}
	issuers := h.payIssuers.Load()
	if issuers < 1 {
		issuers = 1
	}
	share := tot / issuers
	if share < c {
		share = c // one full request always fits an idle share
	}
	if pi.inflight.Add(c) > share {
		pi.inflight.Add(-c)
		return h.rejectPay(uint64(c), "connection share %d (issuers %d)", share, issuers)
	}
	return nil
}

// PayTracked issues one payment under this issuer's share, returning
// the channel settle cursor.
func (pi *PayIssuer) PayTracked(chID wire.ChannelID, amount chain.Amount) (PayMark, error) {
	return pi.h.payOn(pi, chID, amount, nil)
}

// PayBatchTracked issues a payment batch under this issuer's share.
func (pi *PayIssuer) PayBatchTracked(chID wire.ChannelID, amounts []chain.Amount) (PayMark, error) {
	if len(amounts) == 0 {
		return PayMark{}, errors.New("transport: empty payment batch")
	}
	return pi.h.payOn(pi, chID, 0, amounts)
}
