package core

import (
	"time"

	"teechain/internal/tee"
	"teechain/internal/wire"
)

// Processing-cost calibration.
//
// The discrete-event simulator reproduces the *shape* of the paper's
// results from protocol structure (message counts, replication round
// trips, lock contention). Absolute scale comes from this table, which
// is calibrated once against two measurements from the paper — the
// single-channel no-fault-tolerance row of Table 1 (130,311 tx/s,
// 86 ms) and the channel-creation row of Table 2 (2.81 s) — and then
// held fixed for every experiment. See DESIGN.md §5.
const (
	// CostPayBase is the fixed enclave cost of handling one payment
	// message (session authentication, bookkeeping).
	CostPayBase = 1200 * time.Nanosecond
	// CostPayPerPayment is the per-logical-payment cost inside a
	// message; with client-side batching many logical payments share
	// one CostPayBase. 1/(base+per) ≈ 130 k tx/s unbatched, ≈ 150 k
	// batched (Table 1).
	CostPayPerPayment = 6500 * time.Nanosecond

	// CostReplBase is the fixed cost of applying a replication update
	// at a committee member; CostReplPerPayment the per-payment part.
	// 1/(base+per) ≈ 34 k tx/s unbatched (Table 1, one replica).
	CostReplBase       = 22 * time.Microsecond
	CostReplPerPayment = 7300 * time.Nanosecond

	// CostAttestVerify is the cost of verifying a remote attestation
	// quote (the paper's deployment contacts Intel's attestation
	// service). Two mutual verifications plus a round trip yield the
	// ~2.8 s channel/replica creation of Table 2.
	CostAttestVerify = 1300 * time.Millisecond

	// CostDepositOp covers the enclave-side work of deposit
	// association/dissociation (ECDSA over the deposit key material).
	CostDepositOp = 5 * time.Millisecond

	// CostMhStageCPU is the processor cost of one multi-hop stage
	// message (τ bookkeeping, threshold-signature assembly).
	CostMhStageCPU = 2 * time.Millisecond
	// CostMhStageDelay is the per-stage pipeline stall: τ
	// construction/verification with side-channel-hardened ECDSA and
	// the off-chain synchronisation Teechain adds for asynchronous
	// blockchain access (§7.3). It delays the stage without occupying
	// the processor, so concurrent payments through a hub overlap — the
	// only reading consistent with both Fig. 4's multi-second path
	// latencies and Table 3's hundreds of payments per second through
	// three hub machines.
	CostMhStageDelay = 150 * time.Millisecond

	// CostCounterIncrement re-exports the hardware monotonic counter
	// latency used by the stable-storage configuration (§6.2).
	CostCounterIncrement = tee.CounterIncrementLatency

	// CostSigRequest is the committee-side cost of validating and
	// countersigning a settlement transaction.
	CostSigRequest = 2 * time.Millisecond

	// CostSettleBuild is the enclave cost of constructing and signing a
	// settlement transaction.
	CostSettleBuild = 3 * time.Millisecond
)

// DefaultBatchWindow is the client-side batching window used by the
// evaluation (§7.2): payments are merged for 100 ms before one message
// is sent.
const DefaultBatchWindow = 100 * time.Millisecond

// CostModel returns the (cpu, delay) a message imposes on the receiving
// enclave's host, given the node's fault-tolerance configuration. CPU
// occupies the serial processor (throughput ceilings); delay postpones
// delivery without occupying it (pipeline stalls that overlap across
// payments). Stable storage adds one monotonic counter increment to
// every state-changing message (§6.2).
func CostModel(stableStorage bool) func(payload any) (cpu, delay time.Duration) {
	return func(payload any) (time.Duration, time.Duration) {
		var cpu, delay time.Duration
		switch m := payload.(type) {
		case *wire.Pay:
			cpu = CostPayBase + time.Duration(max(1, m.Count))*CostPayPerPayment
		case *wire.PayBatch:
			cpu = CostPayBase + time.Duration(max(1, len(m.Amounts)))*CostPayPerPayment
		case *wire.PayAck, *wire.PayNack, *wire.PayBatchAck:
			cpu = CostPayBase
		case *wire.ReplBatch:
			cpu = CostReplBase
			for i := range m.Ops {
				if op := &m.Ops[i]; op.Kind != wire.ReplOpPayRevert {
					cpu += time.Duration(max(1, op.Count)) * CostReplPerPayment
				}
			}
		case *wire.ReplUpdate:
			// Payment ops replicate in ReplBatch frames; a ReplUpdate
			// carries a cold op.
			cpu = CostReplBase
			if op, ok := m.Op.(*Op); ok {
				switch op.Kind {
				case OpMhStage, OpMhStart, OpMhFinish:
					// Committee members verify τ and contribute
					// threshold signatures during stage replication
					// (§6.1): a pipeline stall like the stage itself.
					cpu += CostSigRequest
					delay = CostMhStageDelay / 2
				}
			}
		case *wire.ReplAck, *wire.ReplBatchAck:
			cpu = CostPayBase
		case *wire.Attest:
			cpu = CostAttestVerify
		case *wire.ChannelOpen, *wire.ChannelAck:
			cpu = CostDepositOp
		case *wire.ApproveDeposit, *wire.ApprovedDeposit,
			*wire.AssociateDeposit, *wire.DissociateDeposit, *wire.DissociateAck:
			cpu = CostDepositOp
		case *wire.MhLock, *wire.MhSign, *wire.MhPreUpdate,
			*wire.MhUpdate, *wire.MhPostUpdate, *wire.MhRelease:
			cpu = CostMhStageCPU
			delay = CostMhStageDelay
		case *wire.SigRequest:
			cpu = CostSigRequest
		case *wire.SigResponse:
			cpu = CostPayBase
		case *wire.SettleRequest, *wire.SettleNotify:
			cpu = CostSettleBuild
		case *wire.OutsourceCmd, *wire.OutsourceResult:
			cpu = CostPayBase
		default:
			cpu = CostPayBase
		}
		if stableStorage && stateChanging(payload) {
			// The monotonic counter is a hardware resource the enclave
			// blocks on. Payment processing overlaps with the wait —
			// the overlap is why batching recovers stable-storage
			// throughput ("can be batched while waiting for counters",
			// §7.2) — so Pay charges max(counter, processing);
			// everything else waits out the increment.
			if _, isPay := payload.(*wire.Pay); isPay {
				if CostCounterIncrement > cpu {
					cpu = CostCounterIncrement
				}
			} else {
				cpu += CostCounterIncrement
			}
		}
		return cpu, delay
	}
}

// stateChanging reports whether handling the message mutates enclave
// state (and therefore requires a sealed, counter-protected checkpoint
// in the stable-storage configuration).
func stateChanging(payload any) bool {
	switch payload.(type) {
	case *wire.Pay, *wire.PayBatch, *wire.ReplUpdate, *wire.ReplBatch, *wire.ChannelOpen, *wire.ChannelAck,
		*wire.ApproveDeposit, *wire.AssociateDeposit, *wire.DissociateDeposit,
		*wire.DissociateAck, *wire.MhLock, *wire.MhSign, *wire.MhPreUpdate,
		*wire.MhUpdate, *wire.MhPostUpdate, *wire.MhRelease:
		return true
	default:
		return false
	}
}
