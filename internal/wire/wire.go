// Package wire defines the Teechain protocol messages exchanged between
// enclaves, their sizes for network simulation, and their framing for
// byte transports (frame.go).
//
// Messages travel between enclaves either as Go values over the
// discrete-event simulator or framed over TCP (frame.go: binary payloads
// for per-payment messages, gob for the rest). Only the enclave-protocol
// messages in this file carry a WireSize: it is the realistic
// on-the-wire size the simulator charges to its network
// (core.Envelope.WireSize), so the bandwidth model of §7 does not depend
// on the transport in use. The host-level frames (Hello, gossip) and the
// control-plane messages internal/api registers never cross the
// simulated network, so they have no size.
package wire

import (
	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/tee"
)

// ChannelID identifies a payment channel between two enclaves. Both
// parties agree on it out of band before opening the channel (Alg. 1).
type ChannelID string

// PaymentID identifies a multi-hop payment in flight.
type PaymentID string

// Message is any message in the frame registry (frame.go). The
// enclave-protocol messages also implement WireSize() int, the encoded
// size in bytes the simulator charges for bandwidth; nothing else needs
// one.
type Message interface{}

const (
	sigSize    = 64
	keySize    = 65
	quoteSize  = 32 + 32 + sigSize + 16 // measurement + report + sig + platform id
	idOverhead = 24                     // channel/payment id strings
	hdrSize    = 16                     // message framing overhead
)

func txSize(tx *chain.Transaction) int {
	if tx == nil {
		return 0
	}
	return tx.WireSize()
}

// --- Attestation and secure-channel establishment (§4.1) ---

// Attest carries one side of mutual remote attestation plus the
// ephemeral Diffie-Hellman half used to provision the session key
// (Alg. 1, newNetworkChannel).
type Attest struct {
	Quote    tee.Quote
	Identity cryptoutil.PublicKey // enclave identity key K_me
	DHPublic []byte
	Response bool // true when answering a peer's Attest
	// Software marks a TEE-less participant attaching to a remote
	// enclave for outsourcing (§3): it carries no quote, and the
	// receiving enclave applies its outsourcing policy instead of quote
	// verification.
	Software bool
	// Resume marks a fresh handshake from a crash-recovered enclave
	// that held an established session with the receiver before the
	// crash: it authorizes the receiver to replace its stale session
	// instead of rejecting the handshake as a duplicate. Trailing gob
	// field — absent (false) on frames from older senders.
	Resume bool
}

// WireSize implements Message.
func (m *Attest) WireSize() int { return hdrSize + quoteSize + keySize + len(m.DHPublic) + 1 }

// --- Payment channel protocol (Alg. 1) ---

// ChannelOpen asks the remote enclave to open channel ID with the
// stated settlement addresses.
type ChannelOpen struct {
	Channel      ChannelID
	MyAddress    cryptoutil.Address // sender's settlement address
	YoursAddress cryptoutil.Address // receiver's settlement address, as the sender believes it
}

// WireSize implements Message.
func (m *ChannelOpen) WireSize() int { return hdrSize + idOverhead + 40 }

// ChannelAck is the signed acknowledgement that opens the channel
// (Alg. 1, line 26).
type ChannelAck struct {
	Channel      ChannelID
	MyAddress    cryptoutil.Address
	YoursAddress cryptoutil.Address
}

// WireSize implements Message.
func (m *ChannelAck) WireSize() int { return hdrSize + idOverhead + 40 + sigSize }

// DepositInfo describes a fund deposit: the on-chain outpoint, its
// value, the committee script it pays into, and — for m-of-n committee
// deposits — the committee chain and the member identities a
// counterparty must contact to collect threshold signatures (§6.1).
type DepositInfo struct {
	Point  chain.OutPoint
	Value  chain.Amount
	Script chain.Script
	// Committee is the replication chain securing this deposit; empty
	// for 1-of-1 deposits whose key is shared on association.
	Committee string
	// Members lists committee member identities (including the owner)
	// in chain order.
	Members []PathHop
}

// Size returns the deposit description's encoded size.
func (d DepositInfo) Size() int {
	return 36 + 8 + 4 + len(d.Script.Keys)*keySize + idOverhead + len(d.Members)*keySize
}

// ApproveDeposit presents a deposit for the remote party's approval
// (Alg. 1, approveMyDeposit). The receiver verifies the deposit is on
// the blockchain with enough confirmations before approving.
type ApproveDeposit struct {
	Deposit DepositInfo
}

// WireSize implements Message.
func (m *ApproveDeposit) WireSize() int { return hdrSize + m.Deposit.Size() }

// ApprovedDeposit confirms the receiver validated the deposit on chain
// (Alg. 1, approvedDeposit).
type ApprovedDeposit struct {
	Point chain.OutPoint
}

// WireSize implements Message.
func (m *ApprovedDeposit) WireSize() int { return hdrSize + 36 + sigSize }

// AssociateDeposit binds an approved deposit to a channel, transferring
// the (encrypted) deposit private key material for 1-of-1 deposits
// (Alg. 1, associateMyDeposit).
type AssociateDeposit struct {
	Channel      ChannelID
	Deposit      DepositInfo
	EncPrivShare []byte // encrypted under the session key; empty for committee deposits
}

// WireSize implements Message.
func (m *AssociateDeposit) WireSize() int {
	return hdrSize + idOverhead + m.Deposit.Size() + len(m.EncPrivShare)
}

// DissociateDeposit asks the remote to release a deposit from the
// channel (Alg. 1, dissociateDeposit).
type DissociateDeposit struct {
	Channel ChannelID
	Point   chain.OutPoint
}

// WireSize implements Message.
func (m *DissociateDeposit) WireSize() int { return hdrSize + idOverhead + 36 }

// DissociateAck confirms the remote destroyed its key copy (Alg. 1,
// dissociatedDepositAck).
type DissociateAck struct {
	Channel ChannelID
	Point   chain.OutPoint
}

// WireSize implements Message.
func (m *DissociateAck) WireSize() int { return hdrSize + idOverhead + 36 + sigSize }

// Pay transfers value inside a channel (Alg. 1, pay). Count carries the
// number of client-side-batched logical payments this message
// represents (1 when batching is off); Amount is their total.
type Pay struct {
	Channel ChannelID
	Amount  chain.Amount
	Count   int
}

// WireSize implements Message.
func (m *Pay) WireSize() int { return hdrSize + idOverhead + 12 }

// PayAck acknowledges a payment; the sender measures latency to this
// acknowledgement.
type PayAck struct {
	Channel ChannelID
	Amount  chain.Amount
	Count   int
}

// WireSize implements Message.
func (m *PayAck) WireSize() int { return hdrSize + idOverhead + 12 }

// PayNack rejects a payment the receiver cannot apply — typically
// because a multi-hop payment locked the channel while the payment was
// in flight. The sender's enclave reverses its optimistic debit and the
// host retries ("upon receiving a failure notification, the payment is
// retried", §7.4).
type PayNack struct {
	Channel ChannelID
	Amount  chain.Amount
	Count   int
	Reason  string
}

// WireSize implements Message.
func (m *PayNack) WireSize() int { return hdrSize + idOverhead + 12 + len(m.Reason) }

// MaxPayBatch bounds the payments one PayBatch may carry. Well under
// what MaxFrameSize admits (8 bytes per amount), so a maximal batch
// always encodes: the sender's enclave debits the batch total *before*
// the host frames it, and an unencodable frame would leave the two
// enclaves' balances permanently diverged.
const MaxPayBatch = 4096

// PayBatch carries up to MaxPayBatch independent payments over one
// channel in a single frame — the paper's same-channel
// batching/pipelining (§7.2): frame, token, and enclave-entry
// overheads amortise over the whole batch instead of being paid per
// payment. Unlike Pay with Count > 1, the payments may have distinct
// amounts. The receiver applies the batch atomically (all payments or
// a single nack for the total).
type PayBatch struct {
	Channel ChannelID
	Amounts []chain.Amount
}

// WireSize implements Message.
func (m *PayBatch) WireSize() int { return hdrSize + idOverhead + 4 + 8*len(m.Amounts) }

// PayBatchAck acknowledges an entire PayBatch: Count payments totalling
// Total were credited.
type PayBatchAck struct {
	Channel ChannelID
	Total   chain.Amount
	Count   int
}

// WireSize implements Message.
func (m *PayBatchAck) WireSize() int { return hdrSize + idOverhead + 12 }

// SettleRequest asks the remote to cooperate in terminating the channel
// (off-chain if balances are neutral, Alg. 1 settle).
type SettleRequest struct {
	Channel ChannelID
}

// WireSize implements Message.
func (m *SettleRequest) WireSize() int { return hdrSize + idOverhead }

// SettleNotify informs the remote that the sender terminated the
// channel and (optionally) carries the settlement transaction.
type SettleNotify struct {
	Channel ChannelID
	Tx      *chain.Transaction
}

// WireSize implements Message.
func (m *SettleNotify) WireSize() int { return hdrSize + idOverhead + txSize(m.Tx) }

// --- Multi-hop payment protocol (Alg. 2) ---

// PathHop names one enclave on a multi-hop path by its identity key.
type PathHop struct {
	Identity cryptoutil.PublicKey
}

func pathSize(p []PathHop) int { return len(p) * keySize }

// MhLock locks the next channel on the path and accumulates deposits
// into the intermediate settlement transaction τ (Alg. 2, lock).
// Channel names the payment channel between the sender and receiver of
// this hop; each forwarder picks its own downstream channel (which is
// how temporary channels join paths, §5.2).
type MhLock struct {
	Payment PaymentID
	Amount  chain.Amount // amount the final recipient receives
	Count   int          // client-side batch size, as in Pay
	Path    []PathHop
	Channel ChannelID
	Tau     *chain.Transaction // τ under construction
	// Fees, when non-empty, aligns with Path: Fees[i] is the forwarding
	// fee hop i keeps (zero at both endpoints), so hop i receives
	// Amount plus the fees of every hop after it and forwards that
	// minus its own fee. Empty means a fee-free payment.
	Fees []chain.Amount
}

// WireSize implements Message.
func (m *MhLock) WireSize() int {
	return hdrSize + 2*idOverhead + 12 + pathSize(m.Path) + txSize(m.Tau) + 8*len(m.Fees)
}

// MhSign propagates τ backward, collecting signatures (Alg. 2, sign).
type MhSign struct {
	Payment PaymentID
	Tau     *chain.Transaction
}

// WireSize implements Message.
func (m *MhSign) WireSize() int { return hdrSize + idOverhead + txSize(m.Tau) }

// MhPreUpdate distributes the fully signed τ forward (Alg. 2,
// preUpdate). From this point premature termination settles via τ.
type MhPreUpdate struct {
	Payment PaymentID
	Tau     *chain.Transaction
}

// WireSize implements Message.
func (m *MhPreUpdate) WireSize() int { return hdrSize + idOverhead + txSize(m.Tau) }

// MhUpdate applies the balance update backward (Alg. 2, update).
type MhUpdate struct {
	Payment PaymentID
}

// WireSize implements Message.
func (m *MhUpdate) WireSize() int { return hdrSize + idOverhead }

// MhPostUpdate discards τ forward, re-enabling individual settlement at
// post-payment state (Alg. 2, postUpdate).
type MhPostUpdate struct {
	Payment PaymentID
}

// WireSize implements Message.
func (m *MhPostUpdate) WireSize() int { return hdrSize + idOverhead }

// MhRelease releases the channel locks backward (Alg. 2, release).
type MhRelease struct {
	Payment PaymentID
}

// WireSize implements Message.
func (m *MhRelease) WireSize() int { return hdrSize + idOverhead }

// MhAbort unwinds a multi-hop payment that failed during the lock phase
// (e.g. a locked or underfunded channel downstream), travelling backward
// and releasing locks. After the sign stage completes, aborting is no
// longer possible — the payment either completes or is ejected.
// Transient marks benign aborts (a stale τ built from raced balances, a
// channel mid-way through another payment) that the initiator may
// simply retry; it rides back unchanged through every hop.
type MhAbort struct {
	Payment   PaymentID
	Reason    string
	Transient bool
}

// WireSize implements Message.
func (m *MhAbort) WireSize() int { return hdrSize + idOverhead + 1 + len(m.Reason) }

// --- Force-freeze chain replication (Alg. 3) ---

// ReplAttach configures an enclave as a member of a replication chain /
// committee (after mutual attestation): it carries the full membership
// in chain order, the signature threshold, the owner's payout address,
// and a state snapshot to mirror. Re-sent in full on membership change
// (idempotent reconfiguration).
type ReplAttach struct {
	Chain    string    // replication chain / committee identifier
	Members  []PathHop // identities in chain order; Members[0] is the owner
	M        int       // threshold signatures needed to spend deposits
	Payout   cryptoutil.Address
	Snapshot []byte // owner state snapshot to mirror
	// Seq is the owner's log cursor at attach time: everything up to and
	// including it is covered by Snapshot, so the member expects the
	// replication stream to resume at Seq+1. Zero for a fresh log; a
	// durable owner's unified WAL log has usually advanced past its
	// pre-formation ops.
	Seq uint64
}

// WireSize implements Message.
func (m *ReplAttach) WireSize() int {
	return hdrSize + idOverhead + pathSize(m.Members) + 4 + 20 + len(m.Snapshot) + 8
}

// ReplAttachAck returns the member's freshly generated committee
// blockchain key, which the owner folds into deposit scripts.
type ReplAttachAck struct {
	Chain  string
	BtcKey cryptoutil.PublicKey
}

// WireSize implements Message.
func (m *ReplAttachAck) WireSize() int { return hdrSize + idOverhead + keySize }

// ReplUpdate propagates a sequenced state update down the chain
// (Alg. 3, stateUpdate). Op is the state-machine operation the backup
// applies to its mirror; op types are defined by the core package and
// must be gob-registered for byte transports. Retx marks a
// retransmission served from the primary's replication log in response
// to a ReplNack or a stall-watchdog trip: mirrors treat a Retx
// duplicate as ack repair (re-acknowledge) rather than an error.
type ReplUpdate struct {
	Chain string
	Seq   uint64
	Op    any
	Retx  bool
}

// WireSize implements Message.
func (m *ReplUpdate) WireSize() int { return hdrSize + idOverhead + 8 + sizeOfOp(m.Op) }

// sizeOfOp estimates an op's wire size, deferring to the op itself when
// it knows better.
func sizeOfOp(op any) int {
	if s, ok := op.(interface{ WireSize() int }); ok {
		return s.WireSize()
	}
	return 64
}

// TauSig is a committee member's signature over one input of the
// multi-hop intermediate settlement transaction τ, piggybacked on
// replication acknowledgements during the sign stage (§6.1).
type TauSig struct {
	Input int
	Slot  int
	Sig   cryptoutil.Signature
}

// ReplAck acknowledges that the entire chain suffix applied update Seq.
type ReplAck struct {
	Chain   string
	Seq     uint64
	TauSigs []TauSig
}

// WireSize implements Message.
func (m *ReplAck) WireSize() int {
	return hdrSize + idOverhead + 8 + len(m.TauSigs)*(8+sigSize)
}

// MaxReplBatch bounds the ops one ReplBatch may carry. Like
// MaxPayBatch, it is well under what MaxFrameSize admits, so a maximal
// batch always encodes: the primary has already applied every op in the
// batch before the flusher frames it, and an unencodable frame would
// strand the replication stream.
const MaxReplBatch = 4096

// Replication batch op kinds: the payment-path subset of the core
// package's replicated operations, flattened so the wire layer can
// hand-roll their encoding without knowing the core op type. Anything
// outside this subset (channel lifecycle, deposits, multi-hop stages)
// replicates as a solo ReplUpdate instead — those are rare and may
// carry arbitrary payloads (τ, deposit scripts), while payments are the
// traffic that must move at line rate.
const (
	ReplOpPaySend   uint8 = 1
	ReplOpPayRecv   uint8 = 2
	ReplOpPayRevert uint8 = 3
)

// ReplBatchOp is one payment-path state transition inside a ReplBatch.
type ReplBatchOp struct {
	Kind    uint8 // ReplOpPaySend, ReplOpPayRecv, or ReplOpPayRevert
	Channel ChannelID
	Amount  chain.Amount
	Count   int
}

// ReplBatch propagates a run of sequenced payment-path state updates
// down a replication chain in one frame (the chain-replication
// batching/pipelining of van Renesse & Schneider applied to Alg. 3):
// Ops[i] carries sequence number FirstSeq+i. Backups apply the whole
// batch in order and acknowledge cumulatively with one ReplBatchAck, so
// frame, token, and enclave-entry overheads amortise over the batch the
// same way PayBatch amortises them over payments.
type ReplBatch struct {
	Chain    string
	FirstSeq uint64
	// Retx marks a retransmission served from the primary's replication
	// log (ReplNack recovery or stall-watchdog probe). Mirrors treat a
	// Retx duplicate as lost-ack repair — re-emit the cumulative ack —
	// instead of rejecting it.
	Retx bool
	Ops  []ReplBatchOp
}

// WireSize implements Message.
func (m *ReplBatch) WireSize() int {
	return hdrSize + idOverhead + 13 + len(m.Ops)*(1+idOverhead+12)
}

// ReplBatchAck cumulatively acknowledges every replication update with
// sequence number <= Seq: the entire chain suffix has applied them. One
// ack releases a whole batch (or several) of withheld effects at the
// primary.
type ReplBatchAck struct {
	Chain string
	Seq   uint64
}

// WireSize implements Message.
func (m *ReplBatchAck) WireSize() int { return hdrSize + idOverhead + 8 }

// ReplNack reports a replication sequence gap upstream: the sender has
// applied every update with sequence number <= HaveThrough and needs
// the stream to resume at WantSeq (= HaveThrough+1). Mirrors emit it
// when a ReplBatch/ReplUpdate arrives ahead of sequence (the frames in
// between were lost or reordered beyond the reorder buffer); middles
// relay it toward the primary, whose flusher retransmits the missing
// range from its replication log with the Retx flag set. NACKs are
// advisory — loss of a ReplNack is itself healed by the stall watchdog.
type ReplNack struct {
	Chain       string
	WantSeq     uint64
	HaveThrough uint64
}

// WireSize implements Message.
func (m *ReplNack) WireSize() int { return hdrSize + idOverhead + 16 }

// ReplFreeze force-freezes the chain: all members stop accepting
// updates, settle channels, and release deposits (§6).
type ReplFreeze struct {
	Chain  string
	Reason string
}

// WireSize implements Message.
func (m *ReplFreeze) WireSize() int { return hdrSize + idOverhead + len(m.Reason) }

// --- Crash recovery (§6.2 durable mode) ---

// ChanResume reconciles one payment channel after the sender crash-
// recovered from its WAL: it carries the recovering side's durable
// cumulative receipt totals, and the peer reverts any of its own
// optimistic debits beyond them (payments it sent whose Pay frames the
// recovering side never durably saw). Group commit orders fsync before
// the Pay frame departs, so the peer's receipts can never exceed the
// recovering sender's durable sends — only the symmetric revert is ever
// needed.
type ChanResume struct {
	Channel ChannelID
	RecvAmt chain.Amount // sender's durable cumulative receipts on Channel
	RecvCnt uint64
}

// WireSize implements Message.
func (m *ChanResume) WireSize() int { return hdrSize + idOverhead + 16 }

// ChanResumeAck closes the reconciliation: the peer's own durable
// cumulative receipts, against which the recovering side reverts its
// excess optimistic debits.
type ChanResumeAck struct {
	Channel ChannelID
	RecvAmt chain.Amount
	RecvCnt uint64
}

// WireSize implements Message.
func (m *ChanResumeAck) WireSize() int { return hdrSize + idOverhead + 16 }

// ReplResync re-seeds a committee member's mirror after the primary
// crash-recovered: the mirror is replaced wholesale by the primary's
// recovered state snapshot and the replication cursor jumps to Seq.
// Safe because mirror-ahead effects are never released by the primary —
// anything the old mirror had beyond the recovered state was withheld.
type ReplResync struct {
	Chain    string
	Snapshot []byte
	Seq      uint64
}

// WireSize implements Message.
func (m *ReplResync) WireSize() int { return hdrSize + idOverhead + 8 + len(m.Snapshot) }

// ReplResyncAck confirms the member adopted the recovered snapshot at
// Seq.
type ReplResyncAck struct {
	Chain string
	Seq   uint64
}

// WireSize implements Message.
func (m *ReplResyncAck) WireSize() int { return hdrSize + idOverhead + 8 }

// --- Committee threshold signing (§6.1) ---

// SigRequest asks a committee member to countersign a settlement
// transaction after verifying it against its replicated state.
type SigRequest struct {
	Chain string
	Tx    *chain.Transaction
	Input int
}

// WireSize implements Message.
func (m *SigRequest) WireSize() int { return hdrSize + idOverhead + 4 + txSize(m.Tx) }

// SigResponse returns the member's signature slot, or a refusal.
type SigResponse struct {
	Chain   string
	TxID    chain.TxID
	Input   int
	Slot    int
	Sig     cryptoutil.Signature
	Refused bool
	Reason  string
}

// WireSize implements Message.
func (m *SigResponse) WireSize() int { return hdrSize + idOverhead + 40 + sigSize + len(m.Reason) }

// --- TEE outsourcing (§3) ---

// OutsourceCmd wraps an operator command from a TEE-less client to its
// remote enclave, sealed under the client-enclave session.
type OutsourceCmd struct {
	Seq     uint64
	Payload []byte
}

// WireSize implements Message.
func (m *OutsourceCmd) WireSize() int { return hdrSize + 8 + len(m.Payload) }

// OutsourceResult returns the outcome of an outsourced command.
type OutsourceResult struct {
	Seq     uint64
	OK      bool
	Payload []byte
}

// WireSize implements Message.
func (m *OutsourceResult) WireSize() int { return hdrSize + 9 + len(m.Payload) }
