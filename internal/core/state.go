// Package core implements the Teechain protocols: payment channels with
// dynamic deposit assignment (Alg. 1), multi-hop payments with proofs of
// premature termination (Alg. 2), force-freeze chain replication
// (Alg. 3), and committee chains combining replication with m-out-of-n
// threshold settlement (§6).
//
// The trusted side is Enclave, a message-driven state machine that runs
// identically under the discrete-event simulator and over real sockets.
// The untrusted side is Node, the host that owns transports, the
// blockchain interface, batching, retries, and routing.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// MhStage is a channel's position in the multi-hop payment protocol
// (Alg. 2). Settlement authorization depends on it: pre-payment
// settlements are valid in Lock/Sign, τ in PreUpdate/Update, and
// post-payment settlements in PostUpdate/Release.
type MhStage int

// Multi-hop stages, in protocol order.
const (
	MhIdle MhStage = iota
	MhLock
	MhSign
	MhPreUpdate
	MhUpdate
	MhPostUpdate
	MhTerminated
)

func (s MhStage) String() string {
	switch s {
	case MhIdle:
		return "idle"
	case MhLock:
		return "lock"
	case MhSign:
		return "sign"
	case MhPreUpdate:
		return "preUpdate"
	case MhUpdate:
		return "update"
	case MhPostUpdate:
		return "postUpdate"
	case MhTerminated:
		return "terminated"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// ChannelState is the replicated state of one payment channel from its
// owner's perspective (the c* maps of Alg. 1).
type ChannelState struct {
	ID         wire.ChannelID
	Remote     cryptoutil.PublicKey
	MyAddr     cryptoutil.Address
	RemoteAddr cryptoutil.Address
	Open       bool
	Closed     bool

	MyBal     chain.Amount
	RemoteBal chain.Amount

	MyDeps     []wire.DepositInfo
	RemoteDeps []wire.DepositInfo

	// Temp marks a temporary channel created to relieve lock contention
	// (§5.2).
	Temp bool

	// ClosePending marks a cooperative off-chain termination in
	// progress: once both deposit lists drain, the channel closes
	// without touching the blockchain (Alg. 1, lines 106-112).
	ClosePending bool

	// Multi-hop lock state for this channel.
	Stage   MhStage
	Payment wire.PaymentID

	// Cumulative payment totals per direction, maintained by Apply for
	// the three payment op kinds and replicated/persisted like the
	// balances. A crash-recovered endpoint reconciles with its peer
	// (ChanResume) by comparing the peer's cumulative receipts against
	// its own cumulative sends: the difference is exactly the optimistic
	// debits the peer never saw.
	SentAmt chain.Amount
	SentCnt uint64
	RecvAmt chain.Amount
	RecvCnt uint64

	// Resuming gates NEW outgoing payments while a crash-recovery
	// reconciliation (ChanResume) is in flight on the channel. Set on
	// the recovering side by RestoreDurable and on the surviving side
	// when a resume attestation replaces the peer's session; cleared
	// when the ChanResume exchange completes. Without the gate a
	// payment issued between session resume and reconciliation would be
	// counted into the peer's cumulative-send excess and wrongly
	// reverted. Checked only at the Pay/PayBatch entry points — never
	// in Apply — so WAL replay and mirror updates are unaffected.
	Resuming bool
}

// Neutral reports whether both balances equal their deposits, enabling
// off-chain termination (Alg. 1, line 106).
func (c *ChannelState) Neutral() bool {
	var mine, theirs chain.Amount
	for _, d := range c.MyDeps {
		mine += d.Value
	}
	for _, d := range c.RemoteDeps {
		theirs += d.Value
	}
	return c.MyBal == mine && c.RemoteBal == theirs
}

func (c *ChannelState) findDep(deps []wire.DepositInfo, p chain.OutPoint) int {
	for i, d := range deps {
		if d.Point == p {
			return i
		}
	}
	return -1
}

// DepositRecord tracks a deposit known to this enclave (allDeps /
// freeDeps of Alg. 1).
type DepositRecord struct {
	Info wire.DepositInfo
	// Free means unassociated with any channel.
	Free bool
	// Channel is the owning channel when not free.
	Channel wire.ChannelID
	// Released means spent back to the owner; terminal.
	Released bool
	// Dissociating marks an in-flight dissociation awaiting the remote
	// acknowledgement (PendingDeposits in the ideal functionality).
	Dissociating bool
}

// MultihopState tracks one in-flight multi-hop payment at one node. It
// exists from OpMhStart to OpMhFinish and no longer: a finished payment
// (completed, aborted or ejected) leaves State.Multihop, so a hub's
// state — and every snapshot of it — is sized by what is in flight, not
// by what it ever forwarded.
type MultihopState struct {
	Payment wire.PaymentID
	Amount  chain.Amount
	Count   int
	Path    []wire.PathHop
	// Fees, when non-empty, aligns with Path: the forwarding fee each
	// hop keeps (zero at the endpoints). Empty for fee-free payments.
	Fees []chain.Amount
	// Index is this enclave's position on the path (0-based).
	Index int
	// Tau is the intermediate settlement transaction once seen.
	Tau *chain.Transaction
}

// State is the complete replicable logical state of a Teechain enclave:
// everything a committee mirror needs to validate and authorize
// settlements on the owner's behalf. Private keys are deliberately NOT
// part of it — committee members hold their own keys (§6.1).
type State struct {
	Owner  cryptoutil.PublicKey
	Frozen bool
	// OwnerPayout is the owner's cold payout address: committee members
	// refuse to countersign deposit releases to any other destination,
	// which is what stops a compromised owner enclave from draining
	// free deposits.
	OwnerPayout cryptoutil.Address
	Channels    map[wire.ChannelID]*ChannelState
	Deposits    map[chain.OutPoint]*DepositRecord
	// ApprovedByMe holds remote deposits this enclave approved, per
	// remote identity (appDeps keyed the other way in Alg. 1).
	ApprovedByMe map[cryptoutil.PublicKey]map[chain.OutPoint]wire.DepositInfo
	// ApprovedMine holds own deposits approved by remotes.
	ApprovedMine map[cryptoutil.PublicKey]map[chain.OutPoint]bool
	Multihop     map[wire.PaymentID]*MultihopState
	// PayoutKeys maps settlement addresses to public keys so settlement
	// outputs can be constructed — including by committee mirrors after
	// the owner crashed. Exchanged out of band alongside identities and
	// replicated.
	PayoutKeys map[cryptoutil.Address]cryptoutil.PublicKey

	// lastCh is a one-entry channel lookup cache: payments hit the same
	// channel repeatedly, and comparing two equal IDs is far cheaper
	// than hashing one. Channels are never removed from the map (only
	// marked Closed), so the cache cannot go stale. Atomic because
	// socket hosts run payment lanes for different peers concurrently
	// (see concurrent.go); entries are read-shared, never torn.
	// Unexported, so gob replication and sealing ignore it.
	lastCh atomic.Pointer[ChannelState]
}

// NewState returns an empty state owned by the given enclave identity.
func NewState(owner cryptoutil.PublicKey) *State {
	return &State{
		Owner:        owner,
		Channels:     make(map[wire.ChannelID]*ChannelState),
		Deposits:     make(map[chain.OutPoint]*DepositRecord),
		ApprovedByMe: make(map[cryptoutil.PublicKey]map[chain.OutPoint]wire.DepositInfo),
		ApprovedMine: make(map[cryptoutil.PublicKey]map[chain.OutPoint]bool),
		Multihop:     make(map[wire.PaymentID]*MultihopState),
		PayoutKeys:   make(map[cryptoutil.Address]cryptoutil.PublicKey),
	}
}

// OpKind enumerates replicated state transitions.
type OpKind int

// Replicated operation kinds.
const (
	OpRegisterDeposit OpKind = iota + 1
	OpReleaseDeposit
	OpApproveRemote // I approved a remote's deposit
	OpApprovedMine  // a remote approved my deposit
	OpOpenChannel
	OpChannelOpened
	OpAssociateMine
	OpAssociateTheirs
	OpDissociateStart  // my side begins dissociating my deposit
	OpDissociateTheirs // remote side applies their dissociation
	OpDissociateAck    // remote acked; my deposit is free again
	OpPaySend
	OpPayRecv
	OpPayRevert // undo an optimistic debit after the peer nacked
	OpMhStart   // sender initiates a multi-hop payment
	OpMhStage   // stage transition (carries balances on MhUpdate)
	OpMhFinish
	OpSettleIntent // cooperative off-chain termination begins
	OpCloseChannel
	OpFreeze
	OpRegisterPayoutKey
)

func (k OpKind) String() string {
	names := map[OpKind]string{
		OpRegisterDeposit: "registerDeposit", OpReleaseDeposit: "releaseDeposit",
		OpApproveRemote: "approveRemote", OpApprovedMine: "approvedMine",
		OpOpenChannel: "openChannel", OpChannelOpened: "channelOpened",
		OpAssociateMine: "associateMine", OpAssociateTheirs: "associateTheirs",
		OpDissociateStart: "dissociateStart", OpDissociateTheirs: "dissociateTheirs",
		OpDissociateAck: "dissociateAck", OpPaySend: "paySend", OpPayRecv: "payRecv",
		OpPayRevert: "payRevert",
		OpMhStart:   "mhStart", OpMhStage: "mhStage", OpMhFinish: "mhFinish",
		OpSettleIntent: "settleIntent", OpCloseChannel: "closeChannel", OpFreeze: "freeze",
		OpRegisterPayoutKey: "registerPayoutKey",
	}
	if n, ok := names[k]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Op is one replicated state transition. A single struct with a kind
// switch keeps the replication pipeline simple and gob-friendly; unused
// fields are zero.
type Op struct {
	Kind    OpKind
	Channel wire.ChannelID
	Remote  cryptoutil.PublicKey
	Addr1   cryptoutil.Address // my settlement address / release target
	Addr2   cryptoutil.Address // remote settlement address
	Deposit wire.DepositInfo
	Amount  chain.Amount
	Count   int
	Payment wire.PaymentID
	Stage   MhStage
	Index   int
	Path    []wire.PathHop
	Tau     *chain.Transaction
	// Fees is the multi-hop forwarding fee schedule (OpMhStart only).
	Fees []chain.Amount
}

// Errors shared across state transitions.
var (
	ErrFrozen         = errors.New("core: enclave state is frozen")
	ErrUnknownChannel = errors.New("core: unknown channel")
	ErrChannelClosed  = errors.New("core: channel is closed")
	ErrChannelLocked  = errors.New("core: channel is locked by a multi-hop payment")
	ErrUnknownDeposit = errors.New("core: unknown deposit")
	ErrInsufficient   = errors.New("core: insufficient channel balance")
)

// Apply executes op against the state. It is the single transition
// function shared by primaries and committee mirrors, which is what
// keeps replicas bit-identical: both sides apply exactly the same ops in
// exactly the same order.
func (s *State) Apply(op *Op) error {
	if s.Frozen && op.Kind != OpFreeze {
		return ErrFrozen
	}
	switch op.Kind {
	case OpRegisterDeposit:
		if _, ok := s.Deposits[op.Deposit.Point]; ok {
			return fmt.Errorf("core: deposit %s already registered", op.Deposit.Point)
		}
		s.Deposits[op.Deposit.Point] = &DepositRecord{Info: op.Deposit, Free: true}
	case OpReleaseDeposit:
		d, ok := s.Deposits[op.Deposit.Point]
		if !ok {
			return ErrUnknownDeposit
		}
		if !d.Free || d.Dissociating {
			return fmt.Errorf("core: deposit %s is not free", op.Deposit.Point)
		}
		d.Free = false
		d.Released = true
	case OpApproveRemote:
		m := s.ApprovedByMe[op.Remote]
		if m == nil {
			m = make(map[chain.OutPoint]wire.DepositInfo)
			s.ApprovedByMe[op.Remote] = m
		}
		m[op.Deposit.Point] = op.Deposit
	case OpApprovedMine:
		m := s.ApprovedMine[op.Remote]
		if m == nil {
			m = make(map[chain.OutPoint]bool)
			s.ApprovedMine[op.Remote] = m
		}
		m[op.Deposit.Point] = true
	case OpOpenChannel:
		if _, ok := s.Channels[op.Channel]; ok {
			return fmt.Errorf("core: channel %s already exists", op.Channel)
		}
		s.Channels[op.Channel] = &ChannelState{
			ID:         op.Channel,
			Remote:     op.Remote,
			MyAddr:     op.Addr1,
			RemoteAddr: op.Addr2,
			Temp:       op.Count == 1, // Count doubles as the temp flag here
		}
	case OpChannelOpened:
		c, err := s.channel(op.Channel)
		if err != nil {
			return err
		}
		c.Open = true
		if !op.Addr2.IsZero() {
			c.RemoteAddr = op.Addr2
		}
	case OpAssociateMine:
		c, err := s.openChannel(op.Channel)
		if err != nil {
			return err
		}
		d, ok := s.Deposits[op.Deposit.Point]
		if !ok {
			return ErrUnknownDeposit
		}
		if !d.Free {
			return fmt.Errorf("core: deposit %s is not free", op.Deposit.Point)
		}
		d.Free = false
		d.Channel = op.Channel
		c.MyDeps = append(c.MyDeps, op.Deposit)
		c.MyBal += op.Deposit.Value
	case OpAssociateTheirs:
		c, err := s.openChannel(op.Channel)
		if err != nil {
			return err
		}
		if c.findDep(c.RemoteDeps, op.Deposit.Point) >= 0 {
			return fmt.Errorf("core: remote deposit %s already associated", op.Deposit.Point)
		}
		c.RemoteDeps = append(c.RemoteDeps, op.Deposit)
		c.RemoteBal += op.Deposit.Value
	case OpDissociateStart:
		// Matches the ideal functionality: the balance is deducted and
		// the deposit parked as pending immediately; it becomes free
		// only on the remote's acknowledgement.
		c, err := s.openChannel(op.Channel)
		if err != nil {
			return err
		}
		i := c.findDep(c.MyDeps, op.Deposit.Point)
		if i < 0 {
			return ErrUnknownDeposit
		}
		val := c.MyDeps[i].Value
		if c.MyBal < val {
			return ErrInsufficient
		}
		d := s.Deposits[op.Deposit.Point]
		if d == nil {
			return ErrUnknownDeposit
		}
		c.MyBal -= val
		c.MyDeps = append(c.MyDeps[:i], c.MyDeps[i+1:]...)
		d.Dissociating = true
	case OpDissociateTheirs:
		c, err := s.openChannel(op.Channel)
		if err != nil {
			return err
		}
		i := c.findDep(c.RemoteDeps, op.Deposit.Point)
		if i < 0 {
			return ErrUnknownDeposit
		}
		if c.RemoteBal < c.RemoteDeps[i].Value {
			return ErrInsufficient
		}
		c.RemoteBal -= c.RemoteDeps[i].Value
		c.RemoteDeps = append(c.RemoteDeps[:i], c.RemoteDeps[i+1:]...)
	case OpDissociateAck:
		d := s.Deposits[op.Deposit.Point]
		if d == nil {
			return ErrUnknownDeposit
		}
		if !d.Dissociating {
			return fmt.Errorf("core: deposit %s has no pending dissociation", op.Deposit.Point)
		}
		d.Dissociating = false
		d.Free = true
		d.Channel = ""
	case OpPaySend:
		c, err := s.openChannel(op.Channel)
		if err != nil {
			return err
		}
		if c.Stage != MhIdle {
			return ErrChannelLocked
		}
		if err := payGuard(c.MyBal, c.RemoteBal, op.Amount); err != nil {
			return err
		}
		c.MyBal -= op.Amount
		c.RemoteBal += op.Amount
		c.SentAmt += op.Amount
		c.SentCnt += uint64(op.Count)
	case OpPayRecv:
		c, err := s.openChannel(op.Channel)
		if err != nil {
			return err
		}
		if c.Stage != MhIdle {
			return ErrChannelLocked
		}
		if err := payGuard(c.RemoteBal, c.MyBal, op.Amount); err != nil {
			return err
		}
		c.RemoteBal -= op.Amount
		c.MyBal += op.Amount
		c.RecvAmt += op.Amount
		c.RecvCnt += uint64(op.Count)
	case OpPayRevert:
		// Reversal of an optimistic debit the peer rejected. The
		// "phantom" credit on our view of the remote balance cannot
		// have been spent by the remote (their own view never included
		// it), so the guard can only fail on protocol corruption.
		c, err := s.channel(op.Channel)
		if err != nil {
			return err
		}
		if err := payGuard(c.RemoteBal, c.MyBal, op.Amount); err != nil {
			return err
		}
		c.RemoteBal -= op.Amount
		c.MyBal += op.Amount
		c.SentAmt -= op.Amount
		c.SentCnt -= uint64(op.Count)
	case OpMhStart:
		if _, ok := s.Multihop[op.Payment]; ok {
			return fmt.Errorf("core: payment %s already exists", op.Payment)
		}
		s.Multihop[op.Payment] = &MultihopState{
			Payment: op.Payment,
			Amount:  op.Amount,
			Count:   op.Count,
			Path:    op.Path,
			Index:   op.Index,
			Fees:    op.Fees,
		}
	case OpMhStage:
		mh, ok := s.Multihop[op.Payment]
		if !ok {
			return fmt.Errorf("core: unknown payment %s", op.Payment)
		}
		if op.Tau != nil {
			mh.Tau = op.Tau
		}
		if op.Channel != "" {
			c, err := s.openChannel(op.Channel)
			if err != nil {
				return err
			}
			c.Stage = op.Stage
			c.Payment = op.Payment
			if op.Stage == MhUpdate && op.Amount != 0 {
				// Balance transfer applies exactly once per channel, at
				// the update stage (Alg. 2; positive = we receive).
				if op.Amount > 0 && c.RemoteBal < op.Amount {
					return ErrInsufficient
				}
				if op.Amount < 0 && c.MyBal < -op.Amount {
					return ErrInsufficient
				}
				c.MyBal += op.Amount
				c.RemoteBal -= op.Amount
			}
			if op.Stage == MhPostUpdate {
				// τ is discarded once the channel may settle
				// individually at post-payment state (Alg. 2 line 49).
				mh.Tau = nil
			}
			if op.Stage == MhIdle {
				c.Payment = ""
			}
		}
	case OpMhFinish:
		if _, ok := s.Multihop[op.Payment]; !ok {
			return fmt.Errorf("core: unknown payment %s", op.Payment)
		}
		delete(s.Multihop, op.Payment)
	case OpSettleIntent:
		c, err := s.openChannel(op.Channel)
		if err != nil {
			return err
		}
		c.ClosePending = true
	case OpCloseChannel:
		c, err := s.channel(op.Channel)
		if err != nil {
			return err
		}
		c.Closed = true
		c.Open = false
		for _, d := range c.MyDeps {
			if rec := s.Deposits[d.Point]; rec != nil {
				rec.Free = false
				rec.Released = true
			}
		}
	case OpFreeze:
		s.Frozen = true
	case OpRegisterPayoutKey:
		s.PayoutKeys[op.Remote.Address()] = op.Remote
	default:
		return fmt.Errorf("core: unknown op kind %v", op.Kind)
	}
	return nil
}

// payGuard validates one payment-op transfer of amount from debit to
// credit. Local entry points validate amounts before committing, so on
// a primary this is redundant belt-and-braces — but committee mirrors
// apply ops straight off the wire, where a forged non-positive amount
// would pass the one-sided balance guard vacuously and a huge one would
// wrap the credited balance (the same failure modes PR 3's sumBatch
// closed for payment batches).
func payGuard(debit, credit, amount chain.Amount) error {
	// Kept inlineable (the error construction is outlined): Apply runs
	// twice per payment on the simulator's hot path.
	if amount <= 0 || debit < amount || credit > math.MaxInt64-amount {
		return payGuardErr(debit, credit, amount)
	}
	return nil
}

//go:noinline
func payGuardErr(debit, credit, amount chain.Amount) error {
	if amount <= 0 {
		return fmt.Errorf("core: invalid replicated payment amount %d", amount)
	}
	if debit < amount {
		return ErrInsufficient
	}
	return fmt.Errorf("core: payment of %d overflows balance %d", amount, credit)
}

func (s *State) channel(id wire.ChannelID) (*ChannelState, error) {
	if c := s.lastCh.Load(); c != nil && c.ID == id {
		return c, nil
	}
	c, ok := s.Channels[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownChannel, id)
	}
	s.lastCh.Store(c)
	return c, nil
}

func (s *State) openChannel(id wire.ChannelID) (*ChannelState, error) {
	c, err := s.channel(id)
	if err != nil {
		return nil, err
	}
	if c.Closed {
		return nil, fmt.Errorf("%w: %s", ErrChannelClosed, id)
	}
	if !c.Open {
		return nil, fmt.Errorf("core: channel %s not yet open", id)
	}
	return c, nil
}

// PerceivedBalance is the user's total recoverable value as defined for
// balance correctness (Appendix A): channel balances plus free and
// dissociating deposits. Released deposits are excluded (already back on
// chain).
func (s *State) PerceivedBalance() chain.Amount {
	var total chain.Amount
	for _, c := range s.Channels {
		if !c.Closed {
			total += c.MyBal
		}
	}
	for _, d := range s.Deposits {
		if (d.Free || d.Dissociating) && !d.Released {
			total += d.Info.Value
		}
	}
	return total
}
