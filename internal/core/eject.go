package core

import (
	"errors"
	"fmt"

	"teechain/internal/chain"
	"teechain/internal/wire"
)

// This file implements premature termination of multi-hop payments
// (Alg. 2 eject, §5.1): voluntary ejection returns stage-appropriate
// settlement transactions, and proofs of premature termination (PoPTs)
// let the remaining participants settle consistently with whichever
// state the ejector committed to the blockchain.

// mhDelta returns the payment's balance delta for a channel from this
// node's perspective: +amount on the upstream channel (we receive),
// -amount on the downstream channel (we pay).
func mhDelta(mh *MultihopState, upstream bool) chain.Amount {
	if upstream {
		return mh.Amount
	}
	return -mh.Amount
}

// balanceApplied reports whether the update-stage balance transfer has
// already been applied to this channel's view.
func balanceApplied(c *ChannelState) bool {
	return c.Stage == MhUpdate || c.Stage == MhPostUpdate
}

// settleChannelAt builds a settlement for channel c at pre- or
// post-payment balances relative to the in-flight payment.
func (e *Enclave) settleChannelAt(c *ChannelState, mh *MultihopState, upstream, post bool) (*chain.Transaction, []wire.DepositInfo, error) {
	myBal, remoteBal := c.MyBal, c.RemoteBal
	delta := mhDelta(mh, upstream)
	applied := balanceApplied(c)
	switch {
	case post && !applied:
		myBal += delta
		remoteBal -= delta
	case !post && applied:
		myBal -= delta
		remoteBal += delta
	}
	if myBal < 0 || remoteBal < 0 {
		return nil, nil, ErrInsufficient
	}
	myKey, remoteKey, err := e.settlementKeys(c)
	if err != nil {
		return nil, nil, err
	}
	return buildChannelSettlement(c, myBal, remoteBal, myKey, remoteKey)
}

// ejectLocalChannels closes and settles this node's payment channels at
// pre- or post-payment state, signing what it can and reporting
// outstanding committee needs.
func (e *Enclave) ejectLocalChannels(mh *MultihopState, post bool) (*SettleResult, error) {
	up, down := e.mhChannels(mh)
	if up == nil && down == nil {
		return nil, errors.New("core: no channels participate in this payment")
	}
	out := &SettleResult{Result: &Result{}}
	type job struct {
		c        *ChannelState
		upstream bool
	}
	var jobs []job
	if up != nil && !up.Closed {
		jobs = append(jobs, job{up, true})
	}
	if down != nil && !down.Closed {
		jobs = append(jobs, job{down, false})
	}
	if len(jobs) == 0 {
		// Both channels already settled (e.g. observed on chain); just
		// finish the payment record.
		res, err := e.commit(&Op{Kind: OpMhFinish, Payment: mh.Payment}, nil, nil)
		if err != nil {
			return nil, err
		}
		return &SettleResult{Result: res}, nil
	}
	for _, j := range jobs {
		tx, deps, err := e.settleChannelAt(j.c, mh, j.upstream, post)
		if err != nil {
			return nil, err
		}
		needs := e.signSettlementInputs(tx, deps)
		out.Txs = append(out.Txs, tx)
		out.Needs = append(out.Needs, needs)
		res, err := e.commit(&Op{Kind: OpCloseChannel, Channel: j.c.ID}, nil, []Event{
			EvChannelClosed{Channel: j.c.ID, OffChain: false},
			EvSettlementReady{Channel: j.c.ID, Tx: tx, Needs: needs},
		})
		if err != nil {
			return nil, err
		}
		out.Result.merge(res)
	}
	res, err := e.commit(&Op{Kind: OpMhFinish, Payment: mh.Payment}, nil, nil)
	if err != nil {
		return nil, err
	}
	out.Result.merge(res)
	return out, nil
}

// EjectPayment is voluntary premature termination (Alg. 2 line 60).
// The returned transactions depend on the stage: pre-payment
// settlements during lock/sign, τ during preUpdate/update, post-payment
// settlements during postUpdate/release.
func (e *Enclave) EjectPayment(pid wire.PaymentID) (*SettleResult, error) {
	mh, ok := e.state.Multihop[pid]
	if !ok {
		return nil, fmt.Errorf("core: unknown payment %s", pid)
	}
	up, down := e.mhChannels(mh)
	stage := MhIdle
	if down != nil {
		stage = down.Stage
	} else if up != nil {
		stage = up.Stage
	}
	switch stage {
	case MhLock, MhSign:
		return e.ejectLocalChannels(mh, false)
	case MhPreUpdate, MhUpdate:
		if mh.Tau == nil {
			return nil, errors.New("core: τ unavailable for ejection")
		}
		// Verify τ is fully signed before relying on it for settlement.
		tau := mh.Tau
		res := &SettleResult{Txs: []*chain.Transaction{tau}, Needs: [][]SigNeed{nil}, Result: &Result{}}
		for _, c := range []*ChannelState{up, down} {
			if c == nil {
				continue
			}
			r, err := e.commit(&Op{Kind: OpCloseChannel, Channel: c.ID}, nil, []Event{
				EvChannelClosed{Channel: c.ID, OffChain: false},
			})
			if err != nil {
				return nil, err
			}
			res.Result.merge(r)
		}
		res.Result.Events = append(res.Result.Events, EvSettlementReady{Tx: tau})
		r, err := e.commit(&Op{Kind: OpMhFinish, Payment: pid}, nil, nil)
		if err != nil {
			return nil, err
		}
		res.Result.merge(r)
		return res, nil
	case MhPostUpdate:
		return e.ejectLocalChannels(mh, true)
	default:
		return nil, fmt.Errorf("core: eject in stage %v is ordinary settlement (use Settle)", stage)
	}
}

// classifyPoPT decides whether popt settles a path channel at pre- or
// post-payment state. A post-payment individual settlement pays exactly
// the per-party outputs that τ pays for those deposits; anything else
// conflicting with τ is pre-payment.
func classifyPoPT(tau, popt *chain.Transaction) (post bool, err error) {
	if tau == nil {
		return false, errors.New("core: no τ to classify against")
	}
	if popt.SigHash() == tau.SigHash() {
		return false, errors.New("core: τ itself settles all channels; no ejection needed")
	}
	tauInputs := make(map[chain.OutPoint]bool, len(tau.Inputs))
	for _, in := range tau.Inputs {
		tauInputs[in.Prev] = true
	}
	if !popt.SpendsAnyOf(tauInputs) {
		return false, errors.New("core: transaction does not conflict with τ")
	}
	// Count τ's outputs; popt is post-payment iff all its outputs
	// appear among them.
	type outKey struct {
		value chain.Amount
		addr  [20]byte
	}
	avail := make(map[outKey]int, len(tau.Outputs))
	for _, o := range tau.Outputs {
		avail[outKey{o.Value, o.Script.Address()}]++
	}
	post = true
	for _, o := range popt.Outputs {
		k := outKey{o.Value, o.Script.Address()}
		if avail[k] == 0 {
			post = false
			break
		}
		avail[k]--
	}
	return post, nil
}

// EjectWithPoPT terminates after another participant prematurely
// settled (Alg. 2 line 66): popt, a conflicting settlement observed on
// the blockchain, authorizes settling our channels in the same
// (pre- or post-payment) state.
func (e *Enclave) EjectWithPoPT(pid wire.PaymentID, popt *chain.Transaction) (*SettleResult, error) {
	mh, ok := e.state.Multihop[pid]
	if !ok {
		return nil, fmt.Errorf("core: unknown payment %s", pid)
	}
	if popt == nil {
		return nil, errors.New("core: missing PoPT transaction")
	}
	post, err := classifyPoPT(mh.Tau, popt)
	if err != nil {
		return nil, err
	}
	// The PoPT must not be a settlement of our own channels — those we
	// observe directly via ObserveSpent.
	up, down := e.mhChannels(mh)
	own := make(map[chain.OutPoint]bool)
	for _, c := range []*ChannelState{up, down} {
		if c == nil {
			continue
		}
		for _, d := range append(append([]wire.DepositInfo{}, c.MyDeps...), c.RemoteDeps...) {
			own[d.Point] = true
		}
	}
	if popt.SpendsAnyOf(own) {
		return nil, errors.New("core: transaction settles our own channel; not a PoPT")
	}
	return e.ejectLocalChannels(mh, post)
}

// ObserveSpent informs the enclave that one of its channel deposits was
// spent on the blockchain by tx (the host watches deposit outpoints).
// If tx is a legitimate settlement of the channel (the counterparty
// settled unilaterally, or τ confirmed), the channel closes locally.
func (e *Enclave) ObserveSpent(point chain.OutPoint, tx *chain.Transaction) (*Result, error) {
	var target *ChannelState
	for _, c := range e.state.Channels {
		if c.Closed {
			continue
		}
		if c.findDep(c.MyDeps, point) >= 0 || c.findDep(c.RemoteDeps, point) >= 0 {
			target = c
			break
		}
	}
	if target == nil {
		// A free deposit released earlier, or an unknown spend.
		return &Result{}, nil
	}
	ev := []Event{EvChannelClosed{Channel: target.ID, OffChain: false}}
	res, err := e.commit(&Op{Kind: OpCloseChannel, Channel: target.ID}, nil, ev)
	if err != nil {
		return nil, err
	}
	if target.Payment != "" {
		if r, err2 := e.commit(&Op{Kind: OpMhFinish, Payment: target.Payment}, nil, nil); err2 == nil {
			res.merge(r)
		}
	}
	return res, nil
}
