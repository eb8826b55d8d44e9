package core

import (
	"errors"
	"fmt"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// This file implements the Teechain multi-hop payment protocol (Alg. 2):
// six stages — lock, sign, preUpdate, update, postUpdate, release —
// crossing the path three times, plus the intermediate settlement
// transaction τ and proofs of premature termination (PoPTs) that keep
// every channel's settlement consistent without synchronous blockchain
// access.
//
// Note on balance direction: Alg. 2's update-stage pseudocode (lines
// 38-39) has the signs inverted relative to its own lock-stage check
// (line 7, the payer needs balance on the downstream channel) and to
// Fig. 2 (Alice pays Bob). We follow the lock-stage semantics: value
// flows from path[0] to path[len-1].

// pathIndexOf returns the position of id on the path, or -1.
func pathIndexOf(path []wire.PathHop, id cryptoutil.PublicKey) int {
	for i, hop := range path {
		if hop.Identity == id {
			return i
		}
	}
	return -1
}

// validateMhPath rejects malformed paths before any channel is locked:
// too short to name a counterparty, or visiting an identity twice. A
// cyclic path would ask one node to lock two of its channels under a
// single MultihopState whose Index can only point at one position,
// deadlocking the stage machine — so it must never get as far as a
// lock. Two-hop paths (a single channel) are legal: the lane's
// optimistic Pay can be nacked after the sender's call returned, so a
// caller that needs a definite per-payment verdict — routed payments
// above all — runs even adjacent pairs through the lock/sign/update
// stages.
func validateMhPath(path []wire.PathHop) error {
	if len(path) < 2 {
		return errors.New("core: multi-hop path needs at least two hops")
	}
	// Paths are a handful of hops: the quadratic scan beats a map.
	for i, hop := range path {
		if pathIndexOf(path[:i], hop.Identity) >= 0 {
			return fmt.Errorf("core: path visits %s twice", hop.Identity)
		}
	}
	return nil
}

// validateMhFees checks a lock's fee schedule against its path: either
// empty (a fee-free legacy payment) or exactly one non-negative entry
// per hop with zero at both endpoints (the initiator spends, the
// recipient receives; neither forwards).
func validateMhFees(path []wire.PathHop, fees []chain.Amount) error {
	if len(fees) == 0 {
		return nil
	}
	if len(fees) != len(path) {
		return fmt.Errorf("core: %d fees for %d hops", len(fees), len(path))
	}
	if fees[0] != 0 || fees[len(fees)-1] != 0 {
		return errors.New("core: endpoint hops cannot charge forwarding fees")
	}
	var total chain.Amount
	for _, f := range fees {
		if f < 0 {
			return fmt.Errorf("core: negative forwarding fee %d", f)
		}
		total += f
		if total < 0 {
			return errors.New("core: fee schedule overflows")
		}
	}
	return nil
}

// mhInOut returns what hop idx receives from upstream (in) and forwards
// downstream (out): in = amount + Σ fees[idx:], out = in − fees[idx].
// Fees compound toward the sender, so the initiator's out is the full
// debit (amount plus every fee) and the recipient's in is exactly
// amount. An empty schedule degenerates to in = out = amount.
func mhInOut(amount chain.Amount, fees []chain.Amount, idx int) (in, out chain.Amount) {
	in = amount
	for i := len(fees) - 1; i >= idx; i-- {
		in += fees[i]
	}
	out = in
	if idx < len(fees) {
		out -= fees[idx]
	}
	return in, out
}

// channelTo selects an open, idle channel to peer with at least amount
// of our balance. Temporary channels are picked first when usable
// (they exist to absorb load, §5.2), then the lowest channel ID, so the
// choice never depends on map order.
func (e *Enclave) channelTo(peer cryptoutil.PublicKey, amount chain.Amount) (*ChannelState, error) {
	var best *ChannelState
	for _, c := range e.state.Channels {
		if c.Remote != peer || !c.Open || c.Closed || c.Stage != MhIdle || c.ClosePending {
			continue
		}
		if c.MyBal < amount {
			continue
		}
		if best == nil || (c.Temp && !best.Temp) || (c.Temp == best.Temp && c.ID < best.ID) {
			best = c
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: no usable channel to %s with balance %d", ErrChannelLocked, peer, amount)
	}
	return best, nil
}

// addChannelToTau extends τ with a channel's deposits as inputs and its
// post-payment balances as outputs. delta is the balance change of the
// channel owner (negative when paying downstream).
func (e *Enclave) addChannelToTau(tau *chain.Transaction, c *ChannelState, delta chain.Amount) error {
	myKey, remoteKey, err := e.settlementKeys(c)
	if err != nil {
		return err
	}
	deps := make([]chain.OutPoint, 0, len(c.MyDeps)+len(c.RemoteDeps))
	for _, d := range c.MyDeps {
		deps = append(deps, d.Point)
	}
	for _, d := range c.RemoteDeps {
		deps = append(deps, d.Point)
	}
	if len(deps) == 0 {
		return fmt.Errorf("core: channel %s has no deposits", c.ID)
	}
	for _, p := range chain.SortOutPoints(deps) {
		tau.Inputs = append(tau.Inputs, chain.TxIn{Prev: p})
	}
	myPost := c.MyBal + delta
	remotePost := c.RemoteBal - delta
	if myPost < 0 || remotePost < 0 {
		return ErrInsufficient
	}
	if myPost > 0 {
		tau.Outputs = append(tau.Outputs, chain.TxOut{Value: myPost, Script: chain.PayToKey(myKey)})
	}
	if remotePost > 0 {
		tau.Outputs = append(tau.Outputs, chain.TxOut{Value: remotePost, Script: chain.PayToKey(remoteKey)})
	}
	return nil
}

// ErrStaleTau marks a τ whose recorded post-payment balances no longer
// match the channel: the sender built it from a balance snapshot that a
// concurrent payment has since moved. Benign — the initiator rebuilds τ
// from fresh balances and retries.
var ErrStaleTau = errors.New("core: stale τ")

// verifyTauChannel checks that τ covers channel c exactly: every
// deposit appears as an input and the post-payment balances appear as
// outputs. Receivers run it before accepting a lock, so a malicious
// upstream cannot smuggle in a τ that settles our channel wrong.
func (e *Enclave) verifyTauChannel(tau *chain.Transaction, c *ChannelState, delta chain.Amount) error {
	myKey, remoteKey, err := e.settlementKeys(c)
	if err != nil {
		return err
	}
	for _, deps := range [2][]wire.DepositInfo{c.MyDeps, c.RemoteDeps} {
		for i := range deps {
			if !tauSpends(tau, deps[i].Point) {
				return fmt.Errorf("core: τ missing deposit %s of channel %s", deps[i].Point, c.ID)
			}
		}
	}
	myPost := c.MyBal + delta
	remotePost := c.RemoteBal - delta
	if myPost < 0 || remotePost < 0 {
		return ErrInsufficient
	}
	if !tauPays(tau, myKey, myPost) {
		return fmt.Errorf("%w: τ does not pay our post-payment balance %d", ErrStaleTau, myPost)
	}
	if !tauPays(tau, remoteKey, remotePost) {
		return fmt.Errorf("%w: τ does not pay remote post-payment balance %d", ErrStaleTau, remotePost)
	}
	return nil
}

// tauSpends reports whether τ has an input spending point. τ has a few
// inputs per hop, so a scan beats building a set.
func tauSpends(tau *chain.Transaction, point chain.OutPoint) bool {
	for i := range tau.Inputs {
		if tau.Inputs[i].Prev == point {
			return true
		}
	}
	return false
}

func tauPays(tau *chain.Transaction, key cryptoutil.PublicKey, value chain.Amount) bool {
	if value == 0 {
		return true
	}
	addr := key.Address()
	for _, o := range tau.Outputs {
		if o.Value == value && o.Script.Address() == addr {
			return true
		}
	}
	return false
}

// signTauLocal fills every still-empty signature slot of τ whose
// deposit key this enclave holds (its own deposits and
// counterparty-shared 1-of-1 keys). Both ends of a channel hold a
// 1-of-1 deposit's key, and the sign stage reaches them one after the
// other with the same final τ: the first fills the slot and the second
// leaves it, where signing again would only replace one valid signature
// by another. Slots are written by attested enclaves alone (τ travels
// under session tokens), nothing on the payment path reads a signature
// before the stage completes, and the chain verifies every input when τ
// is ever submitted.
func (e *Enclave) signTauLocal(tau *chain.Transaction, channels ...*ChannelState) error {
	for _, c := range channels {
		if c == nil {
			continue
		}
		for i := range tau.Inputs {
			in := &tau.Inputs[i]
			for _, deps := range [2][]wire.DepositInfo{c.MyDeps, c.RemoteDeps} {
				for j := range deps {
					d := &deps[j]
					if d.Point != in.Prev {
						continue
					}
					for slot, k := range d.Script.Keys {
						kp, ok := e.btcKeys[k.Address()]
						if !ok {
							continue
						}
						if len(in.Sigs) == len(d.Script.Keys) && !in.Sigs[slot].IsZero() {
							continue
						}
						if err := tau.SignInput(i, d.Script, kp); err != nil {
							return err
						}
						e.tauSigned++
					}
				}
			}
		}
	}
	return nil
}

// mhChannels resolves the upstream and downstream channels of a
// payment at this node (nil when absent: the initiator has no upstream,
// the recipient no downstream).
func (e *Enclave) mhChannels(mh *MultihopState) (up, down *ChannelState) {
	for _, c := range e.state.Channels {
		if c.Payment == mh.Payment {
			if idx := pathIndexOf(mh.Path, c.Remote); idx >= 0 {
				if idx < mh.Index {
					up = c
				} else if idx > mh.Index {
					down = c
				}
			}
		}
	}
	return up, down
}

// PayMultihop initiates a fee-free multi-hop payment along path
// (payMultihop, Alg. 2 line 3). The initiator must be path[0] and the
// final recipient path[len-1]; intermediaries forward and the whole
// path updates atomically or not at all.
func (e *Enclave) PayMultihop(pid wire.PaymentID, amount chain.Amount, count int, path []cryptoutil.PublicKey) (*Result, error) {
	return e.PayMultihopFees(pid, amount, count, path, nil)
}

// PayMultihopFees initiates a multi-hop payment carrying a forwarding
// fee schedule (one entry per hop, zero at the endpoints — usually a
// route.Route's Fees): the recipient receives amount, each intermediary
// keeps its fee, and this enclave is debited amount plus every fee.
func (e *Enclave) PayMultihopFees(pid wire.PaymentID, amount chain.Amount, count int, path []cryptoutil.PublicKey, fees []chain.Amount) (*Result, error) {
	if amount <= 0 || count < 1 {
		return nil, fmt.Errorf("core: invalid multi-hop amount %d", amount)
	}
	hops := make([]wire.PathHop, len(path))
	for i, p := range path {
		hops[i] = wire.PathHop{Identity: p}
	}
	if err := validateMhPath(hops); err != nil {
		return nil, err
	}
	if err := validateMhFees(hops, fees); err != nil {
		return nil, err
	}
	if path[0] != e.identity.Public() {
		return nil, errors.New("core: multi-hop path must start at this enclave")
	}
	if _, ok := e.state.Multihop[pid]; ok {
		return nil, fmt.Errorf("core: payment %s already exists", pid)
	}
	_, send := mhInOut(amount, fees, 0)
	down, err := e.channelTo(path[1], send)
	if err != nil {
		return nil, err
	}
	tau := &chain.Transaction{}
	if err := e.addChannelToTau(tau, down, -send); err != nil {
		return nil, err
	}
	res, err := e.commit(&Op{Kind: OpMhStart, Payment: pid, Amount: amount, Count: count, Path: hops, Index: 0, Fees: fees}, nil, nil)
	if err != nil {
		return nil, err
	}
	out := oneOut(path[1], &wire.MhLock{
		Payment: pid, Amount: amount, Count: count, Path: hops, Channel: down.ID, Tau: tau, Fees: fees,
	})
	res2, err := e.commit(&Op{Kind: OpMhStage, Payment: pid, Channel: down.ID, Stage: MhLock}, out, nil)
	if err != nil {
		return nil, err
	}
	return res.merge(res2), nil
}

func (e *Enclave) handleMhLock(from cryptoutil.PublicKey, m *wire.MhLock) (*Result, error) {
	if err := validateMhPath(m.Path); err != nil {
		return nil, err
	}
	if err := validateMhFees(m.Path, m.Fees); err != nil {
		return nil, err
	}
	myIdx := pathIndexOf(m.Path, e.identity.Public())
	if myIdx <= 0 {
		return nil, errors.New("core: not on the payment path")
	}
	if m.Path[myIdx-1].Identity != from {
		return nil, errors.New("core: lock from non-predecessor")
	}
	if m.Amount <= 0 || m.Count < 1 {
		return nil, errors.New("core: invalid multi-hop amount")
	}
	if _, ok := e.state.Multihop[m.Payment]; ok {
		return nil, fmt.Errorf("core: payment %s already exists", m.Payment)
	}
	in, fwd := mhInOut(m.Amount, m.Fees, myIdx)

	abort := func(reason string) (*Result, error) {
		return &Result{Out: oneOut(from, &wire.MhAbort{Payment: m.Payment, Reason: reason})}, nil
	}
	// Benign refusals: the channel is mid-way through another payment or
	// τ was built from balances a concurrent payment has since moved.
	// Both clear on their own, so the initiator may simply retry.
	abortTransient := func(reason string) (*Result, error) {
		return &Result{Out: oneOut(from, &wire.MhAbort{Payment: m.Payment, Reason: reason, Transient: true})}, nil
	}

	up, ok := e.state.Channels[m.Channel]
	if !ok || up.Remote != from || !up.Open || up.Closed {
		return abort("unknown upstream channel")
	}
	if up.Stage != MhIdle {
		return abortTransient("upstream channel locked")
	}
	if up.RemoteBal < in {
		return abort("upstream payer balance insufficient")
	}
	if m.Tau == nil {
		return abort("missing τ")
	}
	// Validate that τ settles the upstream channel at the correct
	// post-payment state before committing to anything.
	if err := e.verifyTauChannel(m.Tau, up, in); err != nil {
		if errors.Is(err, ErrStaleTau) {
			return abortTransient(err.Error())
		}
		return abort(err.Error())
	}

	last := myIdx == len(m.Path)-1
	var down *ChannelState
	if !last {
		// Forwarding is paid work: the schedule must cover this hop's
		// policy on the amount it forwards. A shortfall means the sender
		// routed on a stale fee announcement — transient, so the host
		// resyncs its graph and repaths (the announced policy rides the
		// abort reason for immediate correction).
		var fee chain.Amount
		if myIdx < len(m.Fees) {
			fee = m.Fees[myIdx]
		}
		if want := e.feePolicy.Fee(fwd); fee < want {
			return abortTransient(fmt.Sprintf("forwarding fee %d below policy (want %d)", fee, want))
		}
		var err error
		down, err = e.channelTo(m.Path[myIdx+1].Identity, fwd)
		if err != nil {
			if errors.Is(err, ErrChannelLocked) {
				return abortTransient("no downstream capacity: " + err.Error())
			}
			return abort("no downstream capacity: " + err.Error())
		}
		if err := e.addChannelToTau(m.Tau, down, -fwd); err != nil {
			return abort(err.Error())
		}
	}

	res, err := e.commit(&Op{Kind: OpMhStart, Payment: m.Payment, Amount: m.Amount, Count: m.Count, Path: m.Path, Index: myIdx, Fees: m.Fees}, nil, nil)
	if err != nil {
		return nil, err
	}

	if last {
		// Recipient: sign τ for our keys and send sign backward
		// (Alg. 2 lines 12-14). The sign-stage op carries τ so our
		// committee countersigns via the replication acknowledgement.
		if err := e.signTauLocal(m.Tau, up); err != nil {
			return nil, err
		}
		out := oneOut(from, &wire.MhSign{Payment: m.Payment, Tau: m.Tau})
		res2, err := e.commit(&Op{Kind: OpMhStage, Payment: m.Payment, Channel: up.ID, Stage: MhSign, Tau: m.Tau}, out, nil)
		if err != nil {
			return nil, err
		}
		return res.merge(res2), nil
	}

	res2, err := e.commit(&Op{Kind: OpMhStage, Payment: m.Payment, Channel: up.ID, Stage: MhLock}, nil, nil)
	if err != nil {
		return nil, err
	}
	res.merge(res2)
	out := oneOut(m.Path[myIdx+1].Identity, &wire.MhLock{
		Payment: m.Payment, Amount: m.Amount, Count: m.Count, Path: m.Path, Channel: down.ID, Tau: m.Tau, Fees: m.Fees,
	})
	res3, err := e.commit(&Op{Kind: OpMhStage, Payment: m.Payment, Channel: down.ID, Stage: MhLock}, out, nil)
	if err != nil {
		return nil, err
	}
	return res.merge(res3), nil
}

func (e *Enclave) handleMhSign(from cryptoutil.PublicKey, m *wire.MhSign) (*Result, error) {
	mh, ok := e.state.Multihop[m.Payment]
	if !ok {
		return nil, fmt.Errorf("core: unknown payment %s", m.Payment)
	}
	if mh.Index+1 >= len(mh.Path) || mh.Path[mh.Index+1].Identity != from {
		return nil, errors.New("core: sign from non-successor")
	}
	up, down := e.mhChannels(mh)
	if down == nil || down.Stage != MhLock {
		return nil, fmt.Errorf("core: sign while downstream channel not locked")
	}
	if m.Tau == nil {
		return nil, errors.New("core: sign without τ")
	}
	if err := e.signTauLocal(m.Tau, up, down); err != nil {
		return nil, err
	}

	if mh.Index > 0 {
		out := oneOut(mh.Path[mh.Index-1].Identity, &wire.MhSign{Payment: m.Payment, Tau: m.Tau})
		return e.commit(&Op{Kind: OpMhStage, Payment: m.Payment, Channel: down.ID, Stage: MhSign, Tau: m.Tau}, out, nil)
	}

	// Initiator: τ must now be fully signed; verify before exposing
	// ourselves to τ-only settlement (Alg. 2 lines 20-23).
	res, err := e.commit(&Op{Kind: OpMhStage, Payment: m.Payment, Channel: down.ID, Stage: MhSign, Tau: m.Tau}, nil, nil)
	if err != nil {
		return nil, err
	}
	pre := oneOut(mh.Path[1].Identity, &wire.MhPreUpdate{Payment: m.Payment, Tau: m.Tau})
	res2, err := e.commit(&Op{Kind: OpMhStage, Payment: m.Payment, Channel: down.ID, Stage: MhPreUpdate, Tau: m.Tau}, pre, nil)
	if err != nil {
		return nil, err
	}
	return res.merge(res2), nil
}

func (e *Enclave) handleMhPreUpdate(from cryptoutil.PublicKey, m *wire.MhPreUpdate) (*Result, error) {
	mh, ok := e.state.Multihop[m.Payment]
	if !ok {
		return nil, fmt.Errorf("core: unknown payment %s", m.Payment)
	}
	if mh.Index == 0 || mh.Path[mh.Index-1].Identity != from {
		return nil, errors.New("core: preUpdate from non-predecessor")
	}
	up, down := e.mhChannels(mh)
	if up == nil {
		return nil, errors.New("core: preUpdate without upstream channel")
	}
	last := mh.Index == len(mh.Path)-1

	if last {
		if up.Stage != MhSign {
			return nil, fmt.Errorf("core: preUpdate at recipient in stage %v", up.Stage)
		}
		// Recipient applies the balance and sends update backward
		// (Alg. 2 lines 30-33).
		res, err := e.commit(&Op{Kind: OpMhStage, Payment: m.Payment, Channel: up.ID, Stage: MhPreUpdate, Tau: m.Tau}, nil, nil)
		if err != nil {
			return nil, err
		}
		out := oneOut(from, &wire.MhUpdate{Payment: m.Payment})
		ev := []Event{EvMultihopArrived{Payment: m.Payment, Amount: mh.Amount, Count: mh.Count}}
		res2, err := e.commit(&Op{Kind: OpMhStage, Payment: m.Payment, Channel: up.ID, Stage: MhUpdate, Amount: mh.Amount}, out, ev)
		if err != nil {
			return nil, err
		}
		return res.merge(res2), nil
	}

	if down == nil || down.Stage != MhSign {
		return nil, errors.New("core: preUpdate while downstream not in sign stage")
	}
	res, err := e.commit(&Op{Kind: OpMhStage, Payment: m.Payment, Channel: up.ID, Stage: MhPreUpdate, Tau: m.Tau}, nil, nil)
	if err != nil {
		return nil, err
	}
	out := oneOut(mh.Path[mh.Index+1].Identity, &wire.MhPreUpdate{Payment: m.Payment, Tau: m.Tau})
	res2, err := e.commit(&Op{Kind: OpMhStage, Payment: m.Payment, Channel: down.ID, Stage: MhPreUpdate, Tau: m.Tau}, out, nil)
	if err != nil {
		return nil, err
	}
	return res.merge(res2), nil
}

func (e *Enclave) handleMhUpdate(from cryptoutil.PublicKey, m *wire.MhUpdate) (*Result, error) {
	mh, ok := e.state.Multihop[m.Payment]
	if !ok {
		return nil, fmt.Errorf("core: unknown payment %s", m.Payment)
	}
	if mh.Index+1 >= len(mh.Path) || mh.Path[mh.Index+1].Identity != from {
		return nil, errors.New("core: update from non-successor")
	}
	up, down := e.mhChannels(mh)
	if down == nil || down.Stage != MhPreUpdate {
		return nil, errors.New("core: update while downstream not in preUpdate")
	}

	// Pay downstream (our balance on the downstream channel drops by
	// what we forward: the fee schedule's residue stays with us).
	in, fwd := mhInOut(mh.Amount, mh.Fees, mh.Index)
	res, err := e.commit(&Op{Kind: OpMhStage, Payment: m.Payment, Channel: down.ID, Stage: MhUpdate, Amount: -fwd}, nil, nil)
	if err != nil {
		return nil, err
	}

	if mh.Index > 0 {
		if up == nil {
			return nil, errors.New("core: interior node lost upstream channel")
		}
		// Receive upstream and forward the update.
		out := oneOut(mh.Path[mh.Index-1].Identity, &wire.MhUpdate{Payment: m.Payment})
		res2, err := e.commit(&Op{Kind: OpMhStage, Payment: m.Payment, Channel: up.ID, Stage: MhUpdate, Amount: in}, out, nil)
		if err != nil {
			return nil, err
		}
		return res.merge(res2), nil
	}

	// Initiator: discard τ, move to postUpdate (Alg. 2 lines 41-44).
	out := oneOut(mh.Path[1].Identity, &wire.MhPostUpdate{Payment: m.Payment})
	res2, err := e.commit(&Op{Kind: OpMhStage, Payment: m.Payment, Channel: down.ID, Stage: MhPostUpdate}, out, nil)
	if err != nil {
		return nil, err
	}
	return res.merge(res2), nil
}

func (e *Enclave) handleMhPostUpdate(from cryptoutil.PublicKey, m *wire.MhPostUpdate) (*Result, error) {
	mh, ok := e.state.Multihop[m.Payment]
	if !ok {
		return nil, fmt.Errorf("core: unknown payment %s", m.Payment)
	}
	if mh.Index == 0 || mh.Path[mh.Index-1].Identity != from {
		return nil, errors.New("core: postUpdate from non-predecessor")
	}
	up, down := e.mhChannels(mh)
	if up == nil || up.Stage != MhUpdate {
		return nil, errors.New("core: postUpdate while upstream not updated")
	}
	last := mh.Index == len(mh.Path)-1

	if last {
		// Recipient: unlock and send release backward (lines 52-54).
		res, err := e.commit(&Op{Kind: OpMhStage, Payment: m.Payment, Channel: up.ID, Stage: MhIdle}, nil, nil)
		if err != nil {
			return nil, err
		}
		out := oneOut(from, &wire.MhRelease{Payment: m.Payment})
		res2, err := e.commit(&Op{Kind: OpMhFinish, Payment: m.Payment}, out, nil)
		if err != nil {
			return nil, err
		}
		return res.merge(res2), nil
	}

	if down == nil || down.Stage != MhUpdate {
		return nil, errors.New("core: postUpdate while downstream not updated")
	}
	res, err := e.commit(&Op{Kind: OpMhStage, Payment: m.Payment, Channel: up.ID, Stage: MhPostUpdate}, nil, nil)
	if err != nil {
		return nil, err
	}
	out := oneOut(mh.Path[mh.Index+1].Identity, &wire.MhPostUpdate{Payment: m.Payment})
	res2, err := e.commit(&Op{Kind: OpMhStage, Payment: m.Payment, Channel: down.ID, Stage: MhPostUpdate}, out, nil)
	if err != nil {
		return nil, err
	}
	return res.merge(res2), nil
}

func (e *Enclave) handleMhRelease(from cryptoutil.PublicKey, m *wire.MhRelease) (*Result, error) {
	mh, ok := e.state.Multihop[m.Payment]
	if !ok {
		return nil, fmt.Errorf("core: unknown payment %s", m.Payment)
	}
	if mh.Index+1 >= len(mh.Path) || mh.Path[mh.Index+1].Identity != from {
		return nil, errors.New("core: release from non-successor")
	}
	up, down := e.mhChannels(mh)
	if down == nil || down.Stage != MhPostUpdate {
		return nil, errors.New("core: release while downstream not in postUpdate")
	}
	res, err := e.commit(&Op{Kind: OpMhStage, Payment: m.Payment, Channel: down.ID, Stage: MhIdle}, nil, nil)
	if err != nil {
		return nil, err
	}
	if mh.Index > 0 {
		if up != nil && up.Stage == MhPostUpdate {
			r, err := e.commit(&Op{Kind: OpMhStage, Payment: m.Payment, Channel: up.ID, Stage: MhIdle}, nil, nil)
			if err != nil {
				return nil, err
			}
			res.merge(r)
		}
		out := oneOut(mh.Path[mh.Index-1].Identity, &wire.MhRelease{Payment: m.Payment})
		r, err := e.commit(&Op{Kind: OpMhFinish, Payment: m.Payment}, out, nil)
		if err != nil {
			return nil, err
		}
		return res.merge(r), nil
	}
	// Initiator: the payment is complete.
	ev := []Event{EvMultihopComplete{Payment: m.Payment, OK: true}}
	r, err := e.commit(&Op{Kind: OpMhFinish, Payment: m.Payment}, nil, ev)
	if err != nil {
		return nil, err
	}
	return res.merge(r), nil
}

func (e *Enclave) handleMhAbort(from cryptoutil.PublicKey, m *wire.MhAbort) (*Result, error) {
	mh, ok := e.state.Multihop[m.Payment]
	if !ok {
		// Abort for a payment we never locked (failed before us):
		// nothing to unwind. If we are the initiator-to-be this is the
		// completion signal.
		return &Result{Events: []Event{EvMultihopComplete{Payment: m.Payment, OK: false, Reason: m.Reason, Transient: m.Transient}}}, nil
	}
	if mh.Index+1 >= len(mh.Path) || mh.Path[mh.Index+1].Identity != from {
		return nil, errors.New("core: abort from non-successor")
	}
	up, down := e.mhChannels(mh)
	// Aborting is only legal during the lock phase: after sign, τ may
	// exist and termination must go through eject (§5.1).
	for _, c := range []*ChannelState{up, down} {
		if c != nil && c.Stage != MhLock && c.Stage != MhSign {
			return nil, fmt.Errorf("core: abort in stage %v refused", c.Stage)
		}
	}
	res := &Result{}
	for _, c := range []*ChannelState{up, down} {
		if c == nil {
			continue
		}
		r, err := e.commit(&Op{Kind: OpMhStage, Payment: m.Payment, Channel: c.ID, Stage: MhIdle}, nil, nil)
		if err != nil {
			return nil, err
		}
		res.merge(r)
	}
	var out []Outbound
	var evs []Event
	if mh.Index > 0 {
		out = oneOut(mh.Path[mh.Index-1].Identity, &wire.MhAbort{Payment: m.Payment, Reason: m.Reason, Transient: m.Transient})
	} else {
		evs = []Event{EvMultihopComplete{Payment: m.Payment, OK: false, Reason: m.Reason, Transient: m.Transient}}
	}
	r, err := e.commit(&Op{Kind: OpMhFinish, Payment: m.Payment}, out, evs)
	if err != nil {
		return nil, err
	}
	return res.merge(r), nil
}
