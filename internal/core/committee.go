package core

import (
	"errors"
	"fmt"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// This file implements committee chains (§6): formation of the
// replication chain, member-side mirroring, and threshold
// countersigning of settlement transactions.

// FormCommittee configures this enclave's replication chain / committee
// with the given members (in chain order, excluding this enclave) and
// signature threshold m over n = len(members)+1 keys. Members must be
// attested already. The committee becomes usable once every member
// returns its blockchain key (EvCommitteeReady).
func (e *Enclave) FormCommittee(members []cryptoutil.PublicKey, m int) (*Result, error) {
	if e.state.Frozen {
		return nil, ErrFrozen
	}
	if e.repl != nil {
		return nil, errors.New("core: committee already formed")
	}
	n := len(members) + 1
	if m < 1 || m > n {
		return nil, fmt.Errorf("core: invalid threshold %d-of-%d", m, n)
	}
	// attachSeq is the log cursor the attach snapshot covers; members
	// seed their mirror cursor from it so the stream resumes at
	// attachSeq+1 (nonzero only for a durable owner's unified log).
	var attachSeq uint64
	for _, peer := range members {
		if _, err := e.session(peer); err != nil {
			return nil, err
		}
	}
	all := append([]cryptoutil.PublicKey{e.identity.Public()}, members...)
	e.repl = &replPrimary{
		chainID:       e.ChainID(),
		members:       all,
		m:             m,
		memberBtcKeys: make(map[cryptoutil.PublicKey]cryptoutil.PublicKey),
	}
	if e.wal != nil {
		// Durable enclave: adopt the WAL log wholesale so replication
		// and durability share one sequence space and one ring of
		// withheld effects (released only once every enabled cursor
		// passes an entry). The combined notify wakes both flushers.
		log := e.wal.log
		log.notify = bothNotify(log.notify, e.replNotify)
		// Pre-formation ops ride the ReplAttach snapshot, not the
		// replication stream — and a durable log is always pipelined,
		// so appends never advanced flushSeq. Jump the replication
		// cursors to the committed frontier.
		log.mu.Lock()
		log.flushSeq = log.nextSeq
		log.ackSeq = log.nextSeq
		attachSeq = log.nextSeq
		log.mu.Unlock()
		e.repl.log = log
	} else {
		// A concurrent host (EnableConcurrentHost) gets the chain's log
		// in pipelined mode; the simulator's gets immediate mode.
		e.repl.log = &replLog{pipelined: e.replPipelined, notify: e.replNotify}
	}
	if len(members) == 0 {
		e.repl.ready = true
		return &Result{Events: []Event{EvCommitteeReady{Chain: e.repl.chainID}}}, nil
	}
	snap, err := e.snapshotState()
	if err != nil {
		return nil, err
	}
	hops := make([]wire.PathHop, len(all))
	for i, id := range all {
		hops[i] = wire.PathHop{Identity: id}
	}
	res := &Result{}
	for _, peer := range members {
		res.Out = append(res.Out, Outbound{To: peer, Msg: &wire.ReplAttach{
			Chain:    e.repl.chainID,
			Members:  hops,
			M:        m,
			Payout:   e.state.OwnerPayout,
			Snapshot: snap,
			Seq:      attachSeq,
		}})
	}
	return res, nil
}

// CommitteeReady reports whether deposits can be created under the
// committee's scripts.
func (e *Enclave) CommitteeReady() bool {
	return e.repl != nil && e.repl.ready
}

// MirrorCount reports how many chains this enclave serves as a
// committee member / backup for.
func (e *Enclave) MirrorCount() int { return len(e.backups) }

func (e *Enclave) handleReplAttach(from cryptoutil.PublicKey, m *wire.ReplAttach) (*Result, error) {
	if len(m.Members) < 2 {
		return nil, errors.New("core: replication chain needs at least two members")
	}
	owner := m.Members[0].Identity
	if owner != from {
		return nil, errors.New("core: replication attach must come from the chain owner")
	}
	myIndex := -1
	members := make([]cryptoutil.PublicKey, len(m.Members))
	for i, hop := range m.Members {
		members[i] = hop.Identity
		if hop.Identity == e.identity.Public() {
			myIndex = i
		}
	}
	if myIndex <= 0 {
		return nil, errors.New("core: not listed as a member of the chain")
	}
	if _, ok := e.backups[m.Chain]; ok {
		return nil, fmt.Errorf("core: already a member of chain %s", m.Chain)
	}
	mirror, err := decodeState(m.Snapshot)
	if err != nil {
		return nil, err
	}
	if mirror.Owner != owner || mirror.OwnerPayout != m.Payout {
		return nil, errors.New("core: snapshot owner does not match chain owner")
	}
	btcKey, err := e.newBtcKey()
	if err != nil {
		return nil, err
	}
	e.backups[m.Chain] = &replBackup{
		chainID:     m.Chain,
		members:     members,
		m:           m.M,
		myIndex:     myIndex,
		mirror:      mirror,
		btcKey:      btcKey,
		lastSeq:     m.Seq, // the snapshot covers the stream up to here
		digBase:     m.Seq, // sequences inside the snapshot are unverifiable
		pendingSigs: make(map[uint64][]wire.TauSig),
	}
	return &Result{Out: oneOut(from, &wire.ReplAttachAck{Chain: m.Chain, BtcKey: btcKey.Public()})}, nil
}

func (e *Enclave) handleReplAttachAck(from cryptoutil.PublicKey, m *wire.ReplAttachAck) (*Result, error) {
	if e.repl == nil || e.repl.chainID != m.Chain {
		return nil, fmt.Errorf("core: attach ack for unknown chain %s", m.Chain)
	}
	isMember := false
	for _, id := range e.repl.members[1:] {
		if id == from {
			isMember = true
			break
		}
	}
	if !isMember {
		return nil, errors.New("core: attach ack from non-member")
	}
	if _, ok := e.repl.memberBtcKeys[from]; ok {
		return nil, errors.New("core: duplicate attach ack")
	}
	e.repl.memberBtcKeys[from] = m.BtcKey
	if len(e.repl.memberBtcKeys) == len(e.repl.members)-1 {
		e.repl.ready = true
		return &Result{Events: []Event{EvCommitteeReady{Chain: m.Chain}}}, nil
	}
	return &Result{}, nil
}

// handleSigRequest is the committee member's countersigning path: it
// validates the proposed settlement against the mirrored owner state
// and, only if consistent, contributes its threshold signature. This
// check is what confines a compromised owner enclave: with fewer than
// m cooperating keys, no stale or fabricated settlement reaches the
// blockchain (§6.1).
func (e *Enclave) handleSigRequest(from cryptoutil.PublicKey, m *wire.SigRequest) (*Result, error) {
	if m.Tx == nil || m.Input < 0 || m.Input >= len(m.Tx.Inputs) {
		return nil, errors.New("core: malformed signature request")
	}
	txID := m.Tx.ID()
	refuse := func(reason string) *Result {
		return &Result{Out: oneOut(from, &wire.SigResponse{
			Chain: m.Chain, TxID: txID, Input: m.Input, Refused: true, Reason: reason,
		})}
	}
	rec, mirror, err := e.lookupCommitteeDeposit(m.Chain, m.Tx.Inputs[m.Input].Prev)
	if err != nil {
		return refuse(err.Error()), nil
	}
	if err := authorizeSettlement(mirror, m.Tx); err != nil {
		return refuse(err.Error()), nil
	}
	signKey, slot := e.committeeSignKey(m.Chain, rec.Info.Script)
	if signKey == nil {
		return refuse("no committee key for this deposit script"), nil
	}
	cp := m.Tx.Clone()
	if err := cp.SignInput(m.Input, rec.Info.Script, signKey); err != nil {
		return nil, err
	}
	return &Result{Out: oneOut(from, &wire.SigResponse{
		Chain: m.Chain,
		TxID:  txID,
		Input: m.Input,
		Slot:  slot,
		Sig:   cp.Inputs[m.Input].Sigs[slot],
	})}, nil
}

// lookupCommitteeDeposit resolves a deposit record and the state to
// validate against for a chain this enclave participates in — as a
// committee member (mirror) or as the chain's own primary (a
// counterparty collecting signatures may ask the owner too).
func (e *Enclave) lookupCommitteeDeposit(chainID string, point chain.OutPoint) (*DepositRecord, *State, error) {
	if b, ok := e.backups[chainID]; ok {
		rec, ok := b.mirror.Deposits[point]
		if !ok {
			return nil, nil, errors.New("input does not spend a mirrored deposit")
		}
		return rec, b.mirror, nil
	}
	if e.repl != nil && e.repl.chainID == chainID {
		rec, ok := e.state.Deposits[point]
		if !ok {
			return nil, nil, errors.New("input does not spend an owned deposit")
		}
		return rec, e.state, nil
	}
	return nil, nil, fmt.Errorf("not a member of chain %s", chainID)
}

// committeeSignKey picks the key this enclave contributes to a deposit
// script: its committee member key, or (as the chain owner) the
// per-deposit owner key.
func (e *Enclave) committeeSignKey(chainID string, script chain.Script) (*cryptoutil.KeyPair, int) {
	if b, ok := e.backups[chainID]; ok && b.btcKey != nil {
		pub := b.btcKey.Public()
		for j, k := range script.Keys {
			if k == pub {
				return b.btcKey, j
			}
		}
		return nil, -1
	}
	for j, k := range script.Keys {
		if kp, ok := e.btcKeys[k.Address()]; ok {
			return kp, j
		}
	}
	return nil, -1
}

// handleSigResponse records a committee signature into a transaction
// the host is completing. The enclave tracks outstanding collections by
// sighash.
func (e *Enclave) handleSigResponse(from cryptoutil.PublicKey, m *wire.SigResponse) (*Result, error) {
	if m.Refused {
		return &Result{Events: []Event{EvSigRefused{From: from, Reason: m.Reason}}}, nil
	}
	col, ok := e.sigCollections[m.TxID]
	if !ok {
		return nil, fmt.Errorf("core: signature response for unknown collection %s", m.TxID)
	}
	if m.Input < 0 || m.Input >= len(col.tx.Inputs) {
		return nil, errors.New("core: signature response input out of range")
	}
	in := &col.tx.Inputs[m.Input]
	script := col.scripts[m.Input]
	if m.Slot < 0 || m.Slot >= len(script.Keys) {
		return nil, errors.New("core: signature response slot out of range")
	}
	if len(in.Sigs) != len(script.Keys) {
		in.Sigs = make([]cryptoutil.Signature, len(script.Keys))
	}
	digest := col.tx.SigHash()
	if !cryptoutil.Verify(script.Keys[m.Slot], digest[:], m.Sig) {
		return nil, errors.New("core: committee signature invalid")
	}
	in.Sigs[m.Slot] = m.Sig
	col.pending--
	if col.pending <= 0 {
		delete(e.sigCollections, m.TxID)
		// Verify every input is now satisfied before declaring success.
		for i, s := range col.scripts {
			if err := col.tx.VerifyInput(i, s); err != nil {
				return nil, fmt.Errorf("core: completed settlement still unsatisfied: %w", err)
			}
		}
		return &Result{Events: []Event{EvSigComplete{Tx: col.tx}}}, nil
	}
	return &Result{}, nil
}

// sigCollection tracks an in-progress threshold signature gathering.
type sigCollection struct {
	tx      *chain.Transaction
	scripts []chain.Script
	pending int
}

// CollectSignatures starts gathering committee signatures for the
// unsatisfied inputs of a settlement transaction. It returns the
// SigRequest messages to send; EvSigComplete fires when the
// transaction becomes submittable.
func (e *Enclave) CollectSignatures(tx *chain.Transaction, deps []wire.DepositInfo, needs []SigNeed) (*Result, error) {
	if len(needs) == 0 {
		return &Result{Events: []Event{EvSigComplete{Tx: tx}}}, nil
	}
	col := &sigCollection{tx: tx}
	col.scripts = make([]chain.Script, len(tx.Inputs))
	for i, d := range deps {
		col.scripts[i] = d.Script
	}
	res := &Result{}
	for _, need := range needs {
		d := deps[need.Input]
		// Ask exactly enough members to reach the threshold beyond the
		// signatures already present.
		have := 0
		if need.Input < len(tx.Inputs) {
			for _, s := range tx.Inputs[need.Input].Sigs {
				if !s.IsZero() {
					have++
				}
			}
		}
		wanted := d.Script.M - have
		if wanted <= 0 {
			continue
		}
		asked := 0
		for _, member := range need.Members {
			if asked >= wanted {
				break
			}
			if _, err := e.session(member); err != nil {
				continue
			}
			// Each member receives its own clone: the canonical tx is
			// mutated as signatures arrive, and in-memory transports
			// share pointers.
			res.Out = append(res.Out, Outbound{To: member, Msg: &wire.SigRequest{
				Chain: need.Committee, Tx: tx.Clone(), Input: need.Input,
			}})
			asked++
			col.pending++
		}
		if asked < wanted {
			return nil, fmt.Errorf("core: cannot reach threshold for input %d: need %d more signers, reached %d",
				need.Input, wanted, asked)
		}
	}
	if col.pending == 0 {
		return &Result{Events: []Event{EvSigComplete{Tx: tx}}}, nil
	}
	e.sigCollections[tx.ID()] = col
	return res, nil
}

// MirrorState exposes a committee mirror for the host (failover
// settlement and tests).
func (e *Enclave) MirrorState(chainID string) (*State, bool) {
	b, ok := e.backups[chainID]
	if !ok {
		return nil, false
	}
	return b.mirror, true
}

// SettleFromMirror builds settlement transactions for every open
// channel in a mirrored (frozen) state — the failover path when the
// chain owner has crashed: any live member can settle the owner's
// channels at their last replicated balances (§6).
func (e *Enclave) SettleFromMirror(chainID string) ([]*chain.Transaction, [][]wire.DepositInfo, error) {
	b, ok := e.backups[chainID]
	if !ok {
		return nil, nil, fmt.Errorf("core: not a member of chain %s", chainID)
	}
	if !b.frozen {
		return nil, nil, errors.New("core: chain must be frozen before mirror settlement (force-freeze)")
	}
	var txs []*chain.Transaction
	var depsPerTx [][]wire.DepositInfo
	for _, c := range b.mirror.Channels {
		if c.Closed || !c.Open || len(c.MyDeps)+len(c.RemoteDeps) == 0 {
			continue
		}
		myKey, ok := lookupKey(b.mirror, c.MyAddr)
		if !ok {
			return nil, nil, fmt.Errorf("core: mirror has no payout key for %s", c.MyAddr)
		}
		remoteKey, ok2 := lookupKey(b.mirror, c.RemoteAddr)
		if !ok2 {
			return nil, nil, fmt.Errorf("core: mirror has no payout key for %s", c.RemoteAddr)
		}
		tx, deps, err := buildChannelSettlement(c, c.MyBal, c.RemoteBal, myKey, remoteKey)
		if err != nil {
			return nil, nil, err
		}
		// Contribute our own signature where our committee key is in
		// the script.
		for i, d := range deps {
			for _, k := range d.Script.Keys {
				if k == b.btcKey.Public() {
					if err := tx.SignInput(i, d.Script, b.btcKey); err != nil {
						return nil, nil, err
					}
				}
			}
		}
		txs = append(txs, tx)
		depsPerTx = append(depsPerTx, deps)
	}
	return txs, depsPerTx, nil
}

// lookupKey resolves a settlement address to its public key using the
// payout keys recorded in the replicated state.
func lookupKey(st *State, addr cryptoutil.Address) (cryptoutil.PublicKey, bool) {
	k, ok := st.PayoutKeys[addr]
	return k, ok
}

// EvSigRefused reports a committee member declining to countersign; the
// host may retry with other members or investigate.
type EvSigRefused struct {
	From   cryptoutil.PublicKey
	Reason string
}

// --- Post-recovery committee resync (§6.2 durable mode) ---

// ReplResyncStart re-seeds every committee member's mirror with this
// crash-recovered primary's state, resuming replication from the
// persisted cursor. Mirrors the primary lost contact with may be AHEAD
// of the recovered state (ops flushed but not yet fsynced before the
// crash) — replacing them wholesale is safe because the primary never
// released the effects of those ops, so nothing external depends on
// them. EvReplResynced fires once every member acknowledges.
func (e *Enclave) ReplResyncStart() (*Result, error) {
	if e.repl == nil {
		return nil, errors.New("core: no committee to resync")
	}
	if e.state.Frozen {
		return nil, ErrFrozen
	}
	if len(e.repl.members) < 2 {
		return &Result{Events: []Event{EvReplResynced{Chain: e.repl.chainID}}}, nil
	}
	snap, err := e.snapshotState()
	if err != nil {
		return nil, err
	}
	l := e.repl.log
	l.mu.Lock()
	seq := l.nextSeq
	l.mu.Unlock()
	res := &Result{}
	for _, peer := range e.repl.members[1:] {
		if _, err := e.session(peer); err != nil {
			return nil, err
		}
		res.Out = append(res.Out, Outbound{To: peer, Msg: &wire.ReplResync{
			Chain: e.repl.chainID, Snapshot: snap, Seq: seq,
		}})
	}
	e.repl.resyncPending = len(e.repl.members) - 1
	e.repl.resyncSeq = seq
	return res, nil
}

func (e *Enclave) handleReplResync(from cryptoutil.PublicKey, m *wire.ReplResync) (*Result, error) {
	b, ok := e.backups[m.Chain]
	if !ok {
		return nil, fmt.Errorf("core: not a member of chain %s", m.Chain)
	}
	if from != b.members[0] {
		return nil, errors.New("core: resync must come from the chain owner")
	}
	mirror, err := decodeState(m.Snapshot)
	if err != nil {
		return nil, err
	}
	if mirror.Owner != from || mirror.OwnerPayout != b.mirror.OwnerPayout {
		return nil, errors.New("core: resync snapshot does not match chain owner")
	}
	b.mirror = mirror
	b.lastSeq = m.Seq
	b.frozen = false
	clear(b.pendingSigs)
	// The wholesale snapshot supersedes everything the self-healing
	// machinery buffered or remembered about the old stream.
	b.held = nil
	b.digests = nil
	b.digBase = m.Seq
	b.replProgress()
	return &Result{Out: oneOut(from, &wire.ReplResyncAck{Chain: m.Chain, Seq: m.Seq})}, nil
}

func (e *Enclave) handleReplResyncAck(from cryptoutil.PublicKey, m *wire.ReplResyncAck) (*Result, error) {
	if e.repl == nil || e.repl.chainID != m.Chain {
		return nil, fmt.Errorf("core: resync ack for unknown chain %s", m.Chain)
	}
	isMember := false
	for _, id := range e.repl.members[1:] {
		if id == from {
			isMember = true
			break
		}
	}
	if !isMember {
		return nil, errors.New("core: resync ack from non-member")
	}
	if e.repl.resyncPending <= 0 {
		return &Result{}, nil
	}
	e.repl.resyncPending--
	if e.repl.resyncPending == 0 {
		// Every member adopted the snapshot at resyncSeq, so everything
		// up to it is replicated: advance the ack (and flush) cursor
		// there and release the covered withheld effects. After crash
		// recovery the log is empty and this is a no-op; after a live
		// stall (watchdog self-heal) it is exactly what un-wedges the
		// window — the acks the lost frame's batch would have produced.
		res := e.pools.getResult()
		res.Events = append(res.Events, EvReplResynced{Chain: m.Chain})
		l := e.repl.log
		l.mu.Lock()
		if s := e.repl.resyncSeq; s > l.ackSeq {
			l.ackSeq = s
			if l.flushSeq < s {
				l.flushSeq = s
			}
		}
		target := l.releaseTargetLocked(true)
		l.mu.Unlock()
		e.releaseTo(l, target, res)
		return res, nil
	}
	return &Result{}, nil
}
