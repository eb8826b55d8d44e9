package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync/atomic"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/route"
	"teechain/internal/tee"
	"teechain/internal/wire"
)

// ProgramName identifies the Teechain enclave program; all honest
// enclaves share its measurement.
const ProgramName = "teechain-enclave-v1"

// Config carries an enclave's local security policy.
type Config struct {
	// MinConfirmations is how deep a deposit must be buried before this
	// enclave approves it for a shared channel (§4.1 deposit approval).
	MinConfirmations uint64
	// AllowOutsource permits one TEE-less user to attach and drive this
	// enclave remotely (§3).
	AllowOutsource bool
	// PayoutKey is the owner's cold settlement key; deposit releases pay
	// its address and committee members refuse any other destination.
	PayoutKey cryptoutil.PublicKey
}

// peerSession is the secure-channel state for one attested remote
// enclave (netaes of Alg. 1).
type peerSession struct {
	remote      cryptoutil.PublicKey
	dh          *cryptoutil.DHKeyPair
	key         [32]byte
	transport   *cryptoutil.Session
	established bool
}

// replPrimary is the head-of-chain view of this enclave's own
// replication chain / committee.
type replPrimary struct {
	chainID string
	// members in chain order; members[0] is this enclave.
	members []cryptoutil.PublicKey
	m       int // signature threshold for deposits
	// btcKeys[i] is member i's committee blockchain key (index 0 unused;
	// the owner uses fresh per-deposit keys).
	memberBtcKeys map[cryptoutil.PublicKey]cryptoutil.PublicKey
	ready         bool

	// resyncPending counts committee members yet to acknowledge a
	// post-recovery mirror resync (ReplResyncStart); EvReplResynced
	// fires when it reaches zero. resyncSeq is the log sequence the
	// resync snapshot covers: once every member adopted it, everything
	// up to it is replicated by definition, so the ack cursor may jump
	// there (releasing a stalled window's withheld effects — the
	// watchdog self-heal path).
	resyncPending int
	resyncSeq     uint64

	// log is the replication pipeline: sequence assignment, the window
	// of committed-but-unacknowledged entries with their withheld
	// effects, and the flush and retransmit cursors. Its own lock
	// domain — see repl.go. A pointer so a durable enclave's
	// pre-existing WAL log can be adopted wholesale on committee
	// formation, keeping one sequence space for both cursors.
	log *replLog
}

func (p *replPrimary) backup() (cryptoutil.PublicKey, bool) {
	if len(p.members) < 2 {
		return cryptoutil.PublicKey{}, false
	}
	return p.members[1], true
}

// replBackup is this enclave's view of a chain it serves as a committee
// member / backup for.
type replBackup struct {
	chainID string
	members []cryptoutil.PublicKey
	m       int
	myIndex int
	mirror  *State
	// btcKey is this member's committee blockchain key.
	btcKey  *cryptoutil.KeyPair
	lastSeq uint64
	frozen  bool
	// pendingSigs caches this member's (and, at middles, downstream
	// members') τ signatures per update sequence: merged into the
	// upstream ack, and re-served when a Retx duplicate repairs a lost
	// ack. Pruned by rememberSigs once sequences leave the verifiable
	// window.
	pendingSigs map[uint64][]wire.TauSig
	// scratchOp is the reused decode target for ReplBatch application:
	// batched ops never retain struct internals, so one op per backup
	// keeps batch application allocation-free.
	scratchOp Op

	// Self-healing state (repl_heal.go): the bounded reorder buffer for
	// ahead-of-sequence frames, the rolling digest ring verifying that
	// retransmissions match what was applied (digBase = last sequence
	// covered by the attach/resync snapshot, unverifiable), and NACK
	// suppression.
	held         []replHeld
	digests      []uint64
	digBase      uint64
	lastNackWant uint64
	nackHeld     int
}

func (b *replBackup) prev() cryptoutil.PublicKey { return b.members[b.myIndex-1] }

func (b *replBackup) next() (cryptoutil.PublicKey, bool) {
	if b.myIndex+1 < len(b.members) {
		return b.members[b.myIndex+1], true
	}
	return cryptoutil.PublicKey{}, false
}

// Enclave is the trusted Teechain program: a message-driven state
// machine hosted by an untrusted Node. All methods are entry points
// crossing the (simulated) enclave boundary.
type Enclave struct {
	platform    *tee.Platform
	measurement tee.Measurement
	authority   cryptoutil.PublicKey
	identity    *cryptoutil.KeyPair
	cfg         Config

	sessions map[cryptoutil.PublicKey]*peerSession
	state    *State
	// btcKeys holds blockchain private keys this enclave can sign with:
	// its own deposit keys plus 1-of-1 keys shared by channel
	// counterparties (btcPrivs of Alg. 1).
	btcKeys map[cryptoutil.Address]*cryptoutil.KeyPair
	// sigCollections tracks in-progress committee signature gathering,
	// keyed by settlement transaction ID.
	sigCollections map[chain.TxID]*sigCollection

	repl    *replPrimary
	backups map[string]*replBackup

	// wal, when non-nil, is the durable write-ahead-log state: the log
	// whose syncSeq cursor gates effect releases plus the snapshot
	// bookkeeping. See durable.go.
	wal *walState

	// pools recycles hot-path objects; NewNode points it at the
	// deployment-wide instance shared through the Directory.
	pools *hotPools

	// lastSess is a one-entry session lookup cache (see State.lastCh
	// for the rationale). An established session is replaced only by a
	// resume attestation from a recovered peer (handleAttest), which
	// invalidates the cache. Atomic for the same reason as
	// State.lastCh: concurrent payment lanes of a socket host share it.
	lastSess atomic.Pointer[peerSession]

	// replNotify records an EnableConcurrentHost call; FormCommittee
	// and RestoreDurable copy it into the chain's log.
	replNotify func()

	// Outsourcing (§3): the provisioned TEE-less user and the pending
	// command sequence numbers per channel awaiting acknowledgements.
	outsourceUser    cryptoutil.PublicKey
	outsourcePending map[wire.ChannelID][]uint64

	// feePolicy is the forwarding fee this enclave charges per
	// multi-hop payment it relays (zero by default). Locks whose fee
	// schedule undercuts it are refused with a Transient abort, so the
	// announced policy is enclave-enforced, not just advisory gossip.
	feePolicy route.FeePolicy

	counterName string
	keySeq      uint64

	// tauSigned counts the τ input signatures signTauLocal has made.
	tauSigned uint64
}

// SetFeePolicy installs the forwarding fee policy. Call it before the
// enclave starts relaying (the host sets it from its config at boot).
func (e *Enclave) SetFeePolicy(p route.FeePolicy) error {
	if !p.Valid() {
		return fmt.Errorf("core: invalid fee policy %+v", p)
	}
	e.feePolicy = p
	return nil
}

// FeePolicy returns the forwarding fee policy this enclave enforces.
func (e *Enclave) FeePolicy() route.FeePolicy { return e.feePolicy }

// TauSigned reports how many τ input signatures this enclave has made
// in multi-hop sign stages: one ECDSA each, the dominant enclave cost
// of a routed payment. Read it under whatever serializes the enclave.
func (e *Enclave) TauSigned() uint64 { return e.tauSigned }

// NewEnclave launches the Teechain program on a platform.
func NewEnclave(platform *tee.Platform, authority cryptoutil.PublicKey, cfg Config) (*Enclave, error) {
	identity, err := cryptoutil.GenerateKeyPair(platform.Rand())
	if err != nil {
		return nil, fmt.Errorf("core: generating enclave identity: %w", err)
	}
	e := &Enclave{
		platform:         platform,
		measurement:      tee.MeasurementOf(ProgramName),
		authority:        authority,
		identity:         identity,
		cfg:              cfg,
		sessions:         make(map[cryptoutil.PublicKey]*peerSession),
		state:            NewState(identity.Public()),
		btcKeys:          make(map[cryptoutil.Address]*cryptoutil.KeyPair),
		sigCollections:   make(map[chain.TxID]*sigCollection),
		backups:          make(map[string]*replBackup),
		outsourcePending: make(map[wire.ChannelID][]uint64),
		pools:            newHotPools(),
		counterName:      "teechain-state",
	}
	e.state.OwnerPayout = cfg.PayoutKey.Address()
	if !cfg.PayoutKey.IsZero() {
		e.state.PayoutKeys[cfg.PayoutKey.Address()] = cfg.PayoutKey
	}
	return e, nil
}

// Identity returns the enclave's public identity key (K_me).
func (e *Enclave) Identity() cryptoutil.PublicKey { return e.identity.Public() }

// State exposes the enclave's logical state for inspection by its own
// host (a local, trusted read in the simulation; a real deployment
// would expose specific queries).
func (e *Enclave) State() *State { return e.state }

// ChainID returns this enclave's replication chain identifier.
func (e *Enclave) ChainID() string { return chainIDOf(e.identity.Public()) }

func chainIDOf(owner cryptoutil.PublicKey) string {
	sum := cryptoutil.Hash256([]byte("teechain/chain-id"), owner[:])
	return fmt.Sprintf("cc-%x", sum[:8])
}

// --- Attestation and session establishment (Alg. 1 newNetworkChannel) ---

func reportDataFor(identity cryptoutil.PublicKey, dhPub []byte) [32]byte {
	return cryptoutil.Hash256([]byte("teechain/report"), identity[:], dhPub)
}

// StartAttest begins mutual remote attestation with a peer enclave
// whose identity key was exchanged out of band.
func (e *Enclave) StartAttest(peer cryptoutil.PublicKey) (*Result, error) {
	return e.startAttest(peer, false)
}

// StartAttestResume is StartAttest for a crash-recovered enclave
// re-establishing a session it held before the crash: the Resume flag
// tells the peer to replace its (now stale) established session instead
// of rejecting the handshake as a duplicate.
func (e *Enclave) StartAttestResume(peer cryptoutil.PublicKey) (*Result, error) {
	return e.startAttest(peer, true)
}

func (e *Enclave) startAttest(peer cryptoutil.PublicKey, resume bool) (*Result, error) {
	if e.state.Frozen {
		return nil, ErrFrozen
	}
	if s, ok := e.sessions[peer]; ok && s.established {
		return nil, fmt.Errorf("core: session with %s already established", peer)
	}
	dh, err := cryptoutil.GenerateDHKeyPair(e.platform.Rand())
	if err != nil {
		return nil, err
	}
	e.sessions[peer] = &peerSession{remote: peer, dh: dh}
	quote, err := e.platform.Quote(e.measurement, reportDataFor(e.identity.Public(), dh.PublicBytes()))
	if err != nil {
		return nil, err
	}
	return &Result{Out: oneOut(peer, &wire.Attest{
		Quote:    quote,
		Identity: e.identity.Public(),
		DHPublic: dh.PublicBytes(),
		Resume:   resume,
	})}, nil
}

func (e *Enclave) handleAttest(from cryptoutil.PublicKey, m *wire.Attest) (*Result, error) {
	if m.Identity != from {
		return nil, errors.New("core: attest identity does not match sender")
	}
	if err := tee.VerifyQuote(e.authority, m.Quote, e.measurement); err != nil {
		return nil, fmt.Errorf("core: peer attestation failed: %w", err)
	}
	if m.Quote.ReportData != reportDataFor(m.Identity, m.DHPublic) {
		return nil, errors.New("core: attest report data does not bind identity and DH key")
	}

	if m.Response {
		s, ok := e.sessions[from]
		if !ok || s.established {
			return nil, errors.New("core: unexpected attest response")
		}
		if err := e.finishSession(s, m.DHPublic); err != nil {
			return nil, err
		}
		return &Result{}, nil
	}

	// Fresh inbound handshake; reject duplicates (Alg. 1 line 16) —
	// unless the peer attests that it crash-recovered and is resuming,
	// in which case the existing session is stale (its keys died with
	// the peer's old enclave) and is replaced. The attestation quote
	// just verified above is what authorizes the replacement: only a
	// genuine Teechain enclave holding the peer's identity key can
	// produce it. A replayed Resume frame can at worst wedge one
	// session until the next re-attestation; it cannot leak or forge
	// state.
	if s, ok := e.sessions[from]; ok && s.established {
		if !m.Resume {
			return nil, fmt.Errorf("core: session with %s already established", from)
		}
		if cached := e.lastSess.Load(); cached != nil && cached.remote == from {
			e.lastSess.Store(nil)
		}
		// Freeze outgoing payments on this peer's channels until the
		// recovered peer's ChanResume reconciles them: a payment issued
		// in between would be counted into the peer's send excess and
		// wrongly reverted (see ChannelState.Resuming).
		for _, c := range e.state.Channels {
			if c.Remote == from && c.Open && !c.Closed {
				c.Resuming = true
			}
		}
	}
	dh, err := cryptoutil.GenerateDHKeyPair(e.platform.Rand())
	if err != nil {
		return nil, err
	}
	s := &peerSession{remote: from, dh: dh}
	e.sessions[from] = s
	if err := e.finishSession(s, m.DHPublic); err != nil {
		return nil, err
	}
	quote, err := e.platform.Quote(e.measurement, reportDataFor(e.identity.Public(), dh.PublicBytes()))
	if err != nil {
		return nil, err
	}
	return &Result{Out: oneOut(from, &wire.Attest{
		Quote:    quote,
		Identity: e.identity.Public(),
		DHPublic: dh.PublicBytes(),
		Response: true,
	})}, nil
}

func (e *Enclave) finishSession(s *peerSession, peerDH []byte) error {
	key, err := s.dh.SharedKey(peerDH, e.identity.Public(), s.remote)
	if err != nil {
		return err
	}
	transport, err := cryptoutil.NewSession(key)
	if err != nil {
		return err
	}
	s.key = key
	s.transport = transport
	s.established = true
	return nil
}

// SessionEstablished reports whether a secure channel to peer exists.
func (e *Enclave) SessionEstablished(peer cryptoutil.PublicKey) bool {
	s, ok := e.sessions[peer]
	return ok && s.established
}

func (e *Enclave) session(peer cryptoutil.PublicKey) (*peerSession, error) {
	if s := e.lastSess.Load(); s != nil && s.remote == peer {
		return s, nil
	}
	s, ok := e.sessions[peer]
	if !ok || !s.established {
		return nil, fmt.Errorf("core: no established session with %s", peer)
	}
	e.lastSess.Store(s)
	return s, nil
}

// establishedSession returns the session with peer, or nil. Hosts use
// it to cache the transport session per peer and seal freshness tokens
// without a map lookup per message.
func (e *Enclave) establishedSession(peer cryptoutil.PublicKey) *peerSession {
	s, ok := e.sessions[peer]
	if !ok || !s.established {
		return nil
	}
	return s
}

// ErrTokenBinding reports a bound token whose authenticated type code
// does not match the frame header's declared code: the header was
// rewritten in flight.
var ErrTokenBinding = errors.New("core: frame type does not match token binding")

// SealTokenBound seals a freshness token that also authenticates the
// frame it will travel in: code (the wire registry code) rides as the
// token's plaintext and payload as additional authenticated data.
// Socket transports use this for every tokened frame, so a
// man-in-the-middle can neither rewrite payload bytes (a payment
// amount) nor relabel a frame's type (Pay and PayAck share a payload
// shape) without the receiver's verifyTokenBound rejecting it. Appends
// to dst (reslice to dst[:0] to reuse a scratch buffer).
func (e *Enclave) SealTokenBound(dst []byte, peer cryptoutil.PublicKey, code byte, payload []byte) ([]byte, error) {
	s, err := e.session(peer)
	if err != nil {
		return nil, err
	}
	return s.transport.SealAppendBound(dst, code, payload), nil
}

// verifyTokenBound opens a bound token against the received frame
// bytes and checks the authenticated type code.
func verifyTokenBound(s *cryptoutil.Session, token []byte, code byte, payload []byte) error {
	got, err := s.OpenBound(token, payload)
	if err != nil {
		return err
	}
	if got != code {
		return fmt.Errorf("%w: token binds code %d, frame declares %d", ErrTokenBinding, got, code)
	}
	return nil
}

// HandleSealedBound is HandleMessage preceded by verification of the
// frame's bound freshness token (SealTokenBound), sharing one session
// lookup between the two: the token must authenticate the frame's
// payload bytes and type code, not just freshness. Both hosts deliver
// every frame through it. Attest messages carry no token (the session
// does not exist yet).
func (e *Enclave) HandleSealedBound(from cryptoutil.PublicKey, token []byte, code byte, payload []byte, msg wire.Message) (*Result, error) {
	if a, ok := msg.(*wire.Attest); ok {
		if a.Software {
			return e.handleSoftwareAttest(from, a)
		}
		return e.handleAttest(from, a)
	}
	s, err := e.session(from)
	if err != nil {
		return nil, err
	}
	if err := verifyTokenBound(s.transport, token, code, payload); err != nil {
		return nil, err
	}
	return e.handleSessionMessage(from, msg)
}

// --- Replication plumbing (Alg. 3) ---

// newReplEntry takes a pooled entry off the chain's log.
func (l *replLog) newEntry() *replEntry {
	l.mu.Lock()
	ent := l.getEntryLocked()
	l.mu.Unlock()
	return ent
}

// commitLog returns the log a replicated or durable commit appends to:
// the committee log when one exists (after committee formation it and
// the WAL log are the same object — FormCommittee adopts the WAL log),
// else the WAL log. Callers have checked e.repl != nil || e.wal != nil.
func (e *Enclave) commitLog() *replLog {
	if e.repl != nil {
		return e.repl.log
	}
	return e.wal.log
}

// commit optimistically applies op and defers its externally visible
// effects until the replication chain acknowledges and/or the WAL
// flusher fsyncs. Without backups or a WAL the effects release
// immediately. The sequenced update only joins the log; the host drains
// it with ReplNextFlush (and the WAL flusher with its own cursor).
func (e *Enclave) commit(op *Op, out []Outbound, events []Event) (*Result, error) {
	if e.repl != nil || e.wal != nil {
		return e.commitRepl(op, out, events)
	}
	if err := e.state.Apply(op); err != nil {
		return nil, err
	}
	return &Result{Out: out, Events: events}, nil
}

// commitRepl is the replicated/durable tail of commit. The backlog
// bound is checked BEFORE the state transition so a rejected commit
// leaves primary state and the log consistent.
func (e *Enclave) commitRepl(op *Op, out []Outbound, events []Event) (*Result, error) {
	var replicated bool
	if e.repl != nil {
		_, replicated = e.repl.backup()
	}
	durable := e.wal != nil
	l := e.commitLog()
	if replicated || durable {
		if err := l.admit(); err != nil {
			return nil, err
		}
	}
	if err := e.state.Apply(op); err != nil {
		return nil, err
	}
	if !replicated && !durable {
		return &Result{Out: out, Events: events}, nil
	}
	ent := l.newEntry()
	ent.op = op
	ent.out = append(ent.out[:0], out...)
	ent.events = append(ent.events[:0], events...)
	ent.tauPending = replicated && op.Kind == OpMhStage && op.Stage == MhSign && op.Tau != nil
	l.append(ent)
	return &Result{}, nil
}

// commitFast is commit for the payment hot path: the caller has already
// assembled its outbound messages and events into res, a Result from
// getResult, and op comes from getOp. Both recycle as soon as nothing
// retains them, so an unreplicated payment commit allocates nothing —
// and a replicated one moves the effects into a pooled log entry
// (recycled when the ack releases it), so it allocates nothing either.
// The unreplicated path pays one predicted-false nil check over the
// seed's code; the replicated tail is outlined.
func (e *Enclave) commitFast(op *Op, res *Result) (*Result, error) {
	if e.repl != nil || e.wal != nil {
		return e.commitFastRepl(op, res)
	}
	if err := e.state.Apply(op); err != nil {
		e.pools.putResult(res)
		e.pools.putOp(op)
		return nil, err
	}
	e.pools.putOp(op)
	return res, nil
}

// commitFastRepl is the replicated/durable tail of commitFast; see
// commitRepl for the backlog-before-Apply ordering.
func (e *Enclave) commitFastRepl(op *Op, res *Result) (*Result, error) {
	var replicated bool
	if e.repl != nil {
		_, replicated = e.repl.backup()
	}
	durable := e.wal != nil
	l := e.commitLog()
	if replicated || durable {
		if err := l.admit(); err != nil {
			e.pools.putResult(res)
			e.pools.putOp(op)
			return nil, err
		}
	}
	if err := e.state.Apply(op); err != nil {
		e.pools.putResult(res)
		e.pools.putOp(op)
		return nil, err
	}
	if !replicated && !durable {
		e.pools.putOp(op)
		return res, nil
	}
	// Replicated and/or durable: the effects wait for the chain's
	// acknowledgement and/or the WAL fsync, and the op travels to the
	// backups and/or the WAL, so both move into the pooled log entry.
	// The op itself recycles when the release consumes it.
	ent := l.newEntry()
	ent.op = op
	ent.out = append(ent.out[:0], res.Out...)
	ent.events = append(ent.events[:0], res.Events...)
	ent.pay = res.pay
	ent.tauPending = replicated && op.Kind == OpMhStage && op.Stage == MhSign && op.Tau != nil
	e.pools.putResult(res)
	l.append(ent)
	return nil, nil
}

func (e *Enclave) handleReplUpdate(from cryptoutil.PublicKey, m *wire.ReplUpdate) (*Result, error) {
	b, ok := e.backups[m.Chain]
	if !ok {
		return nil, fmt.Errorf("core: not a member of chain %s", m.Chain)
	}
	if b.frozen {
		return nil, fmt.Errorf("core: chain %s is frozen", m.Chain)
	}
	if from != b.prev() {
		return nil, fmt.Errorf("core: replication update from non-predecessor %s", from)
	}
	op, ok2 := m.Op.(*Op)
	if !ok2 {
		return nil, fmt.Errorf("core: replication update carries %T, not *Op", m.Op)
	}
	next, hasNext := b.next()
	if m.Seq <= b.lastSeq {
		// Already applied: a transport redelivery after a connection
		// handover, or a retransmission that crossed its own ack. The
		// payload must still match what was applied.
		if reason := b.verifySoloOverlap(m.Seq, op); reason != "" {
			return e.freezeChainLocal(b, reason)
		}
		if m.Retx {
			// Lost-ack repair: relay downstream (middle) or re-serve
			// the per-sequence ack with the cached τ signatures plus a
			// fresh cumulative ack for everything applied since (tail).
			if hasNext {
				// Relay a copy: the inbound message recycles with its
				// envelope.
				ru := e.pools.getReplUpdateMsg()
				*ru = *m
				return &Result{Out: oneOut(next, ru)}, nil
			}
			res := &Result{Out: oneOut(b.prev(), &wire.ReplAck{
				Chain: m.Chain, Seq: m.Seq, TauSigs: b.pendingSigs[m.Seq],
			})}
			if b.lastSeq > m.Seq {
				res.Out = append(res.Out, Outbound{To: b.prev(), Msg: e.pools.replBatchAck(m.Chain, b.lastSeq)})
			}
			return res, nil
		}
		return nil, fmt.Errorf("core: duplicate replication update %d (have %d)", m.Seq, b.lastSeq)
	}
	if m.Seq != b.lastSeq+1 {
		// Ahead of sequence: buffer and NACK the gap (repl_heal.go)
		// instead of freezing — the frames in between were lost or
		// reordered, which retransmission recovers.
		return e.replHold(b, replHeld{firstSeq: m.Seq, op: op, retx: m.Retx})
	}
	mySigs, reason := e.applySolo(b, m.Seq, op)
	if reason != "" {
		return e.freezeChainLocal(b, reason)
	}

	res := e.pools.getResult()
	if hasNext {
		ru := e.pools.getReplUpdateMsg()
		ru.Chain, ru.Seq, ru.Op, ru.Retx = m.Chain, m.Seq, op, m.Retx
		res.Out = append(res.Out, Outbound{To: next, Msg: ru})
	} else {
		ack := e.pools.getReplAckMsg()
		ack.Chain, ack.Seq, ack.TauSigs = m.Chain, m.Seq, mySigs
		res.Out = append(res.Out, Outbound{To: b.prev(), Msg: ack})
	}
	ackPending := false
	if dreason := e.replDrainHeld(b, res, &ackPending); dreason != "" {
		return e.freezeMerged(b, res, dreason)
	}
	if ackPending {
		res.Out = append(res.Out, Outbound{To: b.prev(), Msg: e.pools.replBatchAck(m.Chain, b.lastSeq)})
	}
	return res, nil
}

func (e *Enclave) handleReplAck(from cryptoutil.PublicKey, m *wire.ReplAck) (*Result, error) {
	// Middle-of-chain: merge our pending sigs and pass the ack up.
	if b, ok := e.backups[m.Chain]; ok {
		if from2, hasNext := b.next(); !hasNext || from2 != from {
			return nil, fmt.Errorf("core: replication ack from non-successor %s", from)
		}
		// Merge non-destructively and keep our cached sigs: a lost ack
		// upstream is repaired by a Retx re-ack, which must merge the
		// same signatures again (rememberSigs prunes the cache).
		sigs := m.TauSigs
		if pend := b.pendingSigs[m.Seq]; len(pend) > 0 {
			sigs = append(append(make([]wire.TauSig, 0, len(pend)+len(m.TauSigs)), pend...), m.TauSigs...)
		}
		ack := e.pools.getReplAckMsg()
		ack.Chain, ack.Seq, ack.TauSigs = m.Chain, m.Seq, sigs
		res := e.pools.getResult()
		res.Out = append(res.Out, Outbound{To: b.prev(), Msg: ack})
		return res, nil
	}
	// Primary: release the pending update's effects in order. Per-seq
	// acks are exactly-next — strictly ordered like the updates they
	// answer — and can never exceed what was actually flushed, so a
	// forged ack cannot release effects the chain has not applied.
	if e.repl == nil || e.repl.chainID != m.Chain {
		return nil, fmt.Errorf("core: ack for unknown chain %s", m.Chain)
	}
	backup, ok := e.repl.backup()
	if !ok || from != backup {
		return nil, fmt.Errorf("core: replication ack from non-backup %s", from)
	}
	l := e.repl.log
	l.mu.Lock()
	if m.Seq != l.ackSeq+1 || m.Seq > l.flushSeq {
		expected := l.ackSeq + 1
		l.mu.Unlock()
		return nil, fmt.Errorf("core: out-of-order ack %d (expected %d)", m.Seq, expected)
	}
	ent := l.entryAtLocked(m.Seq)
	l.mu.Unlock()

	// Validate the committee τ signatures BEFORE advancing the ack
	// cursor: a malformed ack must leave the withheld effects pending
	// (the backup can resend a well-formed ack), not discard them. Acks
	// are processed one at a time under the host's wide write lock —
	// which also excludes the WAL flusher's release — so the peeked
	// entry cannot be released underneath us.
	if len(m.TauSigs) > 0 && ent.op.Tau != nil {
		for _, ts := range m.TauSigs {
			if ts.Input < 0 || ts.Input >= len(ent.op.Tau.Inputs) {
				return nil, fmt.Errorf("core: tau signature for invalid input %d", ts.Input)
			}
			if ts.Slot < 0 || ts.Slot >= len(ent.op.Tau.Inputs[ts.Input].Sigs) {
				return nil, fmt.Errorf("core: tau signature for invalid slot %d", ts.Slot)
			}
		}
		// Fold into the (shared) τ object before the deferred sign-stage
		// message departs.
		for _, ts := range m.TauSigs {
			ent.op.Tau.Inputs[ts.Input].Sigs[ts.Slot] = ts.Sig
		}
	}
	// Release through the shared path so a durable log additionally
	// waits for the WAL fsync cursor. On the simulator's per-update
	// chain this releases exactly the acknowledged entry. With the
	// signatures folded, the entry no longer clamps the cumulative
	// cursor — resume it toward any batch ack that ran ahead while this
	// ack was lost.
	l.mu.Lock()
	ent.tauPending = false
	l.ackSeq++
	l.advanceAckLocked()
	target := l.releaseTargetLocked(true)
	l.mu.Unlock()
	res := e.pools.getResult()
	e.releaseTo(l, target, res)
	return res, nil
}

// signTauInputs produces this member's signatures over τ inputs that
// spend deposits recorded in the mirrored state (committee deposits it
// co-secures).
func (e *Enclave) signTauInputs(b *replBackup, tau *chain.Transaction) ([]wire.TauSig, error) {
	if b.btcKey == nil {
		return nil, nil
	}
	var sigs []wire.TauSig
	pub := b.btcKey.Public()
	for i, in := range tau.Inputs {
		rec, ok := b.mirror.Deposits[in.Prev]
		if !ok {
			// Not our owner's deposit; other committees handle it.
			continue
		}
		slot := -1
		for j, k := range rec.Info.Script.Keys {
			if k == pub {
				slot = j
				break
			}
		}
		if slot < 0 {
			continue
		}
		cp := *tau
		if err := cp.SignInput(i, rec.Info.Script, b.btcKey); err != nil {
			return nil, err
		}
		sigs = append(sigs, wire.TauSig{Input: i, Slot: slot, Sig: cp.Inputs[i].Sigs[slot]})
	}
	return sigs, nil
}

func (e *Enclave) freezeChainLocal(b *replBackup, reason string) (*Result, error) {
	b.frozen = true
	b.mirror.Frozen = true
	res := &Result{Events: []Event{EvFrozen{Chain: b.chainID, Reason: reason}}}
	// Notify neighbours so the whole chain freezes (§6 force-freeze).
	res.Out = append(res.Out, Outbound{To: b.prev(), Msg: &wire.ReplFreeze{Chain: b.chainID, Reason: reason}})
	if next, ok := b.next(); ok {
		res.Out = append(res.Out, Outbound{To: next, Msg: &wire.ReplFreeze{Chain: b.chainID, Reason: reason}})
	}
	return res, nil
}

func (e *Enclave) handleReplFreeze(from cryptoutil.PublicKey, m *wire.ReplFreeze) (*Result, error) {
	if b, ok := e.backups[m.Chain]; ok {
		if b.frozen {
			return &Result{}, nil
		}
		b.frozen = true
		b.mirror.Frozen = true
		res := &Result{Events: []Event{EvFrozen{Chain: m.Chain, Reason: m.Reason}}}
		// Propagate away from the sender.
		if prev := b.prev(); prev != from {
			res.Out = append(res.Out, Outbound{To: prev, Msg: m})
		}
		if next, ok := b.next(); ok && next != from {
			res.Out = append(res.Out, Outbound{To: next, Msg: m})
		}
		return res, nil
	}
	if e.repl != nil && e.repl.chainID == m.Chain {
		if e.state.Frozen {
			return &Result{}, nil
		}
		// Primary frozen: the paper settles all channels and releases
		// unused deposits. The host drives that via the EvFrozen event.
		e.state.Frozen = true
		e.repl.log.clear()
		return &Result{Events: []Event{EvFrozen{Chain: m.Chain, Reason: m.Reason}}}, nil
	}
	return nil, fmt.Errorf("core: freeze for unknown chain %s", m.Chain)
}

// Freeze force-freezes a chain this enclave participates in, modelling
// a read access at a backup (or an operator-initiated halt).
func (e *Enclave) Freeze(chainID, reason string) (*Result, error) {
	if b, ok := e.backups[chainID]; ok {
		return e.freezeChainLocal(b, reason)
	}
	if e.repl != nil && e.repl.chainID == chainID {
		e.state.Frozen = true
		e.repl.log.clear()
		res := &Result{Events: []Event{EvFrozen{Chain: chainID, Reason: reason}}}
		if backup, ok := e.repl.backup(); ok {
			res.Out = append(res.Out, Outbound{To: backup, Msg: &wire.ReplFreeze{Chain: chainID, Reason: reason}})
		}
		return res, nil
	}
	return nil, fmt.Errorf("core: not a member of chain %s", chainID)
}

// deferBehindPending routes an outbound message behind any replication
// updates currently awaiting acknowledgement, preserving per-channel
// FIFO ordering between committed responses (e.g. PayAck) and
// uncommitted ones (e.g. PayNack).
func (e *Enclave) deferBehindPending(to cryptoutil.PublicKey, msg wire.Message) *Result {
	if e.repl != nil && e.repl.log.attachTail(Outbound{To: to, Msg: msg}) {
		return &Result{}
	}
	return &Result{Out: oneOut(to, msg)}
}

func (e *Enclave) snapshotState() ([]byte, error) {
	return encodeState(e.state)
}

// HandleMessage is the enclave's network entry point: it dispatches a
// peer message to the matching protocol handler. Except for the initial
// Attest, messages from peers without an established session are
// rejected.
func (e *Enclave) HandleMessage(from cryptoutil.PublicKey, msg wire.Message) (*Result, error) {
	if a, ok := msg.(*wire.Attest); ok {
		if a.Software {
			return e.handleSoftwareAttest(from, a)
		}
		return e.handleAttest(from, a)
	}
	if _, err := e.session(from); err != nil {
		return nil, err
	}
	return e.handleSessionMessage(from, msg)
}

// handleSessionMessage dispatches a message from a peer whose session
// was already validated by the caller.
func (e *Enclave) handleSessionMessage(from cryptoutil.PublicKey, msg wire.Message) (*Result, error) {
	// An outsourced user may only issue commands; everything else on
	// its session is rejected.
	if from == e.outsourceUser {
		if m, ok := msg.(*wire.OutsourceCmd); ok {
			return e.handleOutsourceCmd(from, m)
		}
		return nil, errors.New("core: outsourced user may only send commands")
	}
	if e.state.Frozen {
		// A frozen enclave only answers settlement-signature requests
		// and freeze propagation.
		switch m := msg.(type) {
		case *wire.SigRequest:
			return e.handleSigRequest(from, m)
		case *wire.ReplFreeze:
			return e.handleReplFreeze(from, m)
		case *wire.ReplUpdate, *wire.ReplAck, *wire.ReplBatch, *wire.ReplBatchAck, *wire.ReplNack:
			return e.handleFrozenRepl(from, msg)
		default:
			return nil, ErrFrozen
		}
	}
	switch m := msg.(type) {
	case *wire.ChannelOpen:
		return e.handleChannelOpen(from, m)
	case *wire.ChannelAck:
		return e.handleChannelAck(from, m)
	case *wire.ApproveDeposit:
		return e.handleApproveDeposit(from, m)
	case *wire.ApprovedDeposit:
		return e.handleApprovedDeposit(from, m)
	case *wire.AssociateDeposit:
		return e.handleAssociateDeposit(from, m)
	case *wire.DissociateDeposit:
		return e.handleDissociateDeposit(from, m)
	case *wire.DissociateAck:
		return e.handleDissociateAck(from, m)
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
	case *wire.SettleRequest:
		return e.handleSettleRequest(from, m)
	case *wire.SettleNotify:
		return e.handleSettleNotify(from, m)
	case *wire.MhLock:
		return e.handleMhLock(from, m)
	case *wire.MhSign:
		return e.handleMhSign(from, m)
	case *wire.MhPreUpdate:
		return e.handleMhPreUpdate(from, m)
	case *wire.MhUpdate:
		return e.handleMhUpdate(from, m)
	case *wire.MhPostUpdate:
		return e.handleMhPostUpdate(from, m)
	case *wire.MhRelease:
		return e.handleMhRelease(from, m)
	case *wire.MhAbort:
		return e.handleMhAbort(from, m)
	case *wire.ReplAttach:
		return e.handleReplAttach(from, m)
	case *wire.ReplAttachAck:
		return e.handleReplAttachAck(from, m)
	case *wire.ReplUpdate:
		return e.handleReplUpdate(from, m)
	case *wire.ReplAck:
		return e.handleReplAck(from, m)
	case *wire.ReplBatch:
		return e.handleReplBatch(from, m)
	case *wire.ReplBatchAck:
		return e.handleReplBatchAck(from, m)
	case *wire.ReplNack:
		return e.handleReplNack(from, m)
	case *wire.ReplFreeze:
		return e.handleReplFreeze(from, m)
	case *wire.SigRequest:
		return e.handleSigRequest(from, m)
	case *wire.SigResponse:
		return e.handleSigResponse(from, m)
	case *wire.ChanResume:
		return e.handleChanResume(from, m)
	case *wire.ChanResumeAck:
		return e.handleChanResumeAck(from, m)
	case *wire.ReplResync:
		return e.handleReplResync(from, m)
	case *wire.ReplResyncAck:
		return e.handleReplResyncAck(from, m)
	default:
		return nil, fmt.Errorf("core: unhandled message type %T", msg)
	}
}

// handleFrozenRepl lets replication traffic drain on frozen chains
// without mutating state (acks for already-applied updates may still be
// in flight when a freeze lands).
func (e *Enclave) handleFrozenRepl(cryptoutil.PublicKey, wire.Message) (*Result, error) {
	return &Result{}, nil
}

// newBtcKey mints a fresh blockchain key inside the enclave (newAddr,
// Alg. 1 line 32).
func (e *Enclave) newBtcKey() (*cryptoutil.KeyPair, error) {
	e.keySeq++
	kp, err := cryptoutil.GenerateKeyPair(e.platform.Rand())
	if err != nil {
		return nil, err
	}
	e.btcKeys[kp.Address()] = kp
	if e.wal != nil {
		// Durable mode: the key must hit stable storage alongside the
		// ops that reference its address, so it rides the next WAL
		// record. Guarded by the log mutex like the entries themselves.
		l := e.wal.log
		l.mu.Lock()
		e.wal.pendingKeys = append(e.wal.pendingKeys, kp)
		l.mu.Unlock()
	}
	return kp, nil
}

func encodeState(s *State) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("core: encoding state: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeState(data []byte) (*State, error) {
	s := new(State)
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(s); err != nil {
		return nil, fmt.Errorf("core: decoding state: %w", err)
	}
	return s, nil
}

func init() {
	gob.Register(&Op{})
}
