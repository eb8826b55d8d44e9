// Durable enclave state (§6.2, the real one): a group-committed
// write-ahead log riding the commit pipeline, periodic sealed snapshots
// with rollback protection, and crash recovery.
//
// The WAL is not a separate stream: replicated commits already append
// every op with its withheld effects to the chain's log (repl.go), so a
// durable enclave reuses that exact sequence. The log gains a second
// consumer cursor — syncSeq, advanced by the host's WAL flusher after
// each batched fsync — and an entry's externally visible effects
// release only once every enabled cursor (replication ack, WAL fsync)
// has passed it. That is the paper's commit-before-ack ordering for
// stable storage, enforced by the group-commit barrier instead of a
// per-op counter increment, which is what recovers line-rate
// throughput (Table 1 shows ~10 tx/s without batching).
//
// Snapshots are themselves group commits: SnapshotSealed captures the
// full durable image (identity, state, keys, committee configuration)
// under one monotonic-counter increment (tee.SealStateWithCounter), the
// host persists it and truncates the WAL, and WalSynced(nextSeq)
// releases everything the snapshot covers. WAL records seal under the
// plain measurement key but bind the snapshot's counter value (their
// generation), so a record from before the last snapshot — or from a
// rolled-back snapshot — never replays.
//
// Recovery: RestoreDurable unseals the snapshot (refusing with
// tee.ErrRolledBack when the hardware counter says it is stale),
// rebuilds the enclave around it, then WalReplayRecord applies each
// surviving WAL record — discarding the effects, which were withheld at
// commit time and are reconstructed by the resume protocol
// (ChanResume / ReplResyncStart).
package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/tee"
	"teechain/internal/wire"
)

// walState is the durability bookkeeping of a durable enclave. The log
// is shared with the replication chain once a committee forms
// (FormCommittee adopts it), so both cursors run over one sequence.
type walState struct {
	// log carries committed ops and their withheld effects; durable
	// releases gate on its syncSeq cursor.
	log *replLog
	// pendingKeys are blockchain keys minted since the last WAL record
	// or snapshot; they must reach stable storage with (or before) the
	// ops referencing their addresses. Guarded by log.mu.
	pendingKeys []*cryptoutil.KeyPair
	// gen is the current snapshot generation — the monotonic counter
	// value sealed into the live snapshot. WAL records bind to it so
	// stale records never replay. Guarded by log.mu (the WAL flusher
	// reads it while SnapshotSealed rewrites it).
	gen uint64
	// scratch is the record-plaintext build buffer; only the single WAL
	// flusher goroutine touches it.
	scratch []byte
}

// EnableDurable switches this enclave into durable (WAL) mode: commits
// append to a log whose effects release only after the host's
// WAL flusher (woken by notify) reports them fsynced via WalSynced.
// Must be called under the host's wide lock before any commit, and
// before FormCommittee (which adopts the WAL log for replication).
func (e *Enclave) EnableDurable(notify func()) {
	e.wal = &walState{log: &replLog{durable: true, notify: notify}}
}

// Durable reports whether the enclave runs in durable (WAL) mode.
func (e *Enclave) Durable() bool { return e.wal != nil }

// WalCursors snapshots the durable log's sequence cursors: committed,
// handed to the WAL flusher, and fsynced.
func (e *Enclave) WalCursors() (next, flushed, synced uint64) {
	l := e.wal.log
	l.mu.Lock()
	next, flushed, synced = l.nextSeq, l.walSeq, l.syncSeq
	l.mu.Unlock()
	return next, flushed, synced
}

// --- WAL record codec ---
//
// Record plaintext (sealed under the enclave measurement key):
//
//	offset  field
//	0       u64 generation (snapshot counter value the record follows)
//	8       u64 firstSeq (sequence of the first op)
//	16      u32 opCount
//	20      u16 keyCount
//	22      keyCount × 32-byte blockchain private key scalars
//	…       opCount × op records:
//	          u8 kind — wire.ReplOp* for hot payment ops, 0 for cold
//	          hot:  LP channel id ‖ u64 amount ‖ u32 count
//	          cold: u32 length ‖ gob(*Op)
//
// Hot payment ops reuse the ReplBatch binary shapes (PR 4); everything
// else gobs, exactly mirroring the replication stream's split.

const walRecordHdr = 8 + 8 + 4 + 2

// WalNextFlush hands the host's WAL flusher its next sealed record:
// every op committed past the WAL cursor (bounded by maxOps) plus every
// pending blockchain key, serialized under the log mutex and sealed
// outside it. Returns n == 0 when nothing needs writing. lastSeq is the
// cursor after this record — the value to pass to WalSynced once the
// record is fsynced. Caller holds the wide lock in read mode; the
// single flusher goroutine is the only caller, so the scratch buffer
// and the walSeq cursor cannot race with themselves.
func (e *Enclave) WalNextFlush(maxOps int) (sealed []byte, lastSeq uint64, n int, err error) {
	w := e.wal
	l := w.log
	l.mu.Lock()
	if l.walSeq >= l.nextSeq && len(w.pendingKeys) == 0 {
		lastSeq = l.walSeq
		l.mu.Unlock()
		return nil, lastSeq, 0, nil
	}
	firstSeq := l.walSeq + 1
	end := l.nextSeq
	if max := l.walSeq + uint64(maxOps); end > max {
		end = max
	}
	buf := w.scratch[:0]
	buf = binary.BigEndian.AppendUint64(buf, w.gen)
	buf = binary.BigEndian.AppendUint64(buf, firstSeq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(end-l.walSeq))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(w.pendingKeys)))
	for _, kp := range w.pendingKeys {
		buf = append(buf, kp.PrivateBytes()...)
	}
	w.pendingKeys = w.pendingKeys[:0]
	for seq := firstSeq; seq <= end; seq++ {
		ent := l.entryAtLocked(seq)
		op := ent.op
		if kind := replBatchKind(op.Kind); kind != 0 {
			buf = append(buf, kind)
			if buf, err = wire.AppendLPChannelID(buf, op.Channel); err != nil {
				break
			}
			buf = binary.BigEndian.AppendUint64(buf, uint64(op.Amount))
			buf = binary.BigEndian.AppendUint32(buf, uint32(op.Count))
			continue
		}
		buf = append(buf, 0)
		var gobBuf bytes.Buffer
		if err = gob.NewEncoder(&gobBuf).Encode(op); err != nil {
			err = fmt.Errorf("core: encoding WAL op %v: %w", op.Kind, err)
			break
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(gobBuf.Len()))
		buf = append(buf, gobBuf.Bytes()...)
	}
	w.scratch = buf
	if err != nil {
		l.mu.Unlock()
		return nil, 0, 0, err
	}
	n = int(end - firstSeq + 1)
	l.walSeq = end
	lastSeq = end
	l.mu.Unlock()

	// Seal outside the log mutex: Platform.Seal is stateless, and the
	// wide read lock the caller holds already excludes snapshots.
	sealed, err = e.platform.Seal(e.measurement, buf)
	if err != nil {
		return nil, 0, 0, err
	}
	if n == 0 {
		n = 1 // key-only record: still one frame to write
	}
	return sealed, lastSeq, n, nil
}

// WalSynced advances the fsync cursor after the host's WAL flusher
// persisted the record ending at seq, and releases every entry all
// enabled cursors have passed. The returned Result carries the released
// withheld effects (possibly none); the host dispatches it under the
// wide write lock it already holds.
func (e *Enclave) WalSynced(seq uint64) *Result {
	l := e.wal.log
	l.mu.Lock()
	if seq > l.syncSeq {
		l.syncSeq = seq
	}
	replicated := false
	if e.repl != nil {
		_, replicated = e.repl.backup()
	}
	target := l.releaseTargetLocked(replicated)
	l.mu.Unlock()
	res := e.pools.getResult()
	e.releaseTo(l, target, res)
	return res
}

// --- Snapshots ---

// durableImage is everything a durable enclave needs to resurrect
// itself: identity, logical state, blockchain keys, and committee
// configuration. Sealed via tee.SealStateWithCounter so a stale image
// refuses to load (tee.ErrRolledBack).
type durableImage struct {
	Identity []byte // enclave identity private scalar
	KeySeq   uint64
	Seq      uint64 // log cursor the snapshot covers
	State    *State
	BtcKeys  map[cryptoutil.Address][]byte

	HasRepl       bool
	ChainID       string
	Members       []cryptoutil.PublicKey
	M             int
	MemberBtcKeys map[cryptoutil.PublicKey]cryptoutil.PublicKey
	Ready         bool
}

// SnapshotSealed captures the complete durable image at the committed
// frontier and seals it under a fresh monotonic-counter increment. The
// WAL cursor jumps to the frontier (ops the snapshot covers never need
// WAL records) and pending keys drain into the image. The host persists
// the blob, truncates the WAL, then calls WalSynced(seq) — the snapshot
// IS the group commit for everything it covers. Caller holds the wide
// write lock (no concurrent commits) and charges
// tee.CounterIncrementLatency outside it.
func (e *Enclave) SnapshotSealed() (blob []byte, seq uint64, err error) {
	w := e.wal
	l := w.log
	l.mu.Lock()
	seq = l.nextSeq
	l.walSeq = seq
	w.pendingKeys = w.pendingKeys[:0]
	l.mu.Unlock()

	img := durableImage{
		Identity: e.identity.PrivateBytes(),
		KeySeq:   e.keySeq,
		Seq:      seq,
		State:    e.state,
		BtcKeys:  make(map[cryptoutil.Address][]byte, len(e.btcKeys)),
	}
	for addr, kp := range e.btcKeys {
		img.BtcKeys[addr] = kp.PrivateBytes()
	}
	if e.repl != nil {
		img.HasRepl = true
		img.ChainID = e.repl.chainID
		img.Members = e.repl.members
		img.M = e.repl.m
		img.MemberBtcKeys = e.repl.memberBtcKeys
		img.Ready = e.repl.ready
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&img); err != nil {
		return nil, 0, fmt.Errorf("core: encoding durable image: %w", err)
	}
	blob, err = tee.SealStateWithCounter(e.platform, e.measurement, e.counterName, buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	gen := e.platform.ReadCounter(e.counterName)
	l.mu.Lock()
	w.gen = gen
	l.mu.Unlock()
	return blob, seq, nil
}

// --- Recovery ---

// RestoreDurable rebuilds the enclave from a sealed snapshot produced
// by SnapshotSealed, returning the log cursor it covers. A stale
// snapshot fails with tee.ErrRolledBack — the enclave refuses to start
// rather than resurrect spent balances. The identity, state, keys, and
// committee-primary configuration are replaced wholesale; the log
// restarts with every cursor at the snapshot's sequence. Call before
// any other use of the enclave (the host does this inside NewHost).
func (e *Enclave) RestoreDurable(blob []byte, notify func()) (uint64, error) {
	plain, err := tee.UnsealStateWithCounter(e.platform, e.measurement, e.counterName, blob)
	if err != nil {
		return 0, err
	}
	var img durableImage
	if err := gob.NewDecoder(bytes.NewReader(plain)).Decode(&img); err != nil {
		return 0, fmt.Errorf("core: decoding durable image: %w", err)
	}
	identity, err := cryptoutil.KeyPairFromPrivateBytes(img.Identity)
	if err != nil {
		return 0, fmt.Errorf("core: restoring enclave identity: %w", err)
	}
	if img.State == nil || img.State.Owner != identity.Public() {
		return 0, errors.New("core: durable image state does not match its identity")
	}
	e.identity = identity
	e.state = img.State
	// Every open channel reconciles with its peer before carrying new
	// payments again (see ChannelState.Resuming).
	for _, c := range e.state.Channels {
		if c.Open && !c.Closed {
			c.Resuming = true
		}
	}
	e.keySeq = img.KeySeq
	e.btcKeys = make(map[cryptoutil.Address]*cryptoutil.KeyPair, len(img.BtcKeys))
	for addr, priv := range img.BtcKeys {
		kp, err := cryptoutil.KeyPairFromPrivateBytes(priv)
		if err != nil {
			return 0, fmt.Errorf("core: restoring blockchain key %s: %w", addr, err)
		}
		if kp.Address() != addr {
			return 0, fmt.Errorf("core: blockchain key does not match address %s", addr)
		}
		e.btcKeys[addr] = kp
	}
	l := &replLog{durable: true, notify: notify}
	l.nextSeq, l.flushSeq, l.ackSeq = img.Seq, img.Seq, img.Seq
	l.walSeq, l.syncSeq, l.relSeq = img.Seq, img.Seq, img.Seq
	e.wal = &walState{log: l, gen: e.platform.ReadCounter(e.counterName)}
	if img.HasRepl {
		// The restored chain shares the log, so appends must wake the
		// replication flusher as well as the WAL's.
		l.notify = bothNotify(notify, e.replNotify)
		e.repl = &replPrimary{
			chainID:       img.ChainID,
			members:       img.Members,
			m:             img.M,
			memberBtcKeys: img.MemberBtcKeys,
			ready:         img.Ready,
			log:           l,
		}
	}
	return img.Seq, nil
}

// WalReplayRecord unseals and applies one WAL record during recovery,
// returning how many ops it applied. Records from an older snapshot
// generation, or wholly covered by the snapshot, skip with n == 0 (the
// WAL-truncation race after a snapshot leaves such records behind
// legally). A record that fails to unseal or parse is the torn tail of
// an interrupted write: the caller stops replay there. Ops apply to the
// state with their effects DISCARDED — they were withheld at commit
// time precisely so that a crash-recovered enclave could replay without
// re-emitting them; the resume protocol reconciles anything a peer
// already saw.
func (e *Enclave) WalReplayRecord(sealed []byte) (int, error) {
	w := e.wal
	l := w.log
	plain, err := e.platform.Unseal(e.measurement, sealed)
	if err != nil {
		return 0, fmt.Errorf("core: unsealing WAL record: %w", err)
	}
	if len(plain) < walRecordHdr {
		return 0, errors.New("core: WAL record truncated")
	}
	gen := binary.BigEndian.Uint64(plain[0:8])
	firstSeq := binary.BigEndian.Uint64(plain[8:16])
	opCount := int(binary.BigEndian.Uint32(plain[16:20]))
	keyCount := int(binary.BigEndian.Uint16(plain[20:22]))
	if gen < w.gen {
		return 0, nil // pre-snapshot leftovers; the snapshot covers them
	}
	if gen > w.gen {
		return 0, fmt.Errorf("core: WAL record from future generation %d (snapshot %d)", gen, w.gen)
	}
	lastSeq := firstSeq + uint64(opCount) - 1
	if opCount > 0 && lastSeq <= l.nextSeq {
		return 0, nil // wholly covered by the snapshot
	}
	if opCount > 0 && firstSeq != l.nextSeq+1 {
		return 0, fmt.Errorf("core: WAL record sequence gap: got %d, want %d", firstSeq, l.nextSeq+1)
	}
	rest := plain[walRecordHdr:]
	for i := 0; i < keyCount; i++ {
		if len(rest) < 32 {
			return 0, errors.New("core: WAL record truncated in keys")
		}
		kp, err := cryptoutil.KeyPairFromPrivateBytes(rest[:32])
		if err != nil {
			return 0, fmt.Errorf("core: WAL key replay: %w", err)
		}
		e.btcKeys[kp.Address()] = kp
		e.keySeq++
		rest = rest[32:]
	}
	applied := 0
	for i := 0; i < opCount; i++ {
		if len(rest) < 1 {
			return applied, errors.New("core: WAL record truncated in ops")
		}
		kindCode := rest[0]
		rest = rest[1:]
		op := &Op{}
		if kindCode != 0 {
			kind, ok := replOpKind(kindCode)
			if !ok {
				return applied, fmt.Errorf("core: WAL record has unknown op kind %d", kindCode)
			}
			ch, r2, err := wire.ReadLPChannelID(rest, "")
			if err != nil {
				return applied, fmt.Errorf("core: WAL hot op: %w", err)
			}
			if len(r2) < 12 {
				return applied, errors.New("core: WAL record truncated in hot op")
			}
			op.Kind = kind
			op.Channel = ch
			op.Amount = chain.Amount(binary.BigEndian.Uint64(r2[:8]))
			op.Count = int(int32(binary.BigEndian.Uint32(r2[8:12])))
			rest = r2[12:]
		} else {
			if len(rest) < 4 {
				return applied, errors.New("core: WAL record truncated in cold op")
			}
			glen := int(binary.BigEndian.Uint32(rest[:4]))
			if len(rest) < 4+glen {
				return applied, errors.New("core: WAL record truncated in cold op body")
			}
			if err := gob.NewDecoder(bytes.NewReader(rest[4 : 4+glen])).Decode(op); err != nil {
				return applied, fmt.Errorf("core: WAL cold op decode: %w", err)
			}
			rest = rest[4+glen:]
		}
		if err := e.state.Apply(op); err != nil {
			return applied, fmt.Errorf("core: WAL replay apply seq %d (%v): %w", firstSeq+uint64(i), op.Kind, err)
		}
		applied++
		l.nextSeq++
		l.flushSeq, l.ackSeq = l.nextSeq, l.nextSeq
		l.walSeq, l.syncSeq, l.relSeq = l.nextSeq, l.nextSeq, l.nextSeq
	}
	if len(rest) != 0 {
		return applied, errors.New("core: WAL record has trailing bytes")
	}
	return applied, nil
}

// CommitteeMembers returns the members of the committee chain this
// enclave owns (nil when it owns none) — the peers a recovered host
// must re-attest and resync before replication resumes.
func (e *Enclave) CommitteeMembers() []cryptoutil.PublicKey {
	if e.repl == nil {
		return nil
	}
	return e.repl.members
}

// --- Channel resume (post-recovery reconciliation) ---

// ChanResumeStart opens reconciliation of one channel after this
// enclave crash-recovered: it announces our durable cumulative receipt
// totals so the peer can revert optimistic debits we never durably saw.
// EvChannelResumed fires when the peer's ack closes the exchange.
func (e *Enclave) ChanResumeStart(ch wire.ChannelID) (*Result, error) {
	if e.state.Frozen {
		return nil, ErrFrozen
	}
	c, err := e.state.channel(ch)
	if err != nil {
		return nil, err
	}
	if _, err := e.session(c.Remote); err != nil {
		return nil, err
	}
	return &Result{Out: oneOut(c.Remote, &wire.ChanResume{
		Channel: ch, RecvAmt: c.RecvAmt, RecvCnt: c.RecvCnt,
	})}, nil
}

// handleChanResume is the surviving peer's half: compare the recovering
// sender's durable receipts against our cumulative sends and revert the
// excess — payments we debited optimistically whose Pay frames the
// sender never durably received. Group commit orders fsync before the
// Pay frame departs, so our receipts can never exceed the recovering
// peer's durable sends; the converse holds in handleChanResumeAck.
func (e *Enclave) handleChanResume(from cryptoutil.PublicKey, m *wire.ChanResume) (*Result, error) {
	c, err := e.state.channel(m.Channel)
	if err != nil {
		return nil, err
	}
	if c.Remote != from {
		return nil, fmt.Errorf("core: channel %s does not belong to %s", m.Channel, from)
	}
	ack := &wire.ChanResumeAck{Channel: m.Channel, RecvAmt: c.RecvAmt, RecvCnt: c.RecvCnt}
	c.Resuming = false // reconciliation is here; our side is unblocked below
	if c.Closed || !c.Open || c.Stage != MhIdle {
		// No payment flow to reconcile on a channel that cannot carry
		// payments right now; just report our receipts.
		return e.deferBehindPending(from, ack), nil
	}
	if c.SentAmt < m.RecvAmt || c.SentCnt < m.RecvCnt {
		return nil, fmt.Errorf("core: resume on %s claims %d received beyond %d sent",
			m.Channel, m.RecvAmt, c.SentAmt)
	}
	exAmt := c.SentAmt - m.RecvAmt
	exCnt := c.SentCnt - m.RecvCnt
	if exAmt == 0 && exCnt == 0 {
		return e.deferBehindPending(from, ack), nil
	}
	if exAmt == 0 || exCnt == 0 {
		return nil, fmt.Errorf("core: inconsistent resume excess on %s: %d over %d payments",
			m.Channel, exAmt, exCnt)
	}
	// The revert and the ack commit together: the ack rides as the
	// revert's withheld effect, so the recovering peer sees our totals
	// only after the revert is replicated/durable on our side.
	op := &Op{Kind: OpPayRevert, Channel: m.Channel, Amount: exAmt, Count: int(exCnt)}
	return e.commit(op,
		[]Outbound{{To: from, Msg: ack}},
		[]Event{EvPayNacked{Channel: m.Channel, Amount: exAmt, Count: int(exCnt), Reason: "peer recovered"}})
}

// handleChanResumeAck is the recovering side's half: revert our own
// optimistic debits the peer never received, then mark the channel
// resumed.
func (e *Enclave) handleChanResumeAck(from cryptoutil.PublicKey, m *wire.ChanResumeAck) (*Result, error) {
	c, err := e.state.channel(m.Channel)
	if err != nil {
		return nil, err
	}
	if c.Remote != from {
		return nil, fmt.Errorf("core: channel %s does not belong to %s", m.Channel, from)
	}
	resumed := Event(EvChannelResumed{Channel: m.Channel})
	c.Resuming = false
	if c.Closed || !c.Open || c.Stage != MhIdle {
		return &Result{Events: []Event{resumed}}, nil
	}
	if c.SentAmt < m.RecvAmt || c.SentCnt < m.RecvCnt {
		return nil, fmt.Errorf("core: resume ack on %s claims %d received beyond %d sent",
			m.Channel, m.RecvAmt, c.SentAmt)
	}
	exAmt := c.SentAmt - m.RecvAmt
	exCnt := c.SentCnt - m.RecvCnt
	if exAmt == 0 && exCnt == 0 {
		return &Result{Events: []Event{resumed}}, nil
	}
	if exAmt == 0 || exCnt == 0 {
		return nil, fmt.Errorf("core: inconsistent resume-ack excess on %s: %d over %d payments",
			m.Channel, exAmt, exCnt)
	}
	op := &Op{Kind: OpPayRevert, Channel: m.Channel, Amount: exAmt, Count: int(exCnt)}
	return e.commit(op, nil, []Event{
		EvPayNacked{Channel: m.Channel, Amount: exAmt, Count: int(exCnt), Reason: "lost in crash"},
		resumed,
	})
}
