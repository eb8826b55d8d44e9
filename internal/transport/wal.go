package transport

// Durable host state: the WAL flusher, snapshot scheduling, and crash
// recovery (§6.2).
//
// A durable host (Config.DataDir set) keeps three files in its data
// directory:
//
//	snapshot.seal — the sealed durable image (tee.SealStateWithCounter,
//	                rollback-protected by the platform's monotonic
//	                counter), replaced atomically via rename;
//	wal.log       — sealed WAL records, each framed by a u32 length,
//	                appended and fsynced in batches, truncated after
//	                every snapshot;
//	counters.json — the platform's monotonic counter state
//	                (FileCounterStore), standing in for the hardware
//	                NVRAM counters of a real TEE.
//
// The WAL flusher mirrors the replication flusher (repl.go): lane
// payments append committed ops with withheld effects to the enclave's
// durable log behind the log's own mutex, and the flusher goroutine
// here drains that log into sealed records — collected under the wide
// READ lock (WalNextFlush), written and fsynced under no host lock at
// all, then released under the wide WRITE lock (WalSynced). One fsync
// covers up to walBatchOps commits: the paper's group commit, which is
// what keeps durable payments at line rate instead of the ~10 tx/s of
// per-op counter increments.
//
// Lock ordering is one-directional: h.mu may be held while taking
// walFileMu (SnapshotNow truncates the WAL under both), but the flusher
// always releases walFileMu before taking h.mu. A record the flusher
// writes concurrently with a snapshot's truncate can land after the
// truncate; it carries the previous snapshot generation, so replay
// skips it (WalReplayRecord's gen check) — harmless.
//
// Crash windows, by design:
//
//   - torn record tail (crash mid-write): replay stops at the first
//     record that fails to unseal or parse; the ops it carried were
//     never released (their fsync never completed), so losing them is
//     invisible to peers — the resume protocol reconciles the rest;
//   - snapshot counter increment vs. rename (crash between
//     SealStateWithCounter and the snapshot.seal rename): the surviving
//     older snapshot no longer matches the counter and recovery refuses
//     with tee.ErrRolledBack. Fail-safe (operator intervention) rather
//     than fail-open (silent rollback) — the paper's rule that state
//     may be lost but never resurrected.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"teechain/internal/cryptoutil"
	"teechain/internal/tee"
	"teechain/internal/wire"
)

// ErrRecovering reports an operation refused because the host restarted
// from durable state and has not finished reconciling with its peers
// (Host.Recover). The control plane maps it to api.CodeRecovering.
var ErrRecovering = errors.New("transport: recovering, run recover first")

// Durability parameters.
const (
	// walBatchOps caps the ops one WAL record (one fsync) covers — the
	// group-commit batch size.
	walBatchOps = 512
	// walFlushPeriod is the WAL flusher's safety tick; size kicks
	// normally wake it much sooner.
	walFlushPeriod = 2 * time.Millisecond
	// snapshotPeriod is the periodic snapshot cadence, beside the boot
	// snapshot and explicit SnapshotNow calls.
	snapshotPeriod = 30 * time.Second

	walFileName            = "wal.log"
	snapshotFileName       = "snapshot.seal"
	snapshotTmpName        = "snapshot.tmp"
	counterFileName        = "counters.json"
	maxWalRecordBytes      = 64 << 20
	recoverAwaitPeerWhat   = "peer record of a resumed neighbor"
	recoverAwaitResyncWhat = "committee resync"
)

// Transport-level durability events, delivered to Host.Observe like
// enclave events; the control plane streams them as
// api.EventSnapshot / EventWalLag / EventRecovered.
type (
	// EvSnapshot reports a sealed snapshot: everything up to Seq is now
	// covered by snapshot.seal and the WAL has been truncated.
	EvSnapshot struct{ Seq uint64 }
	// EvWalLag reports a new high-water mark of the fsync lag — ops
	// committed but not yet durable (and therefore with effects still
	// withheld). A persistently growing value means the disk cannot
	// keep up with the payment rate.
	EvWalLag struct{ Lag uint64 }
	// EvRecovered reports that crash recovery finished: sessions
	// re-attested, channels reconciled, committee resynced; the host
	// accepts payments again.
	EvRecovered struct{}
)

// FileCounterStore persists a tee.Platform's monotonic counters to a
// JSON file, standing in for hardware NVRAM. Save is atomic
// (write-to-temp + rename); a missing file loads as empty. Losing the
// file is fail-safe: counters restart at zero, every existing sealed
// snapshot reads as from-the-future, and recovery refuses rather than
// resurrects.
type FileCounterStore struct{ Path string }

// Load implements tee.CounterStore.
func (s *FileCounterStore) Load() (map[string]uint64, error) {
	data, err := os.ReadFile(s.Path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	m := make(map[string]uint64)
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("transport: counter store %s: %w", s.Path, err)
	}
	return m, nil
}

// Save implements tee.CounterStore.
func (s *FileCounterStore) Save(m map[string]uint64) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := s.Path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o600); err != nil {
		return err
	}
	return os.Rename(tmp, s.Path)
}

// initDurable brings up the durable side of a new host: restore the
// sealed snapshot and replay the WAL when they exist (returning
// tee.ErrRolledBack for a stale snapshot), or enable a fresh durable
// enclave otherwise; then seal a fresh snapshot (collapsing whatever
// was replayed and establishing the WAL generation) and start the
// flusher. Called from NewHost before any goroutine exists.
func (h *Host) initDurable(platform *tee.Platform) error {
	dir := h.cfg.DataDir
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return err
	}
	if err := platform.SetCounterStore(&FileCounterStore{Path: filepath.Join(dir, counterFileName)}); err != nil {
		return fmt.Errorf("transport: loading counter store: %w", err)
	}
	snapPath := filepath.Join(dir, snapshotFileName)
	walPath := filepath.Join(dir, walFileName)
	blob, err := os.ReadFile(snapPath)
	switch {
	case err == nil:
		seq, err := h.enclave.RestoreDurable(blob, h.kickWal)
		if err != nil {
			return fmt.Errorf("transport: restoring snapshot: %w", err)
		}
		applied, err := h.replayWal(walPath)
		if err != nil {
			return err
		}
		h.logf("%s: restored snapshot at seq %d, replayed %d WAL ops", h.cfg.Name, seq, applied)
		// Rebuild the host-level channel table (normally populated by
		// EvChannelOpen events) from the restored enclave state, so
		// post-recovery payments resolve their peer and lane. The
		// payment counters restart at zero — they are per-process
		// counters, not durable state.
		for id, c := range h.enclave.State().Channels {
			ci := h.channelLocked(id)
			ci.peer = c.Remote
			ci.open = c.Open
			ci.closed = c.Closed
		}
		// Peers may hold state this host must reconcile before it can
		// safely process new payments: open channels (optimistic debits
		// the crash may have orphaned on either side) and committee
		// mirrors (the replication cursor). Payments and settlement are
		// refused with ErrRecovering until Recover completes.
		for _, c := range h.enclave.State().Channels {
			if c.Open && !c.Closed {
				h.recovering.Store(true)
				break
			}
		}
		if h.enclave.CommitteeMembers() != nil {
			h.recovering.Store(true)
		}
	case errors.Is(err, os.ErrNotExist):
		h.enclave.EnableDurable(h.kickWal)
	default:
		return err
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return err
	}
	h.walFile = f
	// The boot snapshot: collapses the replayed WAL (truncating it),
	// bumps the generation so leftover records can never replay twice,
	// and on a fresh host establishes generation 1 so the first WAL
	// records have a snapshot to follow.
	if _, err := h.SnapshotNow(); err != nil {
		f.Close()
		return fmt.Errorf("transport: boot snapshot: %w", err)
	}
	h.wg.Add(1)
	go h.walFlusher()
	return nil
}

// replayWal replays wal.log through the enclave: u32 length-framed
// sealed records, stopping silently at the torn tail of an interrupted
// write (the crash happened before that record's fsync completed, so
// nothing external ever saw its effects). Corruption anywhere else
// also reads as a tail stop — WAL records past it are unreleased by
// construction, so stopping is always safe.
func (h *Host) replayWal(path string) (int, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	total := 0
	for off := 0; ; {
		if len(data)-off < 4 {
			break
		}
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		if n == 0 || n > maxWalRecordBytes || off+4+n > len(data) {
			h.logf("%s: WAL torn tail at offset %d, stopping replay", h.cfg.Name, off)
			break
		}
		applied, err := h.enclave.WalReplayRecord(data[off+4 : off+4+n])
		if err != nil {
			h.logf("%s: WAL replay stopped at offset %d: %v", h.cfg.Name, off, err)
			break
		}
		total += applied
		off += 4 + n
	}
	return total, nil
}

// kickWal wakes the WAL flusher without blocking; it is the durable
// log's append notification.
func (h *Host) kickWal() {
	select {
	case h.walKick <- struct{}{}:
	default:
	}
}

// walFlusher drains the durable log until the host closes, and takes
// the periodic snapshot.
func (h *Host) walFlusher() {
	defer h.wg.Done()
	ticker := time.NewTicker(walFlushPeriod)
	defer ticker.Stop()
	snapTicker := time.NewTicker(snapshotPeriod)
	defer snapTicker.Stop()
	for {
		select {
		case <-h.walKick:
		case <-ticker.C:
		case <-snapTicker.C:
			if _, err := h.SnapshotNow(); err != nil && !errors.Is(err, ErrClosed) {
				h.logf("%s: periodic snapshot: %v", h.cfg.Name, err)
			}
			continue
		case <-h.quit:
			return
		}
		h.walFlush()
	}
}

// walFlush drains everything currently unfsynced: each iteration
// collects the next record under the wide read lock (never stalling
// payment lanes), writes and fsyncs it under no host lock, then takes
// the wide write lock once to advance the sync cursor and dispatch the
// released effects. A write or fsync failure is fail-safe: the ops'
// effects stay withheld forever (peers see stalled payments, not lost
// money), and the error is logged loudly.
func (h *Host) walFlush() {
	for {
		h.mu.RLock()
		if h.closed {
			h.mu.RUnlock()
			return
		}
		sealed, lastSeq, n, err := h.enclave.WalNextFlush(walBatchOps)
		h.mu.RUnlock()
		if err != nil {
			h.logf("%s: WAL collect: %v", h.cfg.Name, err)
			return
		}
		if n == 0 {
			return
		}
		if err := h.walWrite(sealed); err != nil {
			h.logf("%s: WAL WRITE FAILED, effects withheld: %v", h.cfg.Name, err)
			return
		}
		h.walFsyncs.Add(1)
		h.walOpsOut.Add(uint64(n))
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			return
		}
		res := h.enclave.WalSynced(lastSeq)
		h.dispatchLocked(res)
		next, _, synced := h.enclave.WalCursors()
		if lag := next - synced; lag > h.walLagMax.Load() {
			h.walLagMax.Store(lag)
			h.fanObservers(EvWalLag{Lag: lag})
		}
		h.mu.Unlock()
	}
}

// walWrite appends one length-framed sealed record and fsyncs. A crash
// between the write and the fsync leaves a torn tail that replay
// discards — which is correct, because the effects gated on this fsync
// were never released.
func (h *Host) walWrite(sealed []byte) error {
	h.walFileMu.Lock()
	defer h.walFileMu.Unlock()
	buf := h.walBuf[:0]
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(sealed)))
	buf = append(buf, sealed...)
	h.walBuf = buf
	if _, err := h.walFile.Write(buf); err != nil {
		return err
	}
	return h.walFile.Sync()
}

// SnapshotNow seals a snapshot of the complete durable image at the
// committed frontier, persists it atomically, truncates the WAL, and
// releases everything the snapshot covers — one monotonic-counter
// increment amortized over every op since the last snapshot. The
// counter latency (tee.CounterIncrementLatency) is charged after all
// locks are dropped. Returns the log sequence the snapshot covers.
func (h *Host) SnapshotNow() (uint64, error) {
	if !h.enclave.Durable() {
		return 0, errors.New("transport: not a durable host")
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return 0, ErrClosed
	}
	blob, seq, err := h.enclave.SnapshotSealed()
	if err != nil {
		h.mu.Unlock()
		return 0, err
	}
	if err := h.persistSnapshotLocked(blob); err != nil {
		h.mu.Unlock()
		return 0, err
	}
	res := h.enclave.WalSynced(seq)
	h.dispatchLocked(res)
	h.snapSeq.Store(seq)
	h.snapTime.Store(time.Now().UnixNano())
	h.snapCount.Add(1)
	h.fanObservers(EvSnapshot{Seq: seq})
	h.mu.Unlock()
	time.Sleep(tee.CounterIncrementLatency)
	return seq, nil
}

// persistSnapshotLocked writes the sealed snapshot durably (temp file,
// fsync, atomic rename) and truncates the WAL. Caller holds the wide
// write lock; the walFileMu nested acquisition follows the package's
// one-directional lock order.
func (h *Host) persistSnapshotLocked(blob []byte) error {
	dir := h.cfg.DataDir
	tmp := filepath.Join(dir, snapshotTmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotFileName)); err != nil {
		return err
	}
	h.walFileMu.Lock()
	defer h.walFileMu.Unlock()
	return h.walFile.Truncate(0)
}

// Kill models `kill -9` for crash-recovery tests: the host goes down
// without flushing, snapshotting, or saying goodbye to peers. (Close
// never snapshots either — a durable host always restarts through the
// recovery path — but Kill documents the intent at call sites.)
func (h *Host) Kill() { h.Close() }

// Recovering reports whether the host restarted from durable state and
// has not yet finished Recover. While true, payments and settlement
// fail with ErrRecovering.
func (h *Host) Recovering() bool { return h.recovering.Load() }

// Recover reconciles a crash-restarted host with its peers and lifts
// the ErrRecovering gate:
//
//  1. re-attest every neighbor (channel peers and committee members)
//     with a resume handshake that replaces the peer's stale session —
//     the operator must have re-dialed them (or they us) first;
//  2. when this host owns a committee chain, re-seed every mirror
//     (ReplResync) and restart the pipelined replication flusher —
//     before the channels, because the reconciliation commits of step
//     3 release their effects only once replicated;
//  3. reconcile every open channel (ChanResume): both sides revert the
//     optimistic debits the other never durably received.
//
// No-op on a host that is not recovering. Blocks up to timeout per
// awaited step; on timeout the host stays in recovery (Recover can be
// retried).
func (h *Host) Recover(timeout time.Duration) error {
	if !h.recovering.Load() {
		return nil
	}

	h.mu.Lock()
	var chans []wire.ChannelID
	var peers []cryptoutil.PublicKey
	seen := make(map[cryptoutil.PublicKey]bool)
	for id, c := range h.enclave.State().Channels {
		if c.Open && !c.Closed {
			chans = append(chans, id)
			if !seen[c.Remote] {
				seen[c.Remote] = true
				peers = append(peers, c.Remote)
			}
		}
	}
	members := h.enclave.CommitteeMembers()
	self := h.enclave.Identity()
	for _, m := range members {
		if m != self && !seen[m] {
			seen[m] = true
			peers = append(peers, m)
		}
	}
	h.mu.Unlock()
	sort.Slice(chans, func(i, j int) bool { return chans[i] < chans[j] })

	for _, id := range peers {
		id := id
		if err := h.await(timeout, recoverAwaitPeerWhat, func() bool {
			return h.peersByID[id] != nil
		}); err != nil {
			return err
		}
		h.mu.Lock()
		res, err := h.enclave.StartAttestResume(id)
		if err != nil {
			h.mu.Unlock()
			return err
		}
		h.dispatchLocked(res)
		h.mu.Unlock()
		if err := h.await(timeout, "resumed session", func() bool {
			return h.enclave.SessionEstablished(id)
		}); err != nil {
			return err
		}
	}

	if len(members) > 0 {
		h.mu.Lock()
		h.resynced = false
		res, err := h.enclave.ReplResyncStart()
		if err != nil {
			h.mu.Unlock()
			return err
		}
		h.dispatchLocked(res)
		startFlusher := !h.replRunning
		if startFlusher {
			h.replRunning = true
			h.wg.Add(1)
		}
		h.mu.Unlock()
		if startFlusher {
			go h.replFlusher()
		}
		if err := h.await(timeout, recoverAwaitResyncWhat, func() bool {
			return h.resynced
		}); err != nil {
			return err
		}
	}

	for _, ch := range chans {
		ch := ch
		h.mu.Lock()
		res, err := h.enclave.ChanResumeStart(ch)
		if err != nil {
			h.mu.Unlock()
			return err
		}
		h.dispatchLocked(res)
		h.mu.Unlock()
		if err := h.await(timeout, fmt.Sprintf("resume of channel %s", ch), func() bool {
			return h.resumedChans[ch]
		}); err != nil {
			return err
		}
	}

	h.recovering.Store(false)
	h.mu.Lock()
	h.fanObservers(EvRecovered{})
	h.mu.Unlock()
	return nil
}

// WalStats is the durability pipeline snapshot surfaced through the
// control API. The cursors are mutually consistent (read in one log
// acquisition); the counters are independent atomics.
type WalStats struct {
	NextSeq     uint64        // ops committed
	FlushedSeq  uint64        // ops handed to the WAL flusher
	SyncedSeq   uint64        // ops fsynced (effects released)
	FsyncLag    uint64        // NextSeq - SyncedSeq right now
	FsyncLagMax uint64        // high-water mark of the fsync lag
	Fsyncs      uint64        // batched fsyncs performed
	OpsLogged   uint64        // ops carried by those fsyncs
	SnapshotSeq uint64        // log cursor of the last snapshot
	SnapshotAge time.Duration // time since the last snapshot
	Snapshots   uint64        // snapshots sealed since start
	Recovering  bool          // Recover not yet complete
}

// WalStats reports the durability pipeline state; ok is false on a
// non-durable host.
func (h *Host) WalStats() (WalStats, bool) {
	if !h.enclave.Durable() {
		return WalStats{}, false
	}
	h.mu.RLock()
	next, flushed, synced := h.enclave.WalCursors()
	h.mu.RUnlock()
	st := WalStats{
		NextSeq:     next,
		FlushedSeq:  flushed,
		SyncedSeq:   synced,
		FsyncLag:    next - synced,
		FsyncLagMax: h.walLagMax.Load(),
		Fsyncs:      h.walFsyncs.Load(),
		OpsLogged:   h.walOpsOut.Load(),
		SnapshotSeq: h.snapSeq.Load(),
		Snapshots:   h.snapCount.Load(),
		Recovering:  h.recovering.Load(),
	}
	if t := h.snapTime.Load(); t != 0 {
		st.SnapshotAge = time.Since(time.Unix(0, t))
	}
	return st, true
}
