package transport

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"teechain/internal/api"
	"teechain/internal/chain"
	"teechain/internal/tee"
)

// newDurableHost is newTestHost with a data directory: the host
// group-commits a WAL, seals snapshots, and recovers on restart.
func newDurableHost(t *testing.T, name string, auth *tee.Authority, lc *LocalChain, dir string) *Host {
	t.Helper()
	h, err := NewHost(Config{
		Name:      name,
		Authority: auth,
		Chain:     lc,
		DataDir:   dir,
		Logf:      func(format string, args ...any) { t.Logf(format, args...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// TestDurablePairPaysOnLanes runs payments between a durable node and
// an in-memory peer and pins the three properties the WAL design
// promises: every op reaches stable storage (the sync cursor catches
// the commit cursor), fsyncs are batched (group commit, far fewer
// fsyncs than ops), and the payment fast path survives — zero
// payments fall back to the wide lock.
func TestDurablePairPaysOnLanes(t *testing.T) {
	auth, err := tee.NewAuthority("transport-test")
	if err != nil {
		t.Fatal(err)
	}
	lc := NewLocalChain(chain.New())
	alice := newDurableHost(t, "alice", auth, lc, t.TempDir())
	bob := newTestHost(t, "bob", auth, lc)
	addr, err := bob.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.DialPeer(addr); err != nil {
		t.Fatal(err)
	}
	if err := alice.Attest("bob", testTimeout); err != nil {
		t.Fatal(err)
	}
	chID, err := alice.OpenChannel("bob", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.FundChannel(chID, 10_000, testTimeout); err != nil {
		t.Fatal(err)
	}
	const pays = 200
	for i := 0; i < pays; i++ {
		if err := alice.Pay(chID, 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := alice.AwaitAcked(pays, testTimeout); err != nil {
		t.Fatal(err)
	}
	// Acks release only after fsync, so by now the durable frontier has
	// covered every payment op; the cursors may still be a kick behind,
	// so give the flusher a moment.
	deadline := time.Now().Add(testTimeout)
	var ws WalStats
	for {
		var ok bool
		ws, ok = alice.WalStats()
		if !ok {
			t.Fatal("durable host reports no WAL stats")
		}
		if ws.SyncedSeq == ws.NextSeq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sync cursor never caught up: %+v", ws)
		}
		time.Sleep(time.Millisecond)
	}
	if ws.OpsLogged < pays {
		t.Fatalf("logged %d ops, want >= %d", ws.OpsLogged, pays)
	}
	if ws.Fsyncs == 0 || ws.Fsyncs >= ws.OpsLogged {
		t.Fatalf("group commit missing: %d fsyncs for %d ops", ws.Fsyncs, ws.OpsLogged)
	}
	seq, err := alice.SnapshotNow()
	if err != nil {
		t.Fatal(err)
	}
	if seq != ws.NextSeq {
		t.Fatalf("snapshot at seq %d, want committed frontier %d", seq, ws.NextSeq)
	}
	ws, _ = alice.WalStats()
	if ws.Snapshots < 2 || ws.SnapshotSeq != seq {
		t.Fatalf("snapshot stats: %+v", ws)
	}
}

// TestDurableRollbackRefused is the rollback defense: restarting a
// node from an older snapshot than the monotonic counter has seen must
// refuse with tee.ErrRolledBack instead of resurrecting spent state.
func TestDurableRollbackRefused(t *testing.T) {
	auth, err := tee.NewAuthority("transport-test")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lc := NewLocalChain(chain.New())
	mk := func() (*Host, error) {
		return NewHost(Config{Name: "solo", Authority: auth, Chain: lc, DataDir: dir})
	}
	h, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	snapPath := filepath.Join(dir, snapshotFileName)
	stale, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	// A clean restart advances the counter past the saved snapshot.
	if h, err = mk(); err != nil {
		t.Fatal(err)
	}
	h.Close()
	// The rollback: an operator (or attacker) restores the old file.
	if err := os.WriteFile(snapPath, stale, 0o600); err != nil {
		t.Fatal(err)
	}
	if h, err = mk(); err == nil {
		h.Close()
		t.Fatal("stale snapshot restarted; want tee.ErrRolledBack")
	} else if !errors.Is(err, tee.ErrRolledBack) {
		t.Fatalf("stale snapshot: %v, want tee.ErrRolledBack", err)
	}
}

// TestClassifyDurabilityCodes pins the structured error codes the
// durability surface adds, alongside the pre-existing classifications
// they must not disturb.
func TestClassifyDurabilityCodes(t *testing.T) {
	cases := []struct {
		err  error
		want api.Code
	}{
		{fmt.Errorf("%w (payment on c1)", ErrRecovering), api.CodeRecovering},
		{ErrRecovering, api.CodeRecovering},
		{fmt.Errorf("%w: waiting for acks", ErrTimeout), api.CodeTimeout},
		{ErrClosed, api.CodeUnavailable},
		{errors.New("boom"), api.CodeInternal},
	}
	for _, tc := range cases {
		var ae *api.Error
		if cerr := classify(tc.err); !errors.As(cerr, &ae) || ae.Code != tc.want {
			t.Fatalf("classify(%v) = %v, want %v", tc.err, cerr, tc.want)
		}
	}
}
