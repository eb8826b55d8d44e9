package harness

// Durability integration tests: kill -9 a durable node mid-burst over
// real TCP sockets, restart it from its data directory, and drive the
// whole recovery through the typed control-plane API.

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"teechain/internal/api"
	"teechain/internal/api/client"
	"teechain/internal/transport"
	"teechain/internal/wire"
)

// TestDurableKillRestartRecovers is the crash-recovery acceptance
// test: a durable committee owner is killed without warning in the
// middle of a payment burst, restarted from its snapshot + WAL, and
// recovered through the typed API. Afterwards both channel endpoints
// hold bit-identical, conservation-clean balances, the committee is
// resynced, and payments flow again on the lane fast path.
func TestDurableKillRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	c, err := NewClusterWith(func(cfg *transport.Config) {
		if cfg.Name == "owner" {
			cfg.DataDir = filepath.Join(dir, cfg.Name)
		}
	}, "owner", "r1", "r2", "bob")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.FormCommittee("owner", []string{"r1", "r2"}, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect("owner", "bob"); err != nil {
		t.Fatal(err)
	}
	chStr, err := c.OpenChannel("owner", "bob", 100_000)
	if err != nil {
		t.Fatal(err)
	}
	chID := wire.ChannelID(chStr)
	owner := c.Client("owner")

	// A burst of 400 pipelined payments; the kill lands mid-flight,
	// after at least 50 have fully acked.
	pending, err := owner.PayAsync(chID, 3, 400)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(ClusterTimeout)
	for {
		st, err := owner.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Host.PaymentsAcked >= 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("burst never reached 50 acks")
		}
		time.Sleep(time.Millisecond)
	}
	c.KillNode("owner")
	pending.Wait() //nolint:errcheck // the connection died with the node

	// Restart from the data directory. Before recovery, payments and
	// settlement must refuse with the structured recovering code.
	if err := c.RestartNode("owner"); err != nil {
		t.Fatal(err)
	}
	owner = c.Client("owner")
	var ae *api.Error
	if err := owner.Pay(chID, 1, 1); !errors.As(err, &ae) || ae.Code != api.CodeRecovering {
		t.Fatalf("pay while recovering: %v, want CodeRecovering", err)
	}
	ws, err := owner.WalStats()
	if err != nil {
		t.Fatal(err)
	}
	if !ws.Durable || !ws.Recovering {
		t.Fatalf("restarted WalStats: %+v, want durable and recovering", ws)
	}

	// The node's peers moved to fresh listeners; re-dial them, then
	// run recovery end to end through the API.
	for _, peer := range []string{"r1", "r2", "bob"} {
		if err := owner.DialPeer(c.Host(peer).ListenAddr()); err != nil {
			t.Fatal(err)
		}
	}
	recovered, resumed, err := owner.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !recovered || resumed != 1 {
		t.Fatalf("Recover() = (%t, %d), want (true, 1)", recovered, resumed)
	}
	if recovered, _, err = owner.Recover(); err != nil || recovered {
		t.Fatalf("second Recover() = (%t, %v), want idempotent no-op", recovered, err)
	}

	// Both endpoints agree bit-for-bit, and no value was created or
	// destroyed: the crash can lose un-fsynced payments (reverted by
	// reconciliation) but never balances.
	oMine, oRemote, err := owner.Balances(chID)
	if err != nil {
		t.Fatal(err)
	}
	bMine, bRemote, err := c.Client("bob").Balances(chID)
	if err != nil {
		t.Fatal(err)
	}
	if oMine != bRemote || oRemote != bMine {
		t.Fatalf("balance views diverge after recovery: owner %d/%d, bob %d/%d",
			oMine, oRemote, bMine, bRemote)
	}
	if oMine+oRemote != 100_000 {
		t.Fatalf("conservation violated: %d + %d != 100000", oMine, oRemote)
	}

	// Payments flow again — through the resynced committee and the WAL.
	if err := owner.Pay(chID, 5, 100); err != nil {
		t.Fatal(err)
	}
	ws, err = owner.WalStats()
	if err != nil {
		t.Fatal(err)
	}
	if ws.Recovering || ws.Fsyncs == 0 {
		t.Fatalf("post-recovery WalStats: %+v", ws)
	}
	oMine2, _, err := owner.Balances(chID)
	if err != nil {
		t.Fatal(err)
	}
	if oMine2 != oMine-500 {
		t.Fatalf("post-recovery payments: balance %d, want %d", oMine2, oMine-500)
	}
}

// TestDurableSubscribeEvents streams the durability events over a real
// TCP subscription: a forced snapshot pushes EventSnapshot, and a
// kill/restart/recover cycle pushes EventRecovered.
func TestDurableSubscribeEvents(t *testing.T) {
	dir := t.TempDir()
	c, err := NewClusterWith(func(cfg *transport.Config) {
		if cfg.Name == "alice" {
			cfg.DataDir = filepath.Join(dir, cfg.Name)
		}
	}, "alice", "bob")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Connect("alice", "bob"); err != nil {
		t.Fatal(err)
	}
	chStr, err := c.OpenChannel("alice", "bob", 10_000)
	if err != nil {
		t.Fatal(err)
	}
	chID := wire.ChannelID(chStr)
	alice := c.Client("alice")
	sub, err := alice.Subscribe(api.MaskAll, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Pay(chID, 2, 20); err != nil {
		t.Fatal(err)
	}
	seq, err := alice.SnapshotNow()
	if err != nil {
		t.Fatal(err)
	}
	awaitEvent(t, sub.C, api.EventSnapshot, seq)

	c.KillNode("alice")
	if err := c.RestartNode("alice"); err != nil {
		t.Fatal(err)
	}
	alice = c.Client("alice")
	// A second connection carries the subscription so the recovered
	// event streams while the first connection runs Recover.
	watcher, err := client.Dial(c.ControlAddr("alice"))
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()
	watcher.SetTimeout(ClusterTimeout)
	sub2, err := watcher.Subscribe(api.MaskAll, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.DialPeer(c.Host("bob").ListenAddr()); err != nil {
		t.Fatal(err)
	}
	if recovered, _, err := alice.Recover(); err != nil || !recovered {
		t.Fatalf("Recover() = (%t, %v), want (true, nil)", recovered, err)
	}
	awaitEvent(t, sub2.C, api.EventRecovered, 0)
}

// awaitEvent drains the subscription until an event of the wanted kind
// arrives (with Cursor wantCursor when nonzero), failing on timeout.
func awaitEvent(t *testing.T, ch <-chan api.Event, kind api.EventKind, wantCursor uint64) {
	t.Helper()
	deadline := time.NewTimer(ClusterTimeout)
	defer deadline.Stop()
	for {
		select {
		case ev := <-ch:
			if ev.Kind != kind {
				continue
			}
			if wantCursor != 0 && ev.Cursor != wantCursor {
				t.Fatalf("event kind %d cursor %d, want %d", kind, ev.Cursor, wantCursor)
			}
			return
		case <-deadline.C:
			t.Fatalf("no event of kind %d within %s", kind, ClusterTimeout)
		}
	}
}
