package transport

// Tests for the robustness hardening that rode in with the chaos
// layer: jittered reconnect backoff, typed chain-RPC unavailability,
// and a settling node observing a chain reorg.

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"teechain/internal/api"
	"teechain/internal/chain"
)

func TestNextBackoffSchedule(t *testing.T) {
	const max = 4 * time.Second
	// u=0 leaves the sleep at the full delay; the next delay doubles.
	sleep, next := nextBackoff(time.Second, max, 0.5, 0)
	if sleep != time.Second || next != 2*time.Second {
		t.Fatalf("u=0: sleep=%v next=%v, want 1s/2s", sleep, next)
	}
	// Doubling saturates at the cap.
	if _, next = nextBackoff(max, max, 0.5, 0); next != max {
		t.Fatalf("next=%v, want capped at %v", next, max)
	}
	// Jitter j with sample u scales the sleep to (1-j*u)*d.
	if sleep, _ = nextBackoff(time.Second, max, 0.5, 0.5); sleep != 750*time.Millisecond {
		t.Fatalf("j=0.5 u=0.5: sleep=%v, want 750ms", sleep)
	}
	// The worst case (u→1) still sleeps at least (1-j)*d — never zero.
	if sleep, _ = nextBackoff(time.Second, max, 0.5, 0.999999); sleep < 500*time.Millisecond {
		t.Fatalf("lower bound violated: sleep=%v < 500ms", sleep)
	}
	// Jitter 0 is deterministic regardless of the random sample.
	if sleep, _ = nextBackoff(time.Second, max, 0, 0.9); sleep != time.Second {
		t.Fatalf("disabled jitter: sleep=%v, want 1s", sleep)
	}
}

// TestRemoteChainUnavailableTyped: transport-layer chain RPC failures
// carry the ErrChainUnavailable sentinel — distinguishable from ledger
// rejections — and the control plane classifies them as unavailable.
func TestRemoteChainUnavailableTyped(t *testing.T) {
	// Nothing listening at the address: the dial itself is typed.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := DialChain(addr); !errors.Is(err, ErrChainUnavailable) {
		t.Fatalf("dial to dead endpoint: %v, want ErrChainUnavailable", err)
	}

	// Endpoint dies with a request in flight (the mid-settle case): the
	// call reports the sentinel, not a raw gob error string.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	go func() {
		conn, err := ln2.Accept()
		if err == nil {
			conn.Close() // server drops the connection immediately
		}
	}()
	rc, err := DialChain(ln2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	// Retries off: this test types the failure; nobody is accepting
	// anymore, so each retry would block a full RPC timeout on redial.
	rc.SetRetry(1, 0, 0)
	_, err = rc.Height()
	if !errors.Is(err, ErrChainUnavailable) {
		t.Fatalf("call after endpoint death: %v, want ErrChainUnavailable", err)
	}
	var ae *api.Error
	if cerr := classify(err); !errors.As(cerr, &ae) || ae.Code != api.CodeUnavailable {
		t.Fatalf("classify(%v) = %v, want CodeUnavailable", err, cerr)
	}
}

// flakyChainServer serves the chain RPC on a loopback listener but
// kills the first kills accepted connections immediately, simulating an
// endpoint that bounces and comes back.
func flakyChainServer(t *testing.T, kills int32) (addr string) {
	t.Helper()
	lc := NewLocalChain(chain.New())
	srv := &ChainServer{lc: lc}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var remaining atomic.Int32
	remaining.Store(kills)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if remaining.Add(-1) >= 0 {
				conn.Close()
				continue
			}
			srv.wg.Add(1)
			go srv.serveConn(conn)
		}
	}()
	return ln.Addr().String()
}

// TestRemoteChainRetriesIdempotent: a read against an endpoint that
// bounces twice succeeds in place — the client redials and re-issues
// under its capped jittered backoff instead of surfacing the failure.
// The sleeps are injected and asserted exactly: base/2 then base (Rand
// pinned to 0 makes each jittered sleep the lower bound d/2).
func TestRemoteChainRetriesIdempotent(t *testing.T) {
	addr := flakyChainServer(t, 2)
	rc, err := DialChainTimeout(addr, time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer rc.Close()
	var slept []time.Duration
	rc.SetRetry(4, 20*time.Millisecond, 100*time.Millisecond)
	rc.sleep = func(d time.Duration) { slept = append(slept, d) }
	rc.rnd = func() float64 { return 0 }

	// The dial consumed the first killed connection; the call burns the
	// second on attempt one, redials into the third (served), succeeds.
	if _, err := rc.Height(); err != nil {
		t.Fatalf("height after bounce: %v", err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Fatalf("sleeps %v, want %v", slept, want)
	}
}

// TestRemoteChainFundNotRetried: Fund is not idempotent (a lost reply
// after the server funded would double-mint), so a transport failure
// surfaces immediately — typed, after exactly one attempt, no backoff.
func TestRemoteChainFundNotRetried(t *testing.T) {
	addr := flakyChainServer(t, 1<<30) // every connection dies
	rc, err := DialChainTimeout(addr, time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer rc.Close()
	rc.sleep = func(time.Duration) { t.Fatal("slept retrying a non-idempotent op") }
	_, err = rc.Fund(chain.Script{}, 100)
	if !errors.Is(err, ErrChainUnavailable) {
		t.Fatalf("fund against dead endpoint: %v, want ErrChainUnavailable", err)
	}
}

// TestSettleObservesReorg settles a channel, mines the settlement, then
// forks the chain out from under the settled node: the wallet balances
// revert (the settlement is back in the mempool) and the next block
// restores them — no value is created or destroyed across the fork.
func TestSettleObservesReorg(t *testing.T) {
	alice, bob, lc := setupPair(t)

	if err := alice.Attest("bob", testTimeout); err != nil {
		t.Fatal(err)
	}
	chID, err := alice.OpenChannel("bob", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.FundChannel(chID, 1000, testTimeout); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := alice.Pay(chID, 10); err != nil {
			t.Fatal(err)
		}
	}
	if err := alice.AwaitAcked(10, testTimeout); err != nil {
		t.Fatal(err)
	}
	if err := alice.Settle(chID); err != nil {
		t.Fatal(err)
	}
	lc.With(func(c *chain.Chain) { c.MineBlock() })
	aliceBal, _ := lc.Balance(alice.WalletAddress())
	bobBal, _ := lc.Balance(bob.WalletAddress())
	if aliceBal != 900 || bobBal != 100 {
		t.Fatalf("settled balances: alice=%d bob=%d, want 900/100", aliceBal, bobBal)
	}

	// The block carrying the settlement is orphaned.
	if err := lc.Reorg(1); err != nil {
		t.Fatal(err)
	}
	aliceBal, _ = lc.Balance(alice.WalletAddress())
	bobBal, _ = lc.Balance(bob.WalletAddress())
	if aliceBal != 0 || bobBal != 0 {
		t.Fatalf("balances after reorg: alice=%d bob=%d, want 0/0 (settlement unconfirmed)", aliceBal, bobBal)
	}
	lc.With(func(c *chain.Chain) {
		if c.TotalUnspent() != c.Minted() {
			t.Fatalf("reorg broke conservation: unspent %d, minted %d", c.TotalUnspent(), c.Minted())
		}
	})

	// The displaced settlement re-mines from the mempool.
	lc.With(func(c *chain.Chain) { c.MineBlock() })
	aliceBal, _ = lc.Balance(alice.WalletAddress())
	bobBal, _ = lc.Balance(bob.WalletAddress())
	if aliceBal != 900 || bobBal != 100 {
		t.Fatalf("balances after re-mine: alice=%d bob=%d, want 900/100", aliceBal, bobBal)
	}
}
