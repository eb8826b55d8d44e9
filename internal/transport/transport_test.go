package transport

import (
	"errors"
	"net"
	"testing"
	"time"

	"teechain/internal/api"
	"teechain/internal/api/client"
	"teechain/internal/chain"
	"teechain/internal/core"
	"teechain/internal/cryptoutil"
	"teechain/internal/tee"
)

func newWalletKey(seed string) (*cryptoutil.KeyPair, error) {
	return cryptoutil.GenerateKeyPair(cryptoutil.NewDeterministicReader([]byte("wallet"), []byte(seed)))
}

// awaitState polls until pred holds over h's enclave state.
func awaitState(t *testing.T, h *Host, pred func(*core.Enclave) bool) {
	t.Helper()
	deadline := time.Now().Add(testTimeout)
	for {
		ok := false
		h.WithEnclave(func(e *core.Enclave) { ok = pred(e) })
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for enclave state")
		}
		time.Sleep(time.Millisecond)
	}
}

const testTimeout = 20 * time.Second

func newTestHost(t *testing.T, name string, auth *tee.Authority, lc *LocalChain) *Host {
	t.Helper()
	h, err := NewHost(Config{
		Name:      name,
		Authority: auth,
		Chain:     lc,
		Logf:      func(format string, args ...any) { t.Logf(format, args...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

func setupPair(t *testing.T) (alice, bob *Host, lc *LocalChain) {
	t.Helper()
	auth, err := tee.NewAuthority("transport-test")
	if err != nil {
		t.Fatal(err)
	}
	lc = NewLocalChain(chain.New())
	alice = newTestHost(t, "alice", auth, lc)
	bob = newTestHost(t, "bob", auth, lc)
	addr, err := bob.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.DialPeer(addr); err != nil {
		t.Fatal(err)
	}
	return alice, bob, lc
}

// TestHostPaymentsOverTCP runs the full channel lifecycle between two
// socket hosts: attestation, channel open, deposit approval and
// association, payments, and on-chain settlement.
func TestHostPaymentsOverTCP(t *testing.T) {
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

	const payments = 10
	for i := 0; i < payments; i++ {
		if err := alice.Pay(chID, 10); err != nil {
			t.Fatal(err)
		}
	}
	if err := alice.AwaitAcked(payments, testTimeout); err != nil {
		t.Fatal(err)
	}
	mine, remote, err := alice.ChannelBalances(chID)
	if err != nil {
		t.Fatal(err)
	}
	if mine != 900 || remote != 100 {
		t.Fatalf("balances after payments: mine=%d remote=%d, want 900/100", mine, remote)
	}

	if err := alice.Settle(chID); err != nil {
		t.Fatal(err)
	}
	lc.With(func(c *chain.Chain) { c.MineBlock() })
	aliceBal, _ := lc.Balance(alice.WalletAddress())
	bobBal, _ := lc.Balance(bob.WalletAddress())
	if aliceBal != 900 || bobBal != 100 {
		t.Fatalf("on-chain settlement: alice=%d bob=%d, want 900/100", aliceBal, bobBal)
	}
}

// TestReconnectDeliversQueuedExactlyOnce restarts the receiving peer's
// network (listener gone, connections dropped), queues payments while
// it is unreachable, and checks every queued payment arrives exactly
// once after the automatic reconnect.
func TestReconnectDeliversQueuedExactlyOnce(t *testing.T) {
	alice, bob, _ := setupPair(t)
	addr := bob.ListenAddr()

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
	// Wait until bob has processed the deposit association: frames
	// already written to a dying socket are not redelivered (only
	// still-queued frames are), so the drop below must not race the
	// funding handshake.
	awaitState(t, bob, func(e *core.Enclave) bool {
		c, ok := e.State().Channels[chID]
		return ok && len(c.RemoteDeps) == 1
	})

	// Take bob's network down entirely.
	bob.CloseListener()
	bob.DropConnections()
	alice.DropConnections()

	// Queue payments while the peer is unreachable.
	const queued = 25
	for i := 0; i < queued; i++ {
		if err := alice.Pay(chID, 7); err != nil {
			t.Fatal(err)
		}
	}
	if got := alice.Stats().PaymentsAcked; got != 0 {
		t.Fatalf("payments acked while peer down: %d", got)
	}

	// Restart bob's listener on the same address; alice's backoff
	// redial finds it and the queue drains.
	if _, err := bob.Listen(addr); err != nil {
		t.Fatal(err)
	}
	if err := alice.AwaitAcked(queued, testTimeout); err != nil {
		t.Fatal(err)
	}

	// Exactly once: bob saw each queued payment a single time, and the
	// channel moved by exactly the queued total.
	if got := bob.Stats().PaymentsReceived; got != queued {
		t.Fatalf("bob received %d payments, want exactly %d", got, queued)
	}
	time.Sleep(100 * time.Millisecond) // a duplicate would arrive late
	if got := bob.Stats().PaymentsReceived; got != queued {
		t.Fatalf("bob received %d payments after settle-down, want exactly %d", got, queued)
	}
	mine, remote, err := alice.ChannelBalances(chID)
	if err != nil {
		t.Fatal(err)
	}
	if want := chain.Amount(10_000 - queued*7); mine != want || remote != chain.Amount(queued*7) {
		t.Fatalf("balances after reconnect: mine=%d remote=%d, want %d/%d", mine, remote, want, queued*7)
	}
	if rc := alice.Stats().Reconnects; rc == 0 {
		t.Fatal("alice reports no reconnects; the drop did not exercise the redial path")
	}
}

// TestMutualDialClosesCleanly has both hosts dial each other — each
// then holds two peer records for one identity until the hellos
// collapse them — and checks the deployment still works and Close does
// not hang on an orphaned writer goroutine.
func TestMutualDialClosesCleanly(t *testing.T) {
	alice, bob, _ := setupPair(t)
	aliceAddr, err := alice.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := bob.DialPeer(aliceAddr); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.AwaitPeer("alice", testTimeout); err != nil {
		t.Fatal(err)
	}
	if err := alice.Attest("bob", testTimeout); err != nil {
		t.Fatal(err)
	}
	chID, err := alice.OpenChannel("bob", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.FundChannel(chID, 100, testTimeout); err != nil {
		t.Fatal(err)
	}
	if err := alice.Pay(chID, 10); err != nil {
		t.Fatal(err)
	}
	if err := alice.AwaitAcked(1, testTimeout); err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() {
		alice.Close()
		bob.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(testTimeout):
		t.Fatal("Close hung after mutual dial")
	}
}

// dialControl serves h's control API on a loopback port and returns a
// connected typed client; both close with the test.
func dialControl(t *testing.T, h *Host) *client.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := api.Serve(ln, h.API(), h.logf)
	t.Cleanup(srv.Close)
	cc, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })
	return cc
}

// TestControlAPI drives a two-node deployment purely through the
// control-plane API.
func TestControlAPI(t *testing.T) {
	alice, _, _ := setupPair(t)
	cc := dialControl(t, alice)

	if cc.Info().Name != "alice" {
		t.Fatalf("hello: %+v", cc.Info())
	}
	if err := cc.Attest("bob"); err != nil {
		t.Fatal(err)
	}
	chID, err := cc.OpenChannel("bob")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Deposit(chID, 500); err != nil {
		t.Fatal(err)
	}
	if err := cc.Pay(chID, 5, 20); err != nil {
		t.Fatalf("pay: %v", err)
	}
	if mine, remote, err := cc.Balances(chID); err != nil || mine != 400 || remote != 100 {
		t.Fatalf("balances: %d %d, %v", mine, remote, err)
	}
	if err := cc.Settle(chID); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Mine(1); err != nil {
		t.Fatal(err)
	}
	if bal, err := cc.Balance(); err != nil || bal != 400 {
		t.Fatalf("balance: %d, %v", bal, err)
	}
	st, err := cc.Stats()
	if err != nil || st.Host.PaymentsAcked != 20 {
		t.Fatalf("stats: %+v, %v", st, err)
	}
	var ae *api.Error
	if _, _, err := cc.Balances("no-such-channel"); !errors.As(err, &ae) || ae.Code != api.CodeNotFound {
		t.Fatalf("balances of an unknown channel: %v, want CodeNotFound", err)
	}
}

// TestChainRPC round-trips every chain operation through the TCP chain
// service.
func TestChainRPC(t *testing.T) {
	lc := NewLocalChain(chain.New())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeChain(ln, lc)
	defer srv.Close()

	rc, err := DialChain(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	kp, err := newWalletKey("chain-rpc-test")
	if err != nil {
		t.Fatal(err)
	}
	point, err := rc.Fund(chain.PayToKey(kp.Public()), 777)
	if err != nil {
		t.Fatal(err)
	}
	conf, err := rc.Confirmations(point.Tx)
	if err != nil {
		t.Fatal(err)
	}
	if conf == 0 {
		t.Fatal("funded outpoint has no confirmations")
	}
	h, err := rc.MineBlocks(2)
	if err != nil || h != 2 {
		t.Fatalf("mine: height %d, %v", h, err)
	}
	bal, err := rc.Balance(kp.Address())
	if err != nil || bal != 777 {
		t.Fatalf("balance: %d, %v", bal, err)
	}
	if h, err := rc.Height(); err != nil || h != 2 {
		t.Fatalf("height: %d, %v", h, err)
	}
	// A failing op surfaces the server-side error.
	if _, err := rc.Fund(chain.Script{}, -1); err == nil {
		t.Fatal("remote fund with bad value succeeded")
	}
	// Submit an invalid transaction: error, not a wedged connection.
	if _, err := rc.Submit(&chain.Transaction{}); err == nil {
		t.Fatal("remote submit of empty tx succeeded")
	}
	if _, err := rc.Height(); err != nil {
		t.Fatalf("connection unusable after error: %v", err)
	}
}
