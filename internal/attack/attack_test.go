package attack

// End-to-end byzantine scenarios over real TCP: every mutation an
// adversary who owns the network can produce must surface at the
// victim as a rejected frame (Stats.FramesRejected), never as applied
// state. TestTamperedPaymentRejected is the regression test for the
// session-token payload binding: before tokens authenticated the
// payload, a MITM could rewrite a payment amount undetected.

import (
	"sync/atomic"
	"testing"
	"time"

	"teechain/internal/chain"
	"teechain/internal/tee"
	"teechain/internal/transport"
	"teechain/internal/wire"
)

const testTimeout = 20 * time.Second

func newHost(t *testing.T, name string, auth *tee.Authority, lc *transport.LocalChain) *transport.Host {
	t.Helper()
	h, err := transport.NewHost(transport.Config{
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

func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(testTimeout)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// mitmPair builds alice→proxy→bob: bob listens, the proxy fronts him,
// and alice dials the proxy believing it is bob.
func mitmPair(t *testing.T, mutate Mutator) (alice, bob *transport.Host, lc *transport.LocalChain) {
	t.Helper()
	auth, err := tee.NewAuthority("attack-test")
	if err != nil {
		t.Fatal(err)
	}
	lc = transport.NewLocalChain(chain.New())
	alice = newHost(t, "alice", auth, lc)
	bob = newHost(t, "bob", auth, lc)
	bobAddr, err := bob.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := NewProxy("127.0.0.1:0", bobAddr, mutate, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	if err := alice.DialPeer(proxy.Addr()); err != nil {
		t.Fatal(err)
	}
	return alice, bob, lc
}

// TestTamperedPaymentRejected: a MITM flips one byte of one Pay
// frame's payload. The receiver's token check (AES-GCM with the
// payload as AAD) rejects the frame; the tampered payment is lost, not
// applied — and no other payment is disturbed.
func TestTamperedPaymentRejected(t *testing.T) {
	var corrupted atomic.Uint64
	alice, bob, _ := mitmPair(t, CorruptOnce(ClientToServer, MustCode(&wire.Pay{}), &corrupted))

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
	// The corrupted payment never acks; the other nine do.
	if err := alice.AwaitAcked(payments-1, testTimeout); err != nil {
		t.Fatal(err)
	}
	if corrupted.Load() != 1 {
		t.Fatalf("proxy corrupted %d frames, want 1", corrupted.Load())
	}
	waitFor(t, "rejected frame", func() bool { return bob.Stats().FramesRejected >= 1 })
	if got := bob.Stats().PaymentsReceived; got != payments-1 {
		t.Fatalf("bob received %d payments, want %d (tampered one must be lost, not applied)", got, payments-1)
	}
	mine, remote, err := bob.ChannelBalances(chID)
	if err != nil {
		t.Fatal(err)
	}
	if mine != 90 || remote != 910 {
		t.Fatalf("bob's balances %d/%d, want 90/910 — tampering must not move money", mine, remote)
	}
}

// TestReplayedFrameRejected: the proxy records a Pay frame and
// re-emits it a few frames later. The session's anti-replay window
// refuses the duplicate counter; the payment applies exactly once.
func TestReplayedFrameRejected(t *testing.T) {
	var replayed atomic.Uint64
	alice, bob, _ := mitmPair(t, ReplayAfter(ClientToServer, MustCode(&wire.Pay{}), 3, &replayed))

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
	if replayed.Load() != 1 {
		t.Fatalf("proxy replayed %d frames, want 1", replayed.Load())
	}
	waitFor(t, "rejected replay", func() bool { return bob.Stats().FramesRejected >= 1 })
	if got := bob.Stats().PaymentsReceived; got != payments {
		t.Fatalf("bob received %d payments, want exactly %d (replay must not double-apply)", got, payments)
	}
	mine, remote, err := bob.ChannelBalances(chID)
	if err != nil {
		t.Fatal(err)
	}
	if mine != 100 || remote != 900 {
		t.Fatalf("bob's balances %d/%d, want 100/900", mine, remote)
	}
}

// TestForgedFramesRejected: an injector with no enclave key dials the
// victim's peer port and sends payment frames — one from a made-up
// identity, one impersonating the real peer — with unauthenticatable
// tokens. Both are rejected and the deployment stays healthy.
func TestForgedFramesRejected(t *testing.T) {
	auth, err := tee.NewAuthority("attack-test")
	if err != nil {
		t.Fatal(err)
	}
	lc := transport.NewLocalChain(chain.New())
	alice := newHost(t, "alice", auth, lc)
	bob := newHost(t, "bob", auth, lc)
	bobAddr, err := bob.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.DialPeer(bobAddr); err != nil {
		t.Fatal(err)
	}
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
	if err := alice.Pay(chID, 10); err != nil {
		t.Fatal(err)
	}
	if err := alice.AwaitAcked(1, testTimeout); err != nil {
		t.Fatal(err)
	}

	mallory, err := ForgeIdentity("mallory")
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte("not-a-real-session-token-at-all")
	forgedSelf, err := ForgeFrame(mallory.Public(), garbage, &wire.Pay{Channel: chID, Amount: 500, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	impersonation, err := ForgeFrame(alice.Identity(), garbage, &wire.Pay{Channel: chID, Amount: 500, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Inject(bobAddr, mallory.Public(), "mallory", [][]byte{forgedSelf, impersonation})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("injector: %d frames sent, peer closed: %v", rep.FramesSent, rep.PeerClosed)

	waitFor(t, "forged frames rejected", func() bool { return bob.Stats().FramesRejected >= 2 })
	if got := bob.Stats().PaymentsReceived; got != 1 {
		t.Fatalf("bob received %d payments, want 1 — forged frames applied state", got)
	}
	// The deployment is still healthy for the real peer.
	if err := alice.Pay(chID, 10); err != nil {
		t.Fatal(err)
	}
	if err := alice.AwaitAcked(2, testTimeout); err != nil {
		t.Fatal(err)
	}
	mine, remote, err := bob.ChannelBalances(chID)
	if err != nil {
		t.Fatal(err)
	}
	if mine != 20 || remote != 980 {
		t.Fatalf("bob's balances %d/%d, want 20/980", mine, remote)
	}
}

// TestCorruptedReplBatchAckRecovers: the adversary sits between a
// committee primary and its backup, corrupting one ReplBatchAck and
// withholding another. The primary rejects the corrupted ack, and the
// cumulative ack on a later batch carries the cursor past both gaps.
func TestCorruptedReplBatchAckRecovers(t *testing.T) {
	ackCode := MustCode(&wire.ReplBatchAck{})
	var corrupted, withheld atomic.Uint64
	mutate := Chain(
		Withhold(ServerToClient, ackCode, 1, &withheld),
		CorruptOnce(ServerToClient, ackCode, &corrupted),
	)

	auth, err := tee.NewAuthority("attack-test")
	if err != nil {
		t.Fatal(err)
	}
	lc := transport.NewLocalChain(chain.New())
	alice := newHost(t, "alice", auth, lc)
	bob := newHost(t, "bob", auth, lc)
	m1 := newHost(t, "m1", auth, lc)
	bobAddr, err := bob.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m1Addr, err := m1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := NewProxy("127.0.0.1:0", m1Addr, mutate, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	if err := alice.DialPeer(bobAddr); err != nil {
		t.Fatal(err)
	}
	if err := alice.DialPeer(proxy.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := alice.FormCommittee([]string{"m1"}, 1, testTimeout); err != nil {
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

	// Pay in waves gated on the adversary, not on acks: wave A's batch
	// ack is withheld, wave B's is corrupted, and wave C forces a fresh
	// batch whose clean cumulative ack carries the cursor past both
	// gaps. (Awaiting acks between waves would deadlock: with all ops
	// replicated in mangled batches, no later batch would ever flow.)
	const perWave = 25
	pay := func() {
		for i := 0; i < perWave; i++ {
			if err := alice.Pay(chID, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	pay()
	waitFor(t, "withheld ack", func() bool { return withheld.Load() >= 1 })
	pay()
	waitFor(t, "corrupted ack", func() bool { return corrupted.Load() >= 1 })
	pay()
	if err := alice.AwaitAcked(3*perWave, testTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rejected ack", func() bool { return alice.Stats().FramesRejected >= 1 })
	waitFor(t, "replication cursor recovery", func() bool {
		st, ok := alice.CommitteeStats()
		return ok && st.FlushSeq > 0 && st.AckSeq == st.FlushSeq && st.Queued == 0
	})
	st, _ := alice.CommitteeStats()
	t.Logf("committee recovered: flush=%d ack=%d batches=%d ops=%d", st.FlushSeq, st.AckSeq, st.BatchesOut, st.OpsOut)
}

// TestForgedVolleyAllReadBeforeReset: an injector writes a volley of
// forged frames with a second hello early in it, never reads, and
// hangs up — which resets the connection, the victim's own hello being
// unread. The second hello makes the victim answer (a gossip summary)
// when the reset has long arrived, so its writer's write fails while
// its reader has most of the volley still to read. Every frame TCP
// delivered must still be read and rejected: the connection is the
// read loop's to close. (The writer used to close it on the failed
// write, discarding whatever the reader had not reached — which is how
// TestForgedFramesRejected lost its second frame about one run in ten
// on a loaded machine.)
func TestForgedVolleyAllReadBeforeReset(t *testing.T) {
	auth, err := tee.NewAuthority("attack-test")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := transport.NewHost(transport.Config{Name: "bob", Authority: auth, Chain: transport.NewLocalChain(chain.New())})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bob.Close)
	bobAddr, err := bob.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mallory, err := ForgeIdentity("mallory")
	if err != nil {
		t.Fatal(err)
	}
	// One write of under 64 KB, so that all of the volley is on the wire
	// before the reset: a reset also discards what the injector's own
	// kernel had not sent yet, and hundreds of small writes outrun the
	// initial congestion window, a larger one the initial receive window.
	const before, after = 50, 350
	var volley []byte
	for i := 0; i < before+after; i++ {
		if i == before {
			hello, err := ForgeFrame(mallory.Public(), nil, &wire.Hello{Name: "mallory"})
			if err != nil {
				t.Fatal(err)
			}
			volley = append(volley, hello...)
		}
		f, err := ForgeFrame(mallory.Public(), []byte("not-a-real-session-token-at-all"), &wire.Pay{Channel: "ch", Amount: 500, Count: i + 1})
		if err != nil {
			t.Fatal(err)
		}
		volley = append(volley, f...)
	}
	rep, err := Inject(bobAddr, mallory.Public(), "mallory", [][]byte{volley})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FramesSent != 1 {
		t.Fatalf("injector could not write its volley (peer closed: %v)", rep.PeerClosed)
	}
	waitFor(t, "every forged frame rejected", func() bool { return bob.Stats().FramesRejected >= before+after })
}
