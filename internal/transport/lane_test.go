package transport

import (
	"fmt"
	"sync"
	"testing"

	"teechain/internal/api/client"
	"teechain/internal/chain"
	"teechain/internal/tee"
	"teechain/internal/wire"
)

func newTestAuthority(t *testing.T) (*tee.Authority, *LocalChain) {
	t.Helper()
	auth, err := tee.NewAuthority("transport-lane-test")
	if err != nil {
		t.Fatal(err)
	}
	return auth, NewLocalChain(chain.New())
}

// TestPayBatchOverTCP sends batched payments over a real socket pair
// and checks the batch applies atomically: balances, ack accounting,
// and per-channel counters all see len(batch) payments.
func TestPayBatchOverTCP(t *testing.T) {
	alice, bob, _ := setupPair(t)

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

	// 10 batches of 16 payments with distinct amounts (1..16 = 136).
	amounts := make([]chain.Amount, 16)
	var perBatch chain.Amount
	for i := range amounts {
		amounts[i] = chain.Amount(i + 1)
		perBatch += amounts[i]
	}
	const batches = 10
	for i := 0; i < batches; i++ {
		if err := alice.PayBatch(chID, amounts); err != nil {
			t.Fatal(err)
		}
	}
	if err := alice.AwaitAcked(batches*uint64(len(amounts)), testTimeout); err != nil {
		t.Fatal(err)
	}

	wantPaid := chain.Amount(batches) * perBatch
	mine, remote, err := alice.ChannelBalances(chID)
	if err != nil {
		t.Fatal(err)
	}
	if mine != 10_000-wantPaid || remote != wantPaid {
		t.Fatalf("balances after batches: mine=%d remote=%d, want %d/%d",
			mine, remote, 10_000-wantPaid, wantPaid)
	}
	if st := alice.Stats(); st.PaymentsSent != batches*16 || st.PaymentsAcked != batches*16 {
		t.Fatalf("alice stats: %+v, want sent=acked=%d", st, batches*16)
	}
	if st := bob.Stats(); st.PaymentsReceived != batches*16 {
		t.Fatalf("bob received %d payments, want %d", st.PaymentsReceived, batches*16)
	}
	cs := alice.ChannelStats()[chID]
	if cs.Sent != batches*16 || cs.Acked != batches*16 || cs.InFlight != 0 {
		t.Fatalf("alice channel stats: %+v", cs)
	}
}

// TestLaneConcurrentPeers drives payments from one hub to several
// spokes from concurrent goroutines — the per-peer lane path — and
// checks exact final balances on every channel.
func TestLaneConcurrentPeers(t *testing.T) {
	auth, lc := newTestAuthority(t)
	hub := newTestHost(t, "hub", auth, lc)
	const spokes = 4
	chIDs := make([]wire.ChannelID, spokes)
	for i := 0; i < spokes; i++ {
		name := fmt.Sprintf("spoke%d", i)
		sp := newTestHost(t, name, auth, lc)
		addr, err := sp.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := hub.DialPeer(addr); err != nil {
			t.Fatal(err)
		}
		if err := hub.Attest(name, testTimeout); err != nil {
			t.Fatal(err)
		}
		chID, err := hub.OpenChannel(name, testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hub.FundChannel(chID, 100_000, testTimeout); err != nil {
			t.Fatal(err)
		}
		chIDs[i] = chID
	}

	const perChannel = 200
	var wg sync.WaitGroup
	errs := make(chan error, spokes)
	for _, chID := range chIDs {
		wg.Add(1)
		go func(id wire.ChannelID) {
			defer wg.Done()
			for i := 0; i < perChannel; i++ {
				if err := hub.Pay(id, 3); err != nil {
					errs <- fmt.Errorf("pay on %s: %w", id, err)
					return
				}
			}
		}(chID)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := hub.AwaitAcked(spokes*perChannel, testTimeout); err != nil {
		t.Fatal(err)
	}
	for _, chID := range chIDs {
		mine, remote, err := hub.ChannelBalances(chID)
		if err != nil {
			t.Fatal(err)
		}
		if mine != 100_000-3*perChannel || remote != 3*perChannel {
			t.Fatalf("channel %s: mine=%d remote=%d, want %d/%d",
				chID, mine, remote, 100_000-3*perChannel, 3*perChannel)
		}
	}
	if st := hub.Stats(); st.Drops != 0 || st.PaymentsNacked != 0 {
		t.Fatalf("hub stats after concurrent lanes: %+v", st)
	}
}

// TestControlBatchedPayAndChannelStats drives batched payments and the
// per-channel stats listing through the control API.
func TestControlBatchedPayAndChannelStats(t *testing.T) {
	alice, _, _ := setupPair(t)
	cc := dialControl(t, alice)

	if err := cc.Attest("bob"); err != nil {
		t.Fatal(err)
	}
	chID, err := cc.OpenChannel("bob")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Deposit(chID, 5000); err != nil {
		t.Fatal(err)
	}
	// 100 payments of 2 in PayBatch frames of 16, all in flight at once.
	batch := make([]chain.Amount, 16)
	for i := range batch {
		batch[i] = 2
	}
	var pending []*client.Pending
	for sent := 0; sent < 100; sent += len(batch) {
		p, err := cc.PayBatchAsync(chID, batch[:min(len(batch), 100-sent)])
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
	}
	for _, p := range pending {
		if err := p.Wait(); err != nil {
			t.Fatalf("batched pay: %v", err)
		}
	}
	if mine, remote, err := cc.Balances(chID); err != nil || mine != 4800 || remote != 200 {
		t.Fatalf("balances: %d %d, %v", mine, remote, err)
	}
	st, err := cc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Channels) != 1 {
		t.Fatalf("channel stats: %+v, want one channel", st.Channels)
	}
	if cs := st.Channels[0]; cs.Channel != chID || cs.Sent != 100 || cs.Acked != 100 ||
		cs.Nacked != 0 || cs.Received != 0 || cs.InFlight != 0 {
		t.Fatalf("channel stats: %+v", cs)
	}
}
