package transport

import (
	"errors"
	"testing"
	"time"

	"teechain/internal/api"
	"teechain/internal/chain"
	"teechain/internal/core"
	"teechain/internal/tee"
	"teechain/internal/wire"
)

// setupBudgetPair is setupPair with admission budgets: a funded
// alice→bob channel whose host sheds at perChannel in-flight payments
// on the channel or total across the host.
func setupBudgetPair(t *testing.T, perChannel, total int) (alice, bob *Host, chID wire.ChannelID) {
	t.Helper()
	auth, err := tee.NewAuthority("overload-test")
	if err != nil {
		t.Fatal(err)
	}
	lc := NewLocalChain(chain.New())
	mk := func(name string) *Host {
		h, err := NewHost(Config{
			Name:                  name,
			Authority:             auth,
			Chain:                 lc,
			MaxInflightPerChannel: perChannel,
			MaxInflightTotal:      total,
			Logf:                  func(format string, args ...any) { t.Logf(format, args...) },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Close)
		return h
	}
	alice, bob = mk("alice"), mk("bob")
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
	id, err := alice.OpenChannel("bob", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.FundChannel(id, 1_000_000, testTimeout); err != nil {
		t.Fatal(err)
	}
	return alice, bob, id
}

// TestOverloadChannelBudget fills a channel's in-flight budget with the
// peer unreachable (payments queue unacked), asserts the next payment
// is shed with the typed error + retry hint and that balances moved by
// exactly the admitted amount, then reconnects and checks shedding
// clears and admission resumes.
func TestOverloadChannelBudget(t *testing.T) {
	const budget = 16
	alice, bob, chID := setupBudgetPair(t, budget, 0)
	addr := bob.ListenAddr()

	// Take the peer down: issued payments stay in flight forever.
	bob.CloseListener()
	bob.DropConnections()
	alice.DropConnections()

	for i := 0; i < budget; i++ {
		if err := alice.Pay(chID, 1); err != nil {
			t.Fatalf("payment %d inside budget: %v", i, err)
		}
	}
	err := alice.Pay(chID, 1)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("payment past budget: got %v, want ErrOverloaded", err)
	}
	var ae *api.Error
	if !errors.As(classify(err), &ae) || ae.Code != api.CodeOverloaded || ae.RetryAfterMillis != retryHintMillis {
		t.Fatalf("control-plane error: got %+v, want CodeOverloaded with retry hint %d", ae, retryHintMillis)
	}
	// Rejection before debit: the channel moved by exactly the admitted
	// payments, the shed one left no trace.
	mine, remote, err := alice.ChannelBalances(chID)
	if err != nil {
		t.Fatal(err)
	}
	if mine != 1_000_000-budget || remote != budget {
		t.Fatalf("balances after shed: %d/%d, want %d/%d", mine, remote, 1_000_000-budget, budget)
	}
	st := alice.Stats()
	if st.PaymentsRejected != 1 || !st.Shedding || st.ShedStarts != 1 {
		t.Fatalf("stats after shed: rejected=%d shedding=%t shed_starts=%d, want 1/true/1",
			st.PaymentsRejected, st.Shedding, st.ShedStarts)
	}
	if st.PaymentsInflight != budget {
		t.Fatalf("inflight gauge: %d, want %d", st.PaymentsInflight, budget)
	}

	// Reconnect: the queued payments drain, shedding ends, and the
	// budget has room again.
	if _, err := bob.Listen(addr); err != nil {
		t.Fatal(err)
	}
	if err := alice.AwaitAcked(budget, testTimeout); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(testTimeout)
	for alice.Stats().Shedding {
		if time.Now().After(deadline) {
			t.Fatal("shedding never cleared after acks drained")
		}
		time.Sleep(time.Millisecond)
	}
	if err := alice.Pay(chID, 1); err != nil {
		t.Fatalf("payment after recovery: %v", err)
	}
	if err := alice.AwaitAcked(budget+1, testTimeout); err != nil {
		t.Fatal(err)
	}
}

// TestOverloadGlobalBudget trips the host-wide ceiling with the
// per-channel bound out of the way and checks the add-then-rollback
// gauge stays exact: after the reject the gauge still reads exactly the
// admitted count.
func TestOverloadGlobalBudget(t *testing.T) {
	const total = 8
	alice, bob, chID := setupBudgetPair(t, 0, total)

	bob.CloseListener()
	bob.DropConnections()
	alice.DropConnections()

	for i := 0; i < total; i++ {
		if err := alice.Pay(chID, 1); err != nil {
			t.Fatalf("payment %d inside global budget: %v", i, err)
		}
	}
	if err := alice.Pay(chID, 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("payment past global budget: got %v, want ErrOverloaded", err)
	}
	if got := alice.Stats().PaymentsInflight; got != total {
		t.Fatalf("gauge after rolled-back reject: %d, want %d", got, total)
	}
	// A whole batch past the ceiling must reject atomically: all or
	// nothing, and the gauge still exact afterwards.
	if err := alice.PayBatch(chID, []chain.Amount{1, 1, 1}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("batch past global budget: want ErrOverloaded")
	}
	if got := alice.Stats().PaymentsInflight; got != total {
		t.Fatalf("gauge after batch reject: %d, want %d", got, total)
	}
}

// TestOverloadRejectNeverDebits issues a payment the ENCLAVE refuses
// (overdraft) and checks the admission charge is rolled back: the
// in-flight gauge returns to zero, so admission failures and enclave
// failures both leave the budget exact.
func TestOverloadRejectNeverDebits(t *testing.T) {
	alice, _, chID := setupBudgetPair(t, 4, 8)
	if err := alice.Pay(chID, 2_000_000); err == nil {
		t.Fatal("overdraft payment succeeded")
	} else if errors.Is(err, ErrOverloaded) {
		t.Fatalf("overdraft misclassified as overload: %v", err)
	}
	if got := alice.Stats().PaymentsInflight; got != 0 {
		t.Fatalf("gauge after enclave refusal: %d, want 0 (admission not rolled back)", got)
	}
	if got := alice.Stats().PaymentsRejected; got != 0 {
		t.Fatalf("enclave refusal counted as admission reject: %d", got)
	}
}

// TestPayToUnknownPeerNeverDebits: a channel whose peer has no record on
// this host has no lane and no connection to carry the frame, so the
// payment is refused with the typed ErrUnknownPeer before admission and
// before the enclave is asked: debiting first would leave a payment
// whose frame is then dropped for want of a peer.
func TestPayToUnknownPeerNeverDebits(t *testing.T) {
	alice, bob, chID := setupBudgetPair(t, 4, 8)
	// Funding queued announcements for bob; a flush after the record
	// is gone would count a drop inside the window checked below.
	awaitGossipDrained(t, alice)
	alice.mu.Lock()
	delete(alice.peersByID, bob.Identity())
	alice.mu.Unlock()

	before := alice.Stats()
	for name, pay := range map[string]func() error{
		"Pay":      func() error { return alice.Pay(chID, 7) },
		"PayBatch": func() error { return alice.PayBatch(chID, []chain.Amount{1, 2, 3}) },
	} {
		if err := pay(); !errors.Is(err, ErrUnknownPeer) {
			t.Fatalf("%s to a channel with an unknown peer: got %v, want ErrUnknownPeer", name, err)
		}
	}
	mine, remote, err := alice.ChannelBalances(chID)
	if err != nil {
		t.Fatal(err)
	}
	if mine != 1_000_000 || remote != 0 {
		t.Fatalf("refused payments moved the balance: %d/%d, want 1000000/0", mine, remote)
	}
	after := alice.Stats()
	if after.PaymentsInflight != 0 || after.PaymentsSent != before.PaymentsSent ||
		after.PaymentsRejected != 0 || after.Drops != before.Drops {
		t.Fatalf("refused payments left a trace: before %+v, after %+v", before, after)
	}
}

// TestOverloadIssuerFairShare covers the per-connection fair sharing:
// two registered issuers split the global ceiling, one issuer
// saturating its share is refused while the other still admits, a
// single over-share batch on an idle share is floored in (one request
// always fits), and Release/Close return capacity.
func TestOverloadIssuerFairShare(t *testing.T) {
	const total = 8
	alice, bob, chID := setupBudgetPair(t, 0, total)

	bob.CloseListener()
	bob.DropConnections()
	alice.DropConnections()

	p1 := alice.NewPayIssuer()
	defer p1.Close()
	p2 := alice.NewPayIssuer()

	// share = total/2 = 4 per issuer.
	for i := 0; i < total/2; i++ {
		if _, err := p1.PayTracked(chID, 1); err != nil {
			t.Fatalf("p1 payment %d inside share: %v", i, err)
		}
	}
	if _, err := p1.PayTracked(chID, 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("p1 past its share: got %v, want ErrOverloaded", err)
	}
	// The other issuer's share is untouched.
	if _, err := p2.PayTracked(chID, 1); err != nil {
		t.Fatalf("p2 first payment: %v", err)
	}
	// Release hands p1's capacity back without waiting for acks (the
	// api acker does this as tracked payments complete).
	p1.Release(2)
	if _, err := p1.PayTracked(chID, 1); err != nil {
		t.Fatalf("p1 after Release: %v", err)
	}

	// Closing p2 halves the issuer count: p1's share grows to the whole
	// ceiling, but the global gauge still holds the in-flight payments,
	// so only the remaining headroom admits.
	p2.Close()
	p2.Close() // idempotent
	if _, err := p1.PayTracked(chID, 1); err != nil {
		t.Fatalf("p1 after p2 closed: %v", err)
	}

	// An idle issuer's first request larger than its share is floored
	// in — but still subject to the global ceiling, which is full here.
	p3 := alice.NewPayIssuer()
	defer p3.Close()
	big := make([]chain.Amount, total)
	for i := range big {
		big[i] = 1
	}
	if _, err := p3.PayBatchTracked(chID, big); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-share batch with full gauge: got %v, want ErrOverloaded (global)", err)
	}
}

// TestOverloadEvents watches the observer stream across a shed/recover
// cycle: EvOverload{Shedding:true} with the retry hint on the first
// reject, EvOverload{Shedding:false} once the gauge drains to the
// low-water mark.
func TestOverloadEvents(t *testing.T) {
	const budget = 8
	alice, bob, chID := setupBudgetPair(t, budget, budget)
	addr := bob.ListenAddr()

	evs := make(chan EvOverload, 16)
	cancel := alice.Observe(func(ev core.Event) {
		if e, ok := ev.(EvOverload); ok {
			evs <- e
		}
	})
	defer cancel()

	bob.CloseListener()
	bob.DropConnections()
	alice.DropConnections()
	for i := 0; i < budget; i++ {
		if err := alice.Pay(chID, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := alice.Pay(chID, 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	select {
	case e := <-evs:
		if !e.Shedding || e.RetryAfterMillis != retryHintMillis {
			t.Fatalf("shed event: %+v", e)
		}
	case <-time.After(testTimeout):
		t.Fatal("no EvOverload after first reject")
	}

	if _, err := bob.Listen(addr); err != nil {
		t.Fatal(err)
	}
	if err := alice.AwaitAcked(budget, testTimeout); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-evs:
		if e.Shedding {
			t.Fatalf("expected recovery event, got %+v", e)
		}
	case <-time.After(testTimeout):
		t.Fatal("no EvOverload recovery event after drain")
	}
}
