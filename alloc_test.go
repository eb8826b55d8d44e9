package teechain

import (
	"testing"
	"time"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// TestPaymentAllocationBudget pins the steady-state cost of the
// simulated payment hot path: one payment end to end through two
// enclaves — enclave commit, session freshness token seal/verify,
// network delivery, acknowledgement — must stay within 2 allocations
// (DESIGN.md §6; the pools make it 0 in practice, the budget leaves
// room for incidental growth).
func TestPaymentAllocationBudget(t *testing.T) {
	net, err := NewNetwork()
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := net.AddNode("alice", SiteUK, NodeOptions{})
	bob, _ := net.AddNode("bob", SiteUK, NodeOptions{})
	ch, err := net.OpenChannel(alice, bob, 100_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := func(bool, time.Duration, string) {}
	pay := func() {
		if err := alice.Pay(ch, 1, done); err != nil {
			t.Fatal(err)
		}
		net.Run()
	}
	// Warm up pools, map capacities, and the event queue.
	for i := 0; i < 2000; i++ {
		pay()
	}
	avg := testing.AllocsPerRun(5000, pay)
	if avg > 2 {
		t.Fatalf("payment path allocates %.2f allocs/payment in steady state, budget is 2", avg)
	}
}

// TestReplicatedPaymentAllocationBudget pins the replicated hot path:
// one payment committed under a two-member committee chain — pooled log
// entry, pooled ReplUpdate/ReplAck frames down and up the chain, mirror
// application at both members, and the withheld effects released by the
// acknowledgement — must stay within the same budget as the plain path.
func TestReplicatedPaymentAllocationBudget(t *testing.T) {
	net, err := NewNetwork()
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := net.AddNode("owner", SiteUK, NodeOptions{})
	r1, _ := net.AddNode("r1", SiteUK, NodeOptions{})
	r2, _ := net.AddNode("r2", SiteUK, NodeOptions{})
	bob, _ := net.AddNode("bob", SiteUK, NodeOptions{})
	for _, pair := range [][2]*Node{{owner, r1}, {owner, r2}, {r1, r2}, {owner, bob}} {
		if err := net.Connect(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
		net.Run()
	}
	if err := net.FormCommittee(owner, []*Node{r1, r2}, 2); err != nil {
		t.Fatal(err)
	}
	net.Run()
	ch, err := net.OpenChannel(owner, bob, 100_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := func(bool, time.Duration, string) {}
	pay := func() {
		if err := owner.Pay(ch, 1, done); err != nil {
			t.Fatal(err)
		}
		net.Run()
	}
	for i := 0; i < 2000; i++ {
		pay()
	}
	avg := testing.AllocsPerRun(5000, pay)
	if avg > 2 {
		t.Fatalf("replicated payment path allocates %.2f allocs/payment in steady state, budget is 2", avg)
	}
}

// TestMultihopCodecAllocationBudget pins the framing cost of a routed
// payment's stage messages: encoding any of the eight Mh* payloads into
// a buffer that has reached its size does not allocate, and decoding a
// four-hop lock — whose Path, Fees and τ must be fresh on every decode,
// because the enclave keeps them — stays within 20 allocations (it is
// 15 for this τ; gob took 491 for the round trip).
func TestMultihopCodecAllocationBudget(t *testing.T) {
	var key cryptoutil.PublicKey
	key[0] = 4
	tau := &chain.Transaction{}
	for c := 0; c < 3; c++ {
		tau.Inputs = append(tau.Inputs, chain.TxIn{
			Prev: chain.OutPoint{Tx: chain.TxID{byte(c + 1)}},
			Sigs: make([]cryptoutil.Signature, 1),
		})
		tau.Outputs = append(tau.Outputs,
			chain.TxOut{Value: 10, Script: chain.PayToKey(key)},
			chain.TxOut{Value: 20, Script: chain.PayToKey(key)})
	}
	lock := &wire.MhLock{
		Payment: "mh-n00-123456", Amount: 3, Count: 1, Channel: "n00-n01-1", Tau: tau,
		Path: make([]wire.PathHop, 4), Fees: make([]chain.Amount, 4),
	}
	msgs := []wire.BinaryMessage{
		lock,
		&wire.MhSign{Payment: lock.Payment, Tau: tau},
		&wire.MhPreUpdate{Payment: lock.Payment, Tau: tau},
		&wire.MhUpdate{Payment: lock.Payment},
		&wire.MhPostUpdate{Payment: lock.Payment},
		&wire.MhRelease{Payment: lock.Payment},
		&wire.MhAbort{Payment: lock.Payment, Reason: "upstream channel locked", Transient: true},
		&wire.MhAck{Payment: lock.Payment, OK: true},
	}
	buf := make([]byte, 0, 4096)
	for _, m := range msgs {
		if avg := testing.AllocsPerRun(200, func() {
			if _, err := m.AppendPayload(buf[:0]); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("%T.AppendPayload allocates %.1f times, budget is 0", m, avg)
		}
	}
	payload, err := lock.AppendPayload(nil)
	if err != nil {
		t.Fatal(err)
	}
	var into wire.MhLock
	if avg := testing.AllocsPerRun(200, func() {
		if err := into.DecodePayload(payload); err != nil {
			t.Fatal(err)
		}
	}); avg > 20 {
		t.Fatalf("MhLock.DecodePayload allocates %.1f times, budget is 20", avg)
	}
}
