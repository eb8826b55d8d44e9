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

// TestRoutedPaymentSignatureBudget pins what a multi-hop payment over a
// 3-channel route costs the enclaves: one ECDSA signature per τ input —
// six here, every channel funded from both ends — shared out so that no
// hop makes more than the inputs of one channel, where both ends of
// every channel used to sign every input (twelve, four at each relay);
// and an allocation budget for the whole payment (735 now; the second
// signature per input took it to 1 215).
func TestRoutedPaymentSignatureBudget(t *testing.T) {
	net, err := NewNetwork()
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	for _, name := range []string{"a", "b", "c", "d"} {
		n, err := net.AddNode(name, SiteUK, NodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for i := 0; i+1 < len(nodes); i++ {
		if _, err := net.OpenChannel(nodes[i], nodes[i+1], 1_000_000, 1_000_000); err != nil {
			t.Fatal(err)
		}
	}
	paths := net.Paths(nodes[0], nodes[3], 1, 0)
	if len(paths) != 1 || len(paths[0]) != 4 {
		t.Fatalf("paths %v, want the one 3-channel route", paths)
	}
	paid := 0
	done := func(ok bool, _ time.Duration, reason string) {
		if !ok {
			t.Fatalf("payment failed: %s", reason)
		}
		paid++
	}
	pay := func() {
		if err := nodes[0].PayMultihop(paths, 1, 1, done); err != nil {
			t.Fatal(err)
		}
		net.Run()
	}
	signed := func() (per [4]uint64) {
		for i, n := range nodes {
			per[i] = n.Enclave().TauSigned()
		}
		return per
	}
	for i := 0; i < 50; i++ {
		pay()
	}
	before := signed()
	const runs = 200
	avg := testing.AllocsPerRun(runs, pay)
	after := signed()
	if paid != 50+runs+1 { // AllocsPerRun warms up with one extra call
		t.Fatalf("%d payments completed, want %d", paid, 50+runs+1)
	}
	var total uint64
	for i := range nodes {
		perPayment := (after[i] - before[i]) / (runs + 1)
		if (after[i]-before[i])%(runs+1) != 0 || perPayment > 2 {
			t.Fatalf("hop %d made %d signatures over %d payments, want the same count, at most 2, on each", i, after[i]-before[i], runs+1)
		}
		total += perPayment
	}
	if total != 6 {
		t.Fatalf("%d signatures per payment over six 1-of-1 inputs, want 6", total)
	}
	if avg > 850 {
		t.Fatalf("a 3-channel multihop payment allocates %.0f times, budget is 850", avg)
	}
	t.Logf("%.0f allocations, %d signatures per payment", avg, total)
}
