package core

import (
	"testing"
	"time"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// committeeWorld builds an owner with two committee members (a 3-member
// chain, threshold m) plus a channel counterparty, all pairwise
// connected.
func committeeWorld(t *testing.T, m int) (*world, *Node, *Node, *Node, *Node) {
	w := newWorld(t)
	owner := w.node("owner", NodeConfig{})
	r1 := w.node("member1", NodeConfig{})
	r2 := w.node("member2", NodeConfig{})
	bob := w.node("bob", NodeConfig{})
	for _, pair := range [][2]*Node{
		{owner, r1}, {owner, r2}, {r1, r2},
		{owner, bob}, {bob, r1}, {bob, r2},
	} {
		w.connect(pair[0], pair[1])
	}
	if err := owner.FormCommittee([]*Node{r1, r2}, m); err != nil {
		t.Fatalf("FormCommittee: %v", err)
	}
	w.until(func() bool { return owner.Enclave().CommitteeReady() })
	return w, owner, r1, r2, bob
}

func TestCommitteeFormation(t *testing.T) {
	w, owner, _, _, _ := committeeWorld(t, 2)
	_ = w
	script, err := owner.Enclave().NewDepositScript()
	if err != nil {
		t.Fatalf("NewDepositScript: %v", err)
	}
	if script.M != 2 || len(script.Keys) != 3 {
		t.Fatalf("deposit script is %d-of-%d, want 2-of-3", script.M, len(script.Keys))
	}
}

func TestReplicatedPaymentsKeepMirrorsConsistent(t *testing.T) {
	w, owner, r1, r2, bob := committeeWorld(t, 2)
	id := w.openChannel(owner, bob)
	w.fundAndAssociate(owner, bob, id, 1000)

	for i := 0; i < 5; i++ {
		if err := owner.Pay(id, 50, nil); err != nil {
			t.Fatal(err)
		}
		w.run()
	}
	if owner.PaymentsAcked != 5 {
		t.Fatalf("acked %d payments, want 5", owner.PaymentsAcked)
	}
	ownerView := owner.Enclave().State().Channels[id]
	for _, member := range []*Node{r1, r2} {
		mirror, ok := member.Enclave().MirrorState(owner.Enclave().ChainID())
		if !ok {
			t.Fatalf("%s has no mirror", member.ID)
		}
		mc, ok := mirror.Channels[id]
		if !ok {
			t.Fatalf("%s mirror missing channel", member.ID)
		}
		if mc.MyBal != ownerView.MyBal || mc.RemoteBal != ownerView.RemoteBal {
			t.Fatalf("%s mirror balances %d/%d, owner has %d/%d",
				member.ID, mc.MyBal, mc.RemoteBal, ownerView.MyBal, ownerView.RemoteBal)
		}
	}
}

func TestCommitteeSettlementCollectsThresholdSignatures(t *testing.T) {
	w, owner, _, _, bob := committeeWorld(t, 2)
	id := w.openChannel(owner, bob)
	w.fundAndAssociate(owner, bob, id, 1000)
	if err := owner.Pay(id, 400, nil); err != nil {
		t.Fatal(err)
	}
	w.run()

	if _, err := owner.Settle(id); err != nil {
		t.Fatalf("Settle: %v", err)
	}
	w.run()
	w.chain.MineBlock()
	if got := w.chain.BalanceByAddress(owner.wallet.Address()); got != 600 {
		t.Fatalf("owner on-chain balance %d, want 600", got)
	}
	if got := w.chain.BalanceByAddress(bob.wallet.Address()); got != 400 {
		t.Fatalf("bob on-chain balance %d, want 400", got)
	}
}

func TestCounterpartySettlesCommitteeDepositUnilaterally(t *testing.T) {
	// Bob settles a channel whose only deposit is secured by the
	// owner's committee: he needs committee signatures, not the owner's
	// cooperation.
	w, owner, _, _, bob := committeeWorld(t, 2)
	id := w.openChannel(owner, bob)
	w.fundAndAssociate(owner, bob, id, 1000)
	if err := owner.Pay(id, 250, nil); err != nil {
		t.Fatal(err)
	}
	w.run()

	if _, err := bob.Settle(id); err != nil {
		t.Fatalf("bob Settle: %v", err)
	}
	w.run()
	w.chain.MineBlock()
	if got := w.chain.BalanceByAddress(bob.wallet.Address()); got != 250 {
		t.Fatalf("bob on-chain balance %d, want 250", got)
	}
	if got := w.chain.BalanceByAddress(owner.wallet.Address()); got != 750 {
		t.Fatalf("owner on-chain balance %d, want 750", got)
	}
}

func TestByzantineOwnerCannotSettleStaleState(t *testing.T) {
	// A compromised owner enclave tries to settle at a stale balance
	// (before its payments). Committee members validate against their
	// mirrors and refuse; with 1 < m signatures the transaction never
	// becomes valid.
	w, owner, r1, _, bob := committeeWorld(t, 2)
	id := w.openChannel(owner, bob)
	point := w.fundAndAssociate(owner, bob, id, 1000)
	if err := owner.Pay(id, 400, nil); err != nil {
		t.Fatal(err)
	}
	w.run()

	// Craft the stale settlement the attacker wants: full 1000 back to
	// the owner (as if no payment happened).
	st := owner.Enclave().State()
	c := st.Channels[id]
	staleTx, deps, err := buildChannelSettlement(c, 1000, 0,
		st.PayoutKeys[c.MyAddr], st.PayoutKeys[c.RemoteAddr])
	if err != nil {
		t.Fatal(err)
	}
	// The compromised enclave signs with its own key (1 of 2 needed).
	needs := owner.Enclave().signSettlementInputs(staleTx, deps)
	if len(needs) != 1 {
		t.Fatalf("expected 1 outstanding input, got %d", len(needs))
	}

	// Ask a committee member to countersign: it must refuse.
	refused := false
	r1.OnEvent(func(ev Event) {})
	owner.OnEvent(func(ev Event) {
		if r, ok := ev.(EvSigRefused); ok {
			refused = true
			_ = r
		}
	})
	res, err := owner.Enclave().CollectSignatures(staleTx, deps, needs)
	if err != nil {
		t.Fatalf("CollectSignatures: %v", err)
	}
	owner.dispatch(res)
	w.run()
	if !refused {
		t.Fatal("committee member signed a stale settlement")
	}

	// Even submitted directly, the chain rejects the under-signed
	// spend of the 2-of-3 deposit.
	txid, _ := w.chain.Submit(staleTx)
	w.chain.MineBlock()
	if w.chain.Status(txid) == chain.StatusConfirmed {
		t.Fatal("stale under-signed settlement confirmed")
	}
	_ = point
}

func TestForceFreezeAndMirrorFailover(t *testing.T) {
	// The owner crashes; a committee member force-freezes the chain and
	// settles the owner's channel from its mirror at the last
	// replicated balances.
	w, owner, r1, r2, bob := committeeWorld(t, 2)
	id := w.openChannel(owner, bob)
	w.fundAndAssociate(owner, bob, id, 1000)
	if err := owner.Pay(id, 300, nil); err != nil {
		t.Fatal(err)
	}
	w.run()

	// Owner crashes (drops off the network).
	w.net.SetPartitioned(owner.ID, r1.ID, true)
	w.net.SetPartitioned(owner.ID, r2.ID, true)
	w.net.SetPartitioned(owner.ID, bob.ID, true)

	chainID := owner.Enclave().ChainID()
	res, err := r1.Enclave().Freeze(chainID, "owner unreachable")
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	r1.dispatch(res)
	w.run()

	txs, deps, err := r1.Enclave().SettleFromMirror(chainID)
	if err != nil {
		t.Fatalf("SettleFromMirror: %v", err)
	}
	if len(txs) != 1 {
		t.Fatalf("got %d settlement transactions, want 1", len(txs))
	}
	// r1 signed with its key; still needs one more (m=2): collect from
	// r2 via the normal signature path.
	needs := []SigNeed{{Input: 0, Committee: chainID, Members: []cryptoutil.PublicKey{r2.Identity()}}}
	_ = needs
	colRes, err := r1.Enclave().CollectSignatures(txs[0], deps[0],
		[]SigNeed{{Input: 0, Committee: chainID, Members: []cryptoutil.PublicKey{r2.Identity()}}})
	if err != nil {
		t.Fatalf("CollectSignatures: %v", err)
	}
	r1.dispatch(colRes)
	w.run()
	w.chain.MineBlock()

	// Funds recovered at the replicated balances: owner 700, bob 300.
	if got := w.chain.BalanceByAddress(owner.wallet.Address()); got != 700 {
		t.Fatalf("owner recovered %d, want 700", got)
	}
	if got := w.chain.BalanceByAddress(bob.wallet.Address()); got != 300 {
		t.Fatalf("bob recovered %d, want 300", got)
	}
}

func TestFreezeStopsFurtherPayments(t *testing.T) {
	w, owner, r1, _, bob := committeeWorld(t, 2)
	id := w.openChannel(owner, bob)
	w.fundAndAssociate(owner, bob, id, 1000)

	res, err := r1.Enclave().Freeze(owner.Enclave().ChainID(), "operator read at backup")
	if err != nil {
		t.Fatal(err)
	}
	r1.dispatch(res)
	w.run()

	if !owner.Enclave().State().Frozen {
		t.Fatal("owner did not freeze")
	}
	if err := owner.Pay(id, 10, nil); err == nil {
		w.run()
		if owner.PaymentsAcked > 0 {
			t.Fatal("payment succeeded on frozen chain")
		}
	}
}

// TestStableStorageLatency: the simulator's stable storage is a cost
// model (a monotonic-counter increment per state change) and seals
// nothing, so rollback refusal is tested on the WAL instead
// (transport.TestDurableRollbackRefused).
func TestStableStorageLatency(t *testing.T) {
	w := newWorld(t)
	a := w.node("alice", NodeConfig{StableStorage: true, Enclave: Config{MinConfirmations: 1}})
	b := w.node("bob", NodeConfig{StableStorage: true, Enclave: Config{MinConfirmations: 1}})
	w.connect(a, b)
	id := w.openChannel(a, b)
	w.fundAndAssociate(a, b, id, 1000)

	var lat time.Duration
	if err := a.Pay(id, 10, func(ok bool, l time.Duration, _ string) { lat = l }); err != nil {
		t.Fatal(err)
	}
	w.run()
	// Each state-changing message costs a 100ms counter increment on
	// top of the 10ms RTT: expect > 200ms.
	if lat < 200*time.Millisecond {
		t.Fatalf("stable-storage payment latency %v, want >= 200ms", lat)
	}
}

// TestPartitionedUpdateReachesChainAfterHeal: a replication update the
// network refuses (owner and first member partitioned) is not lost. The
// owner's log keeps it, so the next dispatch after the heal serves it
// ahead of the next payment's update, and both payments complete with
// every mirror agreeing.
func TestPartitionedUpdateReachesChainAfterHeal(t *testing.T) {
	w, owner, r1, r2, bob := committeeWorld(t, 2)
	id := w.openChannel(owner, bob)
	w.fundAndAssociate(owner, bob, id, 1000)

	w.net.SetPartitioned(owner.ID, r1.ID, true)
	if err := owner.Pay(id, 10, nil); err != nil {
		t.Fatal(err)
	}
	w.net.SetPartitioned(owner.ID, r1.ID, false)
	if err := owner.Pay(id, 20, nil); err != nil {
		t.Fatal(err)
	}
	w.run()

	expectBothPaid(t, owner, r1, r2, bob, id)
	if st, _ := owner.Enclave().ReplStats(); st.NacksIn != 0 || st.Retransmits != 0 {
		t.Fatalf("the refused update was lost, not rewound: %+v", st)
	}
}

// TestLonePaymentCompletesAfterHeal: the update of a payment made while
// the owner's link to its first member is partitioned is refused and
// rewound; with nothing else happening at the owner, the heal alone
// re-offers it and the payment completes. While the link is down the
// simulator runs dry instead of retrying on a timer.
func TestLonePaymentCompletesAfterHeal(t *testing.T) {
	w, owner, r1, r2, bob := committeeWorld(t, 2)
	id := w.openChannel(owner, bob)
	w.fundAndAssociate(owner, bob, id, 1000)

	w.net.SetPartitioned(owner.ID, r1.ID, true)
	if err := owner.Pay(id, 10, nil); err != nil {
		t.Fatal(err)
	}
	w.run()
	if st, _ := owner.Enclave().ReplStats(); st.Queued != 1 || owner.PaymentsAcked != 0 {
		t.Fatalf("before the heal: %d acked, %+v; want the update queued", owner.PaymentsAcked, st)
	}
	w.net.SetPartitioned(owner.ID, r1.ID, false)
	w.run()

	if owner.PaymentsAcked != 1 {
		t.Fatalf("acked %d of 1 payment after the heal", owner.PaymentsAcked)
	}
	if got := bob.Enclave().State().Channels[id].MyBal; got != 10 {
		t.Fatalf("bob holds %d, want 10", got)
	}
	for _, member := range []*Node{r1, r2} {
		mirror, _ := member.Enclave().MirrorState(owner.Enclave().ChainID())
		if got := mirror.Channels[id].RemoteBal; got != 10 {
			t.Fatalf("%s mirror credits bob %d, want 10", member.ID, got)
		}
	}
}

// TestLostUpdateIsRetransmittedOnNack: an update lost after it left
// the owner leaves a gap at the first member, which NACKs it; the
// owner's next dispatch serves the retransmission from its log.
func TestLostUpdateIsRetransmittedOnNack(t *testing.T) {
	w, owner, r1, r2, bob := committeeWorld(t, 2)
	id := w.openChannel(owner, bob)
	w.fundAndAssociate(owner, bob, id, 1000)

	// The refused update is rewound; taking it off the log again
	// without sending it loses it.
	w.net.SetPartitioned(owner.ID, r1.ID, true)
	if err := owner.Pay(id, 10, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, n := owner.Enclave().ReplNextFlush(&wire.ReplBatch{}, 1, replMaxPending); n != 1 {
		t.Fatalf("lost %d updates, want 1", n)
	}
	w.net.SetPartitioned(owner.ID, r1.ID, false)
	if err := owner.Pay(id, 20, nil); err != nil {
		t.Fatal(err)
	}
	w.run()

	expectBothPaid(t, owner, r1, r2, bob, id)
	if st, _ := owner.Enclave().ReplStats(); st.NacksIn == 0 || st.Retransmits == 0 {
		t.Fatalf("the gap healed without a NACK and a retransmission: %+v", st)
	}
}

// TestMiddleMemberRelaysRetransmission: an update the first member
// applied but could not relay leaves a gap at the tail only. The
// owner's retransmission reaches the first member as a duplicate, which
// it relays on to the tail; both payments complete.
func TestMiddleMemberRelaysRetransmission(t *testing.T) {
	w, owner, r1, r2, bob := committeeWorld(t, 2)
	id := w.openChannel(owner, bob)
	w.fundAndAssociate(owner, bob, id, 1000)

	w.net.SetPartitioned(r1.ID, r2.ID, true)
	if err := owner.Pay(id, 10, nil); err != nil {
		t.Fatal(err)
	}
	w.run()
	w.net.SetPartitioned(r1.ID, r2.ID, false)
	if err := owner.Pay(id, 20, nil); err != nil {
		t.Fatal(err)
	}
	w.run()

	expectBothPaid(t, owner, r1, r2, bob, id)
	if st, _ := owner.Enclave().ReplStats(); st.NacksIn == 0 {
		t.Fatalf("the tail's gap healed without a NACK: %+v", st)
	}
}

// expectBothPaid checks that the owner's payments of 10 and 20 to bob
// completed and that both mirrors agree.
func expectBothPaid(t *testing.T, owner, r1, r2, bob *Node, id wire.ChannelID) {
	t.Helper()
	if owner.PaymentsAcked != 2 {
		t.Fatalf("acked %d of 2 payments", owner.PaymentsAcked)
	}
	if got := bob.Enclave().State().Channels[id].MyBal; got != 30 {
		t.Fatalf("bob holds %d, want 30", got)
	}
	for _, member := range []*Node{r1, r2} {
		mirror, _ := member.Enclave().MirrorState(owner.Enclave().ChainID())
		if got := mirror.Channels[id].RemoteBal; got != 30 {
			t.Fatalf("%s mirror credits bob %d, want 30", member.ID, got)
		}
	}
}

// TestFrozenOwnerSwallowsInFlightAck: an owner that freezes its own
// chain while an update is in flight still receives the chain's ack
// for it; the ack is swallowed, so the withheld payment never reaches
// bob and the owner stays frozen.
func TestFrozenOwnerSwallowsInFlightAck(t *testing.T) {
	w, owner, r1, r2, bob := committeeWorld(t, 2)
	id := w.openChannel(owner, bob)
	w.fundAndAssociate(owner, bob, id, 1000)

	if err := owner.Pay(id, 10, nil); err != nil {
		t.Fatal(err)
	}
	acksBefore, _ := w.net.LinkStats(r1.ID, owner.ID)
	res, err := owner.Enclave().Freeze(owner.Enclave().ChainID(), "operator halt")
	if err != nil {
		t.Fatal(err)
	}
	owner.Dispatch(res)
	w.run()

	if acks, _ := w.net.LinkStats(r1.ID, owner.ID); acks != acksBefore+1 {
		t.Fatalf("%d frames reached the frozen owner, want the one ack", acks-acksBefore)
	}
	if mirror, _ := r2.Enclave().MirrorState(owner.Enclave().ChainID()); mirror.Channels[id].RemoteBal != 10 {
		t.Fatal("the chain's tail never applied the in-flight update")
	}
	if !owner.Enclave().State().Frozen {
		t.Fatal("the owner thawed")
	}
	if owner.PaymentsAcked != 0 {
		t.Fatalf("a frozen owner released %d payments", owner.PaymentsAcked)
	}
	if got := bob.Enclave().State().Channels[id].MyBal; got != 0 {
		t.Fatalf("bob holds %d, want 0", got)
	}
}
