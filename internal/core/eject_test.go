package core

import (
	"fmt"
	"testing"
	"time"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// multihopWorld sets up a three-node path with 1000 in each channel and
// returns the world plus nodes.
func multihopWorld(t *testing.T) (*world, []*Node, []wire.ChannelID) {
	w := newWorld(t)
	a := w.node("alice", NodeConfig{})
	b := w.node("bob", NodeConfig{})
	c := w.node("carol", NodeConfig{})
	ids := w.pipeline(1000, a, b, c)
	return w, []*Node{a, b, c}, ids
}

// runUntilStage advances the simulator until some channel of node n
// reaches the given multi-hop stage.
func runUntilStage(w *world, n *Node, stage MhStage) wire.PaymentID {
	w.t.Helper()
	var pid wire.PaymentID
	w.until(func() bool {
		for _, c := range n.Enclave().State().Channels {
			if c.Stage == stage && c.Payment != "" {
				pid = c.Payment
				return true
			}
		}
		return false
	})
	return pid
}

// onChainTotal sums the chain balances of all given wallets.
func onChainTotal(w *world, nodes []*Node) chain.Amount {
	var total chain.Amount
	for _, n := range nodes {
		total += w.chain.BalanceByAddress(n.wallet.Address())
	}
	return total
}

// wealth is a party's total recoverable value: confirmed on-chain funds
// plus the perceived balance still recoverable from open channels and
// free deposits.
func wealth(w *world, n *Node) chain.Amount {
	return w.chain.BalanceByAddress(n.wallet.Address()) + n.Enclave().State().PerceivedBalance()
}

// assertConsistentTermination checks that, after ejection settles, each
// party's wealth matches either the all-pre-payment or the
// all-post-payment outcome — never a mix (balance correctness under
// premature termination, §5.1 and Appendix A.5) — and that no value was
// created or destroyed.
func assertConsistentTermination(t *testing.T, w *world, nodes []*Node, amount chain.Amount) {
	t.Helper()
	w.run()
	// Let the watchers react and everything settle: mine a few rounds,
	// draining the simulator in between so PoPT ejections land.
	for i := 0; i < 6; i++ {
		w.chain.MineBlock()
		w.run()
	}
	got := [3]chain.Amount{wealth(w, nodes[0]), wealth(w, nodes[1]), wealth(w, nodes[2])}
	pre := [3]chain.Amount{1000, 1000, 0}
	post := [3]chain.Amount{1000 - amount, 1000, amount}
	if got != pre && got != post {
		t.Fatalf("inconsistent termination: wealth %v, want %v (pre) or %v (post)", got, pre, post)
	}
	if total := got[0] + got[1] + got[2]; total != 2000 {
		t.Fatalf("value not conserved: total %d, want 2000", total)
	}
}

func TestEjectDuringLockSettlesPrePayment(t *testing.T) {
	w, nodes, _ := multihopWorld(t)
	a, b, c := nodes[0], nodes[1], nodes[2]
	_ = c
	if err := a.PayMultihop([][]cryptoutil.PublicKey{identityPath(a, b, c)}, 200, 1, nil); err != nil {
		t.Fatal(err)
	}
	pid := runUntilStage(w, b, MhLock)
	if _, err := b.EjectPayment(pid); err != nil {
		t.Fatalf("EjectPayment: %v", err)
	}
	assertConsistentTermination(t, w, nodes, 200)
	// Lock-stage ejection must always land pre-payment.
	if got := w.chain.BalanceByAddress(c.wallet.Address()); got != 0 {
		t.Fatalf("carol received %d from a lock-stage ejection", got)
	}
}

func TestEjectDuringSignAtRecipient(t *testing.T) {
	w, nodes, _ := multihopWorld(t)
	a, b, c := nodes[0], nodes[1], nodes[2]
	if err := a.PayMultihop([][]cryptoutil.PublicKey{identityPath(a, b, c)}, 200, 1, nil); err != nil {
		t.Fatal(err)
	}
	pid := runUntilStage(w, c, MhSign)
	if _, err := c.EjectPayment(pid); err != nil {
		t.Fatalf("EjectPayment: %v", err)
	}
	assertConsistentTermination(t, w, nodes, 200)
}

func TestEjectDuringPreUpdateSettlesViaTau(t *testing.T) {
	w, nodes, _ := multihopWorld(t)
	a, b, c := nodes[0], nodes[1], nodes[2]
	if err := a.PayMultihop([][]cryptoutil.PublicKey{identityPath(a, b, c)}, 200, 1, nil); err != nil {
		t.Fatal(err)
	}
	pid := runUntilStage(w, b, MhPreUpdate)
	sr, err := b.EjectPayment(pid)
	if err != nil {
		t.Fatalf("EjectPayment: %v", err)
	}
	if len(sr.Txs) != 1 {
		t.Fatalf("preUpdate ejection returned %d txs, want 1 (τ)", len(sr.Txs))
	}
	// τ settles every channel in the path at post-payment state.
	assertConsistentTermination(t, w, nodes, 200)
	if got := w.chain.BalanceByAddress(c.wallet.Address()); got != 200 {
		t.Fatalf("carol has %d after τ settlement, want 200", got)
	}
}

func TestEjectDuringPostUpdateSettlesPostPayment(t *testing.T) {
	w, nodes, _ := multihopWorld(t)
	a, b, c := nodes[0], nodes[1], nodes[2]
	if err := a.PayMultihop([][]cryptoutil.PublicKey{identityPath(a, b, c)}, 200, 1, nil); err != nil {
		t.Fatal(err)
	}
	pid := runUntilStage(w, b, MhPostUpdate)
	if _, err := b.EjectPayment(pid); err != nil {
		t.Fatalf("EjectPayment: %v", err)
	}
	assertConsistentTermination(t, w, nodes, 200)
	if got := w.chain.BalanceByAddress(c.wallet.Address()); got != 200 {
		t.Fatalf("carol has %d after post-payment ejection, want 200", got)
	}
}

func TestEjectEveryNodeEveryStageIsConsistent(t *testing.T) {
	// Exhaustive sweep: every (node, stage) premature termination must
	// produce a consistent all-pre or all-post outcome.
	stages := []MhStage{MhLock, MhSign, MhPreUpdate, MhUpdate, MhPostUpdate}
	for _, stage := range stages {
		for who := 0; who < 3; who++ {
			name := fmt.Sprintf("%v/node%d", stage, who)
			t.Run(name, func(t *testing.T) {
				w, nodes, _ := multihopWorld(t)
				a, b, c := nodes[0], nodes[1], nodes[2]
				if err := a.PayMultihop([][]cryptoutil.PublicKey{identityPath(a, b, c)}, 200, 1, nil); err != nil {
					t.Fatal(err)
				}
				ejector := nodes[who]
				var pid wire.PaymentID
				reached := true
				func() {
					defer func() {
						if r := recover(); r != nil {
							reached = false
						}
					}()
					// Not every node passes through every stage on both
					// channels; skip unreachable combinations.
					done := false
					for i := 0; i < 1_000_000 && !done; i++ {
						for _, ch := range ejector.Enclave().State().Channels {
							if ch.Stage == stage && ch.Payment != "" {
								pid = ch.Payment
								done = true
								break
							}
						}
						if !done && !w.sim.Step() {
							reached = false
							return
						}
					}
				}()
				if !reached {
					t.Skipf("node %d never observes stage %v", who, stage)
				}
				if _, err := ejector.EjectPayment(pid); err != nil {
					t.Fatalf("EjectPayment at %v: %v", stage, err)
				}
				assertConsistentTermination(t, w, nodes, 200)
			})
		}
	}
}

func TestPoPTClassification(t *testing.T) {
	w, nodes, _ := multihopWorld(t)
	a, b, c := nodes[0], nodes[1], nodes[2]
	if err := a.PayMultihop([][]cryptoutil.PublicKey{identityPath(a, b, c)}, 200, 1, nil); err != nil {
		t.Fatal(err)
	}
	pid := runUntilStage(w, b, MhPreUpdate)
	mh := b.Enclave().State().Multihop[pid]
	if mh.Tau == nil {
		t.Fatal("no τ at preUpdate")
	}
	// τ itself is not a PoPT.
	if _, err := classifyPoPT(mh.Tau, mh.Tau); err == nil {
		t.Fatal("τ classified as a PoPT against itself")
	}
	// An unrelated transaction is not a PoPT.
	other := &chain.Transaction{
		Inputs:  []chain.TxIn{{Prev: chain.OutPoint{Tx: chain.TxID{9}}}},
		Outputs: []chain.TxOut{{Value: 1, Script: chain.PayToKey(a.WalletKey())}},
	}
	if _, err := classifyPoPT(mh.Tau, other); err == nil {
		t.Fatal("unrelated transaction accepted as PoPT")
	}
}

func TestAbortUnlocksChannels(t *testing.T) {
	// Exhaust bob->carol capacity so the payment aborts at bob, then
	// verify alice's channel unlocks and a smaller payment succeeds.
	w, nodes, ids := multihopWorld(t)
	a, b, c := nodes[0], nodes[1], nodes[2]
	_ = ids
	failed := false
	if err := a.PayMultihop([][]cryptoutil.PublicKey{identityPath(a, b, c)}, 5000, 1,
		func(ok bool, _ time.Duration, reason string) {
			if ok {
				t.Fatal("oversized payment succeeded")
			}
			failed = true
		}); err != nil {
		t.Fatal(err)
	}
	w.run()
	if !failed {
		t.Fatal("no failure reported")
	}
	for _, ch := range a.Enclave().State().Channels {
		if ch.Stage != MhIdle {
			t.Fatalf("alice channel stuck in %v after abort", ch.Stage)
		}
	}
	ok := false
	if err := a.PayMultihop([][]cryptoutil.PublicKey{identityPath(a, b, c)}, 100, 1,
		func(o bool, _ time.Duration, _ string) { ok = o }); err != nil {
		t.Fatal(err)
	}
	w.run()
	if !ok {
		t.Fatal("payment after abort failed")
	}
}

func TestReplayedEnvelopeDropped(t *testing.T) {
	// Capture a payment envelope and replay it: the session counter
	// must reject the duplicate, leaving balances unchanged.
	w := newWorld(t)
	a := w.node("alice", NodeConfig{})
	b := w.node("bob", NodeConfig{})
	w.connect(a, b)
	id := w.openChannel(a, b)
	w.fundAndAssociate(a, b, id, 1000)

	if err := a.Pay(id, 100, nil); err != nil {
		t.Fatal(err)
	}
	w.run()
	myB, _ := channelBal(t, b, id)
	if myB != 100 {
		t.Fatalf("bob balance %d, want 100", myB)
	}

	// Forge a replay: seal one bound token through the peer session
	// the way Node.send does, and deliver the envelope twice.
	sess := a.Enclave().establishedSession(b.Identity())
	if sess == nil {
		t.Fatal("alice has no session with bob")
	}
	env := &Envelope{From: a.Identity(), Msg: &wire.Pay{Channel: id, Amount: 100, Count: 1}}
	size, err := env.seal(sess.transport)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.net.Send(a.ID, b.ID, env, size); err != nil {
		t.Fatal(err)
	}
	if err := w.net.Send(a.ID, b.ID, env, size); err != nil {
		t.Fatal(err)
	}
	w.run()
	myB, _ = channelBal(t, b, id)
	if myB != 200 {
		t.Fatalf("bob balance %d after replay, want 200 (one accepted, one dropped)", myB)
	}
}

func TestForgedSenderRejected(t *testing.T) {
	// Mallory (no session) injects a payment claiming to be alice.
	w := newWorld(t)
	a := w.node("alice", NodeConfig{})
	b := w.node("bob", NodeConfig{})
	m := w.node("mallory", NodeConfig{})
	w.connect(a, b)
	id := w.openChannel(a, b)
	w.fundAndAssociate(a, b, id, 1000)

	env := &Envelope{From: a.Identity(), Msg: &wire.Pay{Channel: id, Amount: 500, Count: 1}}
	size, err := env.seal(nil)
	if err != nil {
		t.Fatal(err)
	}
	env.Token = []byte("garbage")
	if err := w.net.Send(m.ID, b.ID, env, size); err != nil {
		t.Fatal(err)
	}
	w.run()
	myB, _ := channelBal(t, b, id)
	if myB != 0 {
		t.Fatalf("forged payment credited %d", myB)
	}
}
