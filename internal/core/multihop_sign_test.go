package core

import (
	"testing"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
)

// depositScripts collects the script of every deposit any of the nodes
// has associated with a channel, keyed by outpoint: what the chain will
// check τ's inputs against.
func depositScripts(nodes ...*Node) map[chain.OutPoint]chain.Script {
	scripts := make(map[chain.OutPoint]chain.Script)
	for _, n := range nodes {
		for _, c := range n.Enclave().State().Channels {
			for _, d := range c.MyDeps {
				scripts[d.Point] = d.Script
			}
			for _, d := range c.RemoteDeps {
				scripts[d.Point] = d.Script
			}
		}
	}
	return scripts
}

// assertTauVerifies checks the τ every hop on the path holds for the
// payment: each input spends a known deposit and satisfies its script
// (chain.VerifyInput — threshold many valid signatures, none invalid).
// It returns τ's input count.
func assertTauVerifies(t *testing.T, path []*Node, scripts map[chain.OutPoint]chain.Script) int {
	t.Helper()
	inputs := 0
	for _, n := range path {
		for pid, mh := range n.Enclave().State().Multihop {
			if mh.Tau == nil {
				t.Fatalf("%s holds no τ for %s after the sign stage", n.ID, pid)
			}
			inputs = len(mh.Tau.Inputs)
			for i, in := range mh.Tau.Inputs {
				script, ok := scripts[in.Prev]
				if !ok {
					t.Fatalf("%s: τ input %d spends an unknown deposit %s", n.ID, i, in.Prev)
				}
				if err := mh.Tau.VerifyInput(i, script); err != nil {
					t.Fatalf("%s: τ input %d does not verify: %v", n.ID, i, err)
				}
			}
		}
	}
	if inputs == 0 {
		t.Fatal("no hop holds the payment")
	}
	return inputs
}

func tauSigned(nodes ...*Node) (n uint64) {
	for _, node := range nodes {
		n += node.Enclave().TauSigned()
	}
	return n
}

// TestTauSignedOncePerInput: the sign stage leaves every input of τ
// satisfying its deposit script at every hop, and spends one signature
// per key slot — a 1-of-1 deposit, whose key both ends of the channel
// hold, is signed by the end the stage reaches first and left alone by
// the other.
func TestTauSignedOncePerInput(t *testing.T) {
	t.Run("1-of-1 deposits", func(t *testing.T) {
		w, nodes, ids := multihopWorld(t)
		a, b, c := nodes[0], nodes[1], nodes[2]
		if err := a.PayMultihop([][]cryptoutil.PublicKey{identityPath(a, b, c)}, 200, 1, nil); err != nil {
			t.Fatal(err)
		}
		runUntilStage(w, b, MhPreUpdate)
		if inputs := assertTauVerifies(t, nodes, depositScripts(nodes...)); inputs != 2 {
			t.Fatalf("τ has %d inputs, want 2", inputs)
		}
		// The recipient signs bob–carol's deposit, bob alice–bob's;
		// alice finds nothing left to sign.
		if got := [3]uint64{a.Enclave().TauSigned(), b.Enclave().TauSigned(), c.Enclave().TauSigned()}; got != [3]uint64{0, 1, 1} {
			t.Fatalf("signatures made by alice, bob, carol: %v, want [0 1 1]", got)
		}
		// The payment still completes and the next one signs afresh.
		w.run()
		if err := a.PayMultihop([][]cryptoutil.PublicKey{identityPath(a, b, c)}, 50, 1, nil); err != nil {
			t.Fatal(err)
		}
		w.run()
		if got := tauSigned(nodes...); got != 4 {
			t.Fatalf("two payments over two 1-of-1 deposits made %d signatures, want 4", got)
		}
		if mine, _ := channelBal(t, c, ids[1]); mine != 250 {
			t.Fatalf("carol holds %d, want 250", mine)
		}
	})

	t.Run("several deposits on one channel", func(t *testing.T) {
		w, nodes, ids := multihopWorld(t)
		a, b, c := nodes[0], nodes[1], nodes[2]
		// alice–bob carries three deposits: two of alice's, one of bob's.
		w.fundAndAssociate(a, b, ids[0], 300)
		w.fundAndAssociate(b, a, ids[0], 400)
		if err := a.PayMultihop([][]cryptoutil.PublicKey{identityPath(a, b, c)}, 200, 1, nil); err != nil {
			t.Fatal(err)
		}
		runUntilStage(w, b, MhPreUpdate)
		if inputs := assertTauVerifies(t, nodes, depositScripts(nodes...)); inputs != 4 {
			t.Fatalf("τ has %d inputs, want 4", inputs)
		}
		if got := tauSigned(nodes...); got != 4 {
			t.Fatalf("%d signatures for four 1-of-1 inputs, want 4", got)
		}
	})

	t.Run("committee-backed deposit", func(t *testing.T) {
		// alice's deposit is 2-of-2 with her committee member: alice
		// alone holds her key (bob, the other end of the channel, holds
		// none of them), and the member countersigns through the
		// replication acknowledgement of the sign-stage op.
		w := newWorld(t)
		a := w.node("alice", NodeConfig{})
		b := w.node("bob", NodeConfig{})
		c := w.node("carol", NodeConfig{})
		ra := w.node("alice-member", NodeConfig{})
		for _, pair := range [][2]*Node{{a, ra}, {a, b}, {b, c}, {b, ra}} {
			w.connect(pair[0], pair[1])
		}
		if err := a.FormCommittee([]*Node{ra}, 2); err != nil {
			t.Fatal(err)
		}
		w.until(func() bool { return a.Enclave().CommitteeReady() })
		idAB := w.openChannel(a, b)
		w.fundAndAssociate(a, b, idAB, 1000)
		idBC := w.openChannel(b, c)
		w.fundAndAssociate(b, c, idBC, 1000)
		if err := a.PayMultihop([][]cryptoutil.PublicKey{identityPath(a, b, c)}, 200, 1, nil); err != nil {
			t.Fatal(err)
		}
		runUntilStage(w, b, MhPreUpdate)
		scripts := depositScripts(a, b, c)
		assertTauVerifies(t, []*Node{a, b, c}, scripts)
		for point, script := range scripts {
			if rec, ok := a.Enclave().State().Deposits[point]; ok && (rec.Info.Script.M != 2 || len(script.Keys) != 2) {
				t.Fatalf("alice's deposit is %d-of-%d, want 2-of-2", script.M, len(script.Keys))
			}
		}
		// carol signs bob's 1-of-1 deposit, alice her own slot; bob holds
		// no key of alice's deposit and has nothing left of his own.
		if got := [3]uint64{a.Enclave().TauSigned(), b.Enclave().TauSigned(), c.Enclave().TauSigned()}; got != [3]uint64{1, 0, 1} {
			t.Fatalf("signatures made by alice, bob, carol: %v, want [1 0 1]", got)
		}
	})
}
