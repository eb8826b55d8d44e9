package core

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
)

// Property-based tests for the paper's formal guarantee (Appendix A):
// balance correctness — at any point, any well-behaved user can
// unilaterally reclaim their perceived balance on the blockchain,
// regardless of what others do.

// randomOpsWorld drives a two-party channel through a random operation
// sequence (payments both ways, deposit associations, dissociations)
// and then verifies invariants.
func runRandomOps(t *testing.T, script []byte) {
	t.Helper()
	w := newWorld(t)
	a := w.node("alice", NodeConfig{})
	b := w.node("bob", NodeConfig{})
	w.connect(a, b)
	id := w.openChannel(a, b)
	w.fundAndAssociate(a, b, id, 500)
	w.fundAndAssociate(b, a, id, 500)

	initial := a.Enclave().State().PerceivedBalance() + b.Enclave().State().PerceivedBalance()

	for _, op := range script {
		switch op % 5 {
		case 0: // alice pays
			amt := chain.Amount(op%97) + 1
			if c := a.Enclave().State().Channels[id]; c.MyBal >= amt {
				if err := a.Pay(id, amt, nil); err != nil {
					t.Fatalf("alice pay: %v", err)
				}
			}
		case 1: // bob pays
			amt := chain.Amount(op%53) + 1
			if c := b.Enclave().State().Channels[id]; c.MyBal >= amt {
				if err := b.Pay(id, amt, nil); err != nil {
					t.Fatalf("bob pay: %v", err)
				}
			}
		case 2: // alice adds a deposit
			if op%2 == 0 {
				w.fundAndAssociate(a, b, id, chain.Amount(op)+1)
			}
		case 3: // alice tries to dissociate her first deposit
			c := a.Enclave().State().Channels[id]
			if len(c.MyDeps) > 1 && c.MyBal >= c.MyDeps[0].Value {
				if err := a.DissociateDeposit(id, c.MyDeps[0].Point); err != nil {
					t.Fatalf("dissociate: %v", err)
				}
			}
		case 4: // drain the network
			w.run()
		}
	}
	w.run()

	// Invariant 1: perceived balances conserved (minus nothing — no
	// settlements happened; funded deposits added value).
	var funded chain.Amount
	for _, st := range []*State{a.Enclave().State(), b.Enclave().State()} {
		for _, d := range st.Deposits {
			if d.Released {
				t.Fatal("unexpected release")
			}
		}
		_ = st
	}
	funded = w.chain.Minted()
	got := a.Enclave().State().PerceivedBalance() + b.Enclave().State().PerceivedBalance()
	if got != funded {
		t.Fatalf("perceived total %d != funded %d (initial %d)", got, funded, initial)
	}

	// Invariant 2: channel views agree.
	ca := a.Enclave().State().Channels[id]
	cb := b.Enclave().State().Channels[id]
	if ca.MyBal != cb.RemoteBal || ca.RemoteBal != cb.MyBal {
		t.Fatalf("views diverged: alice %d/%d, bob %d/%d", ca.MyBal, ca.RemoteBal, cb.MyBal, cb.RemoteBal)
	}

	// Invariant 3 (balance correctness): alice settles unilaterally and
	// recovers exactly her perceived balance on chain.
	perceivedA := a.Enclave().State().PerceivedBalance()
	if _, err := a.Settle(id); err != nil {
		t.Fatalf("settle: %v", err)
	}
	w.run()
	// Release any free deposits too.
	for point, rec := range a.Enclave().State().Deposits {
		if rec.Free && !rec.Released {
			if err := a.ReleaseDeposit(point); err != nil {
				t.Fatalf("release: %v", err)
			}
		}
	}
	w.run()
	w.chain.MineBlocks(2)
	w.run()
	if got := w.chain.BalanceByAddress(a.wallet.Address()); got != perceivedA {
		t.Fatalf("alice recovered %d on chain, perceived %d", got, perceivedA)
	}
	if w.chain.TotalUnspent() != w.chain.Minted() {
		t.Fatal("chain value not conserved")
	}
}

// balanceCorpus holds scripts the property generator once produced,
// hex-encoded as in the subtest names; they are replayed on every run
// so a regression on any of them shows under the same name.
var balanceCorpus = []string{
	"07e99e1256a6d88f31f30e1e010763d5",
	"0f52f52c8a5a4b53b3c3c502832b0cb3c0dc35a417",
	"1481d77a349c9fc128db3bf6cbc0b199c5da970a91",
	"19eb136f72788d",
	"240664422840b4255e4f682e600c101d237133ddb3",
	"2806fd9e67b97734deafb6019dbeb71a65cd2a3188",
	"2d1dd9f86e619534a60421bf52762933efd679fe81",
	"421b87d41a0cca451ec70eb51cbd259267c18b782e",
	"4e413eba771eda08549e1c71ed4d1898409999dcd3",
	"6247eee7f6d1d42c35039b4335b19de7bddfc96a36",
	"655a0a205c4f8126a85f8686a028a0eb3910cd1baa",
	"698d39b5b57a520cf7ca5b4988adac7c8a507f4592",
	"6ea42cad01a4ecc66c805f428364dce3a43785a7",
	"7ab3b53b5f20ff597a69b8860a62d7e2f266",
	"83b8cae99086229bcdcf9cae",
	"8d4095f04653ad17e85d35cbad7647d0",
	"8fb1",
	"a1b1142c76536126e79f967de61325adb844bac3f0",
	"a24c6aaf7ce5ca8a923c6471a82d82b98e8d5c70",
	"a96d848cb780ef33963ceb36",
	"b6b7b69064eece2496fb27d48e5a3980d5476e0c0c",
	"c538e01b5d1422e8959dd8",
	"d8e06f58305e78e3883feed9ad53ec6028d2bc2aac",
	"e1e51bf2f3f43380c519fe13188b201bae72f7eae1",
	"e95806059c9ffa150c672834e744",
}

func TestBalanceCorrectnessQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	run := func(script []byte) bool {
		return t.Run(fmt.Sprintf("script-%x", script), func(t *testing.T) { runRandomOps(t, script) })
	}
	for _, h := range balanceCorpus {
		script, err := hex.DecodeString(h)
		if err != nil {
			t.Fatalf("corpus entry %q: %v", h, err)
		}
		run(script)
	}
	f := func(script []byte) bool {
		if len(script) > 24 {
			script = script[:24]
		}
		return run(script)
	}
	// A fixed seed keeps the generated subtest names the same from run
	// to run; the corpus above carries scripts of earlier seeds.
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStateApplyRejectsInvalidOps(t *testing.T) {
	st := NewState(cryptoutilKey(t, "o").Public())
	if err := st.Apply(&Op{Kind: OpPaySend, Channel: "nope", Amount: 1, Count: 1}); err == nil {
		t.Fatal("pay on unknown channel accepted")
	}
	if err := st.Apply(&Op{Kind: OpKind(99)}); err == nil {
		t.Fatal("unknown op kind accepted")
	}
	if err := st.Apply(&Op{Kind: OpFreeze}); err != nil {
		t.Fatal(err)
	}
	if !st.Frozen {
		t.Fatal("freeze op did not freeze")
	}
	if err := st.Apply(&Op{Kind: OpRegisterDeposit}); err != ErrFrozen {
		t.Fatalf("frozen state accepted op: %v", err)
	}
}

func TestStateSnapshotRoundTrip(t *testing.T) {
	w := newWorld(t)
	a := w.node("alice", NodeConfig{})
	b := w.node("bob", NodeConfig{})
	w.connect(a, b)
	id := w.openChannel(a, b)
	w.fundAndAssociate(a, b, id, 777)
	if err := a.Pay(id, 111, nil); err != nil {
		t.Fatal(err)
	}
	w.run()

	snap, err := encodeState(a.Enclave().State())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := decodeState(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.PerceivedBalance() != a.Enclave().State().PerceivedBalance() {
		t.Fatal("snapshot round trip changed perceived balance")
	}
	c := restored.Channels[id]
	if c == nil || c.MyBal != 666 || c.RemoteBal != 111 {
		t.Fatalf("restored channel wrong: %+v", c)
	}
}

func TestDeterministicReplay(t *testing.T) {
	// The same scenario run twice produces identical virtual-time
	// traces — the property every experiment in the paper reproduction
	// rests on.
	run := func() (time.Duration, chain.Amount) {
		w := newWorld(t)
		a := w.node("alice", NodeConfig{})
		b := w.node("bob", NodeConfig{})
		w.connect(a, b)
		id := w.openChannel(a, b)
		w.fundAndAssociate(a, b, id, 1000)
		for i := 0; i < 20; i++ {
			if err := a.Pay(id, chain.Amount(i)+1, nil); err != nil {
				t.Fatal(err)
			}
		}
		w.run()
		c := a.Enclave().State().Channels[id]
		return time.Duration(w.sim.Now()), c.MyBal
	}
	t1, b1 := run()
	t2, b2 := run()
	if t1 != t2 || b1 != b2 {
		t.Fatalf("replay diverged: (%v,%d) vs (%v,%d)", t1, b1, t2, b2)
	}
}

func cryptoutilKey(t *testing.T, seed string) *cryptoutil.KeyPair {
	t.Helper()
	kp, err := cryptoutil.GenerateKeyPair(cryptoutil.NewDeterministicReader([]byte(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return kp
}
