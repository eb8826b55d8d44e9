package chain

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"teechain/internal/cryptoutil"
	"teechain/internal/sim"
)

func key(t *testing.T, seed string) *cryptoutil.KeyPair {
	t.Helper()
	kp, err := cryptoutil.GenerateKeyPair(cryptoutil.NewDeterministicReader([]byte(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

// spend builds a signed transaction spending op (locked under
// prevScript with the given signers) into the provided outputs.
func spend(t *testing.T, c *Chain, op OutPoint, signers []*cryptoutil.KeyPair, outs ...TxOut) *Transaction {
	t.Helper()
	prev, ok := c.UTXO(op)
	if !ok {
		// Allow spending already-spent outputs for conflict tests: look
		// up the script from the creating transaction.
		tx, found := c.Tx(op.Tx)
		if !found || int(op.Index) >= len(tx.Outputs) {
			t.Fatalf("outpoint %v unknown", op)
		}
		prev = tx.Outputs[op.Index]
	}
	tx := &Transaction{
		Inputs:  []TxIn{{Prev: op}},
		Outputs: outs,
	}
	for _, kp := range signers {
		if err := tx.SignInput(0, prev.Script, kp); err != nil {
			t.Fatalf("SignInput: %v", err)
		}
	}
	return tx
}

func TestFundAndSpend(t *testing.T) {
	c := New()
	alice, bob := key(t, "alice"), key(t, "bob")
	op, err := c.FundKey(alice.Public(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.BalanceByAddress(alice.Address()); got != 1000 {
		t.Fatalf("alice balance = %d, want 1000", got)
	}
	tx := spend(t, c, op, []*cryptoutil.KeyPair{alice},
		TxOut{Value: 400, Script: PayToKey(bob.Public())},
		TxOut{Value: 600, Script: PayToKey(alice.Public())},
	)
	id, err := c.Submit(tx)
	if err != nil {
		t.Fatal(err)
	}
	if c.Status(id) != StatusPending {
		t.Fatalf("status = %v, want pending", c.Status(id))
	}
	c.MineBlock()
	if c.Status(id) != StatusConfirmed {
		t.Fatalf("status = %v, want confirmed (%s)", c.Status(id), c.RejectReason(id))
	}
	if got := c.BalanceByAddress(bob.Address()); got != 400 {
		t.Fatalf("bob balance = %d, want 400", got)
	}
	if got := c.BalanceByAddress(alice.Address()); got != 600 {
		t.Fatalf("alice balance = %d, want 600", got)
	}
	if c.TotalUnspent() != c.Minted() {
		t.Fatalf("value not conserved: unspent %d, minted %d", c.TotalUnspent(), c.Minted())
	}
}

func TestRejectsUnsignedSpend(t *testing.T) {
	c := New()
	alice, mallory := key(t, "alice"), key(t, "mallory")
	op, _ := c.FundKey(alice.Public(), 1000)
	// Mallory signs with her own key.
	tx := &Transaction{
		Inputs:  []TxIn{{Prev: op, Sigs: make([]cryptoutil.Signature, 1)}},
		Outputs: []TxOut{{Value: 1000, Script: PayToKey(mallory.Public())}},
	}
	digest := tx.SigHash()
	sig, err := mallory.Sign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	tx.Inputs[0].Sigs[0] = sig
	id, _ := c.Submit(tx)
	c.MineBlock()
	if c.Status(id) != StatusRejected {
		t.Fatalf("theft transaction status = %v, want rejected", c.Status(id))
	}
	if c.BalanceByAddress(mallory.Address()) != 0 {
		t.Fatal("mallory stole funds")
	}
}

func TestRejectsValueImbalance(t *testing.T) {
	c := New()
	alice := key(t, "alice")
	op, _ := c.FundKey(alice.Public(), 1000)
	tx := spend(t, c, op, []*cryptoutil.KeyPair{alice},
		TxOut{Value: 2000, Script: PayToKey(alice.Public())})
	id, _ := c.Submit(tx)
	c.MineBlock()
	if c.Status(id) != StatusRejected {
		t.Fatal("value-inflating transaction confirmed")
	}
}

func TestDoubleSpendFirstSeenWins(t *testing.T) {
	c := New()
	alice, bob, carol := key(t, "alice"), key(t, "bob"), key(t, "carol")
	op, _ := c.FundKey(alice.Public(), 500)
	toBob := spend(t, c, op, []*cryptoutil.KeyPair{alice},
		TxOut{Value: 500, Script: PayToKey(bob.Public())})
	toCarol := spend(t, c, op, []*cryptoutil.KeyPair{alice},
		TxOut{Value: 500, Script: PayToKey(carol.Public())})
	if !toBob.ConflictsWith(toCarol) {
		t.Fatal("conflicting transactions not detected as conflicting")
	}
	idBob, _ := c.Submit(toBob)
	idCarol, _ := c.Submit(toCarol)
	c.MineBlock()
	if c.Status(idBob) != StatusConfirmed {
		t.Fatalf("first-seen tx status = %v", c.Status(idBob))
	}
	if c.Status(idCarol) != StatusRejected {
		t.Fatalf("double spend status = %v, want rejected", c.Status(idCarol))
	}
	if c.TotalUnspent() != c.Minted() {
		t.Fatal("value not conserved after conflict")
	}
}

func TestMultisigThreshold(t *testing.T) {
	c := New()
	k1, k2, k3 := key(t, "k1"), key(t, "k2"), key(t, "k3")
	dest := key(t, "dest")
	script := Multisig(2, k1.Public(), k2.Public(), k3.Public())
	op, err := c.Fund(script, 900)
	if err != nil {
		t.Fatal(err)
	}

	// One signature of a 2-of-3 must fail.
	under := spend(t, c, op, []*cryptoutil.KeyPair{k1},
		TxOut{Value: 900, Script: PayToKey(dest.Public())})
	idUnder, _ := c.Submit(under)
	c.MineBlock()
	if c.Status(idUnder) != StatusRejected {
		t.Fatal("1-of-3 spend of a 2-of-3 output confirmed")
	}

	// Two signatures succeed.
	ok := spend(t, c, op, []*cryptoutil.KeyPair{k1, k3},
		TxOut{Value: 900, Script: PayToKey(dest.Public())})
	idOK, _ := c.Submit(ok)
	c.MineBlock()
	if c.Status(idOK) != StatusConfirmed {
		t.Fatalf("2-of-3 spend rejected: %s", c.RejectReason(idOK))
	}
	if got := c.BalanceByAddress(dest.Address()); got != 900 {
		t.Fatalf("dest balance = %d, want 900", got)
	}
}

func TestLockHeightDefersInclusion(t *testing.T) {
	c := New()
	alice, bob := key(t, "alice"), key(t, "bob")
	op, _ := c.FundKey(alice.Public(), 100)
	prev, _ := c.UTXO(op)
	tx := &Transaction{
		Inputs:     []TxIn{{Prev: op}},
		Outputs:    []TxOut{{Value: 100, Script: PayToKey(bob.Public())}},
		LockHeight: 3,
	}
	if err := tx.SignInput(0, prev.Script, alice); err != nil {
		t.Fatal(err)
	}
	id, _ := c.Submit(tx)
	c.MineBlock() // height 1
	c.MineBlock() // height 2
	if c.Status(id) != StatusPending {
		t.Fatalf("locked tx status = %v before lock height", c.Status(id))
	}
	c.MineBlock() // height 3
	if c.Status(id) != StatusConfirmed {
		t.Fatalf("locked tx status = %v at lock height: %s", c.Status(id), c.RejectReason(id))
	}
}

func TestCensorshipDelaysInclusion(t *testing.T) {
	c := New()
	alice, bob := key(t, "alice"), key(t, "bob")
	op, _ := c.FundKey(alice.Public(), 100)
	tx := spend(t, c, op, []*cryptoutil.KeyPair{alice},
		TxOut{Value: 100, Script: PayToKey(bob.Public())})
	id, _ := c.Submit(tx)
	c.Censor(id, 5)
	c.MineBlocks(3)
	if c.Status(id) != StatusPending {
		t.Fatal("censored transaction confirmed early")
	}
	c.MineBlocks(2)
	if c.Status(id) != StatusConfirmed {
		t.Fatalf("censored transaction still %v after censorship lifted", c.Status(id))
	}
}

func TestCensorshipEnablesDoubleSpendRace(t *testing.T) {
	// The attack existing payment networks are vulnerable to: the
	// victim's transaction is delayed while the attacker's conflicting
	// transaction confirms.
	c := New()
	alice, victim, attacker := key(t, "alice"), key(t, "victim"), key(t, "attacker")
	op, _ := c.FundKey(alice.Public(), 100)
	toVictim := spend(t, c, op, []*cryptoutil.KeyPair{alice},
		TxOut{Value: 100, Script: PayToKey(victim.Public())})
	toAttacker := spend(t, c, op, []*cryptoutil.KeyPair{alice},
		TxOut{Value: 100, Script: PayToKey(attacker.Public())})
	idV, _ := c.Submit(toVictim)
	c.Censor(idV, 10) // delay the first-seen transaction
	idA, _ := c.Submit(toAttacker)
	c.MineBlock()
	if c.Status(idA) != StatusConfirmed {
		t.Fatal("attacker transaction did not confirm during censorship")
	}
	c.MineBlocks(10)
	if c.Status(idV) != StatusRejected {
		t.Fatalf("victim transaction status = %v, want rejected", c.Status(idV))
	}
}

func TestConfirmations(t *testing.T) {
	c := New()
	alice, bob := key(t, "alice"), key(t, "bob")
	op, _ := c.FundKey(alice.Public(), 100)
	tx := spend(t, c, op, []*cryptoutil.KeyPair{alice},
		TxOut{Value: 100, Script: PayToKey(bob.Public())})
	id, _ := c.Submit(tx)
	if c.Confirmations(id) != 0 {
		t.Fatal("unconfirmed tx has confirmations")
	}
	c.MineBlock()
	if got := c.Confirmations(id); got != 1 {
		t.Fatalf("confirmations = %d, want 1", got)
	}
	c.MineBlocks(5)
	if got := c.Confirmations(id); got != 6 {
		t.Fatalf("confirmations = %d, want 6", got)
	}
}

func TestOnBlockObserver(t *testing.T) {
	c := New()
	var heights []uint64
	c.OnBlock(func(b *Block) { heights = append(heights, b.Height) })
	c.MineBlocks(3)
	if len(heights) != 3 || heights[0] != 1 || heights[2] != 3 {
		t.Fatalf("observer heights = %v", heights)
	}
}

func TestSubmitIdempotent(t *testing.T) {
	c := New()
	alice, bob := key(t, "alice"), key(t, "bob")
	op, _ := c.FundKey(alice.Public(), 100)
	tx := spend(t, c, op, []*cryptoutil.KeyPair{alice},
		TxOut{Value: 100, Script: PayToKey(bob.Public())})
	id1, _ := c.Submit(tx)
	id2, _ := c.Submit(tx)
	if id1 != id2 {
		t.Fatal("resubmission changed txid")
	}
	if c.MempoolSize() != 1 {
		t.Fatalf("mempool size = %d, want 1", c.MempoolSize())
	}
	c.MineBlock()
	if _, err := c.Submit(tx); err != nil {
		t.Fatalf("re-broadcast of confirmed tx errored: %v", err)
	}
}

func TestStatelessValidation(t *testing.T) {
	c := New()
	alice := key(t, "alice")
	op, _ := c.FundKey(alice.Public(), 100)
	cases := []struct {
		name string
		tx   *Transaction
	}{
		{"no inputs", &Transaction{Outputs: []TxOut{{Value: 1, Script: PayToKey(alice.Public())}}}},
		{"no outputs", &Transaction{Inputs: []TxIn{{Prev: op}}}},
		{"zero value output", &Transaction{
			Inputs:  []TxIn{{Prev: op}},
			Outputs: []TxOut{{Value: 0, Script: PayToKey(alice.Public())}},
		}},
		{"duplicate input", &Transaction{
			Inputs:  []TxIn{{Prev: op}, {Prev: op}},
			Outputs: []TxOut{{Value: 100, Script: PayToKey(alice.Public())}},
		}},
		{"invalid script", &Transaction{
			Inputs:  []TxIn{{Prev: op}},
			Outputs: []TxOut{{Value: 100, Script: Script{M: 2, Keys: []cryptoutil.PublicKey{alice.Public()}}}},
		}},
	}
	for _, tc := range cases {
		if _, err := c.Submit(tc.tx); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestScriptValidate(t *testing.T) {
	a, b := key(t, "a").Public(), key(t, "b").Public()
	if err := Multisig(2, a, b).Validate(); err != nil {
		t.Fatalf("valid 2-of-2 rejected: %v", err)
	}
	if err := (Script{M: 0, Keys: []cryptoutil.PublicKey{a}}).Validate(); err == nil {
		t.Fatal("M=0 accepted")
	}
	if err := (Script{M: 1}).Validate(); err == nil {
		t.Fatal("no keys accepted")
	}
	if err := Multisig(2, a, a).Validate(); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	if err := Multisig(2, a, cryptoutil.PublicKey{}).Validate(); err == nil {
		t.Fatal("zero key accepted")
	}
}

func TestScriptAddress(t *testing.T) {
	a, b := key(t, "a").Public(), key(t, "b").Public()
	if PayToKey(a).Address() != a.Address() {
		t.Fatal("1-of-1 address differs from key address")
	}
	m1 := Multisig(1, a, b).Address()
	m2 := Multisig(2, a, b).Address()
	if m1 == m2 {
		t.Fatal("different thresholds share an address")
	}
	if Multisig(1, a, b).Address() != Multisig(1, a, b).Address() {
		t.Fatal("address not deterministic")
	}
}

func TestSigHashExcludesSignatures(t *testing.T) {
	c := New()
	alice, bob := key(t, "alice"), key(t, "bob")
	op, _ := c.FundKey(alice.Public(), 100)
	prev, _ := c.UTXO(op)
	tx := &Transaction{
		Inputs:  []TxIn{{Prev: op}},
		Outputs: []TxOut{{Value: 100, Script: PayToKey(bob.Public())}},
	}
	before := tx.SigHash()
	if err := tx.SignInput(0, prev.Script, alice); err != nil {
		t.Fatal(err)
	}
	if tx.SigHash() != before {
		t.Fatal("signing changed the sighash")
	}
	if tx.ID().IsZero() {
		t.Fatal("zero txid")
	}
}

func TestCostAccounting(t *testing.T) {
	c := New()
	k1, k2, k3 := key(t, "k1"), key(t, "k2"), key(t, "k3")
	op, _ := c.Fund(Multisig(2, k1.Public(), k2.Public(), k3.Public()), 100)
	prev, _ := c.UTXO(op)
	tx := &Transaction{
		Inputs:  []TxIn{{Prev: op}},
		Outputs: []TxOut{{Value: 100, Script: PayToKey(k1.Public())}},
	}
	if err := tx.SignInput(0, prev.Script, k1); err != nil {
		t.Fatal(err)
	}
	if err := tx.SignInput(0, prev.Script, k2); err != nil {
		t.Fatal(err)
	}
	if got := tx.NumSigs(); got != 2 {
		t.Fatalf("NumSigs = %d, want 2", got)
	}
	if got := tx.NumKeys(); got != 1 {
		t.Fatalf("NumKeys = %d, want 1", got)
	}
	if got := tx.CostUnits(); got != 1.5 {
		t.Fatalf("CostUnits = %v, want 1.5", got)
	}
}

func TestMinerProducesBlocksOnSchedule(t *testing.T) {
	s := sim.New()
	c := New()
	m := NewMiner(s, c, time.Minute)
	m.Start()
	s.RunFor(10*time.Minute + time.Second)
	if got := c.Height(); got != 10 {
		t.Fatalf("height = %d after 10 minutes of 1-minute blocks, want 10", got)
	}
	m.Stop()
	s.RunFor(10 * time.Minute)
	if got := c.Height(); got > 11 {
		t.Fatalf("miner kept producing after Stop: height %d", got)
	}
}

func TestConservationQuick(t *testing.T) {
	// Random mix of funds, spends, double spends, and mining never mints
	// or destroys value.
	alice := key(t, "alice")
	bob := key(t, "bob")
	f := func(ops []byte) bool {
		c := New()
		var unspent []OutPoint
		for _, op := range ops {
			switch op % 4 {
			case 0:
				p, err := c.FundKey(alice.Public(), Amount(int64(op)+1))
				if err != nil {
					return false
				}
				unspent = append(unspent, p)
			case 1, 2:
				if len(unspent) == 0 {
					continue
				}
				p := unspent[int(op)%len(unspent)]
				out, ok := c.UTXO(p)
				if !ok {
					continue
				}
				tx := &Transaction{
					Inputs:  []TxIn{{Prev: p}},
					Outputs: []TxOut{{Value: out.Value, Script: PayToKey(bob.Public())}},
				}
				if err := tx.SignInput(0, out.Script, alice); err != nil {
					return false
				}
				if _, err := c.Submit(tx); err != nil {
					return false
				}
			case 3:
				c.MineBlock()
			}
		}
		c.MineBlocks(2)
		return c.TotalUnspent() == c.Minted()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSortOutPointsDeterministic(t *testing.T) {
	a := OutPoint{Tx: TxID{1}, Index: 2}
	b := OutPoint{Tx: TxID{1}, Index: 1}
	c := OutPoint{Tx: TxID{0}, Index: 9}
	got := SortOutPoints([]OutPoint{a, b, c})
	if got[0] != c || got[1] != b || got[2] != a {
		t.Fatalf("sorted order wrong: %v", got)
	}
}

func TestRejectReasonMentionsCause(t *testing.T) {
	c := New()
	alice := key(t, "alice")
	op, _ := c.FundKey(alice.Public(), 10)
	tx := spend(t, c, op, nil, TxOut{Value: 10, Script: PayToKey(alice.Public())})
	// No signature at all -> slot count mismatch at validation.
	id, _ := c.Submit(tx)
	c.MineBlock()
	if c.Status(id) != StatusRejected {
		t.Fatal("unsigned spend confirmed")
	}
	if !strings.Contains(c.RejectReason(id), "signature") {
		t.Fatalf("reject reason %q does not mention signatures", c.RejectReason(id))
	}
}
