package core

import (
	"testing"
	"time"

	"teechain/internal/chain"
	"teechain/internal/wire"
)

// TestWalletFundedDepositMatures exercises the full asynchronous
// deposit path (§4): the host funds the deposit from its wallet with a
// real blockchain transaction, waits for the configured confirmation
// depth, and only then registers it with the enclave.
func TestWalletFundedDepositMatures(t *testing.T) {
	w := newWorld(t)
	a := w.node("alice", NodeConfig{})
	b := w.node("bob", NodeConfig{})
	w.connect(a, b)

	// Give alice's wallet on-chain funds.
	utxo, err := w.chain.FundKey(a.WalletKey(), 5000)
	if err != nil {
		t.Fatal(err)
	}
	point, err := a.CreateDeposit(utxo, 3000, 3)
	if err != nil {
		t.Fatalf("CreateDeposit: %v", err)
	}
	// Not yet registered: the funding transaction is unconfirmed.
	if _, ok := a.Enclave().State().Deposits[point]; ok {
		t.Fatal("deposit registered before confirmation")
	}
	w.chain.MineBlock()
	w.run()
	if _, ok := a.Enclave().State().Deposits[point]; ok {
		t.Fatal("deposit registered below the confirmation policy")
	}
	w.chain.MineBlocks(2)
	w.run()
	rec, ok := a.Enclave().State().Deposits[point]
	if !ok || !rec.Free {
		t.Fatal("deposit not registered after maturing")
	}
	// Change returned to the wallet.
	if got := w.chain.BalanceByAddress(a.WalletKey().Address()); got != 2000 {
		t.Fatalf("wallet change %d, want 2000", got)
	}

	// The matured deposit is fully usable.
	id := w.openChannel(a, b)
	if err := a.ApproveDeposit(b, point); err != nil {
		t.Fatal(err)
	}
	w.until(func() bool { return a.Enclave().State().ApprovedMine[b.Identity()][point] })
	if err := a.AssociateDeposit(id, point); err != nil {
		t.Fatal(err)
	}
	w.run()
	if err := a.Pay(id, 1234, nil); err != nil {
		t.Fatal(err)
	}
	w.run()
	my, _ := channelBal(t, a, id)
	if my != 3000-1234 {
		t.Fatalf("balance %d after paying from wallet-funded deposit", my)
	}
}

// TestDepositApprovalPolicyRejectsShallow verifies the §4.1 security
// parameter: an enclave configured to require deep confirmations
// refuses shallow deposits.
func TestDepositApprovalPolicyRejectsShallow(t *testing.T) {
	w := newWorld(t)
	a := w.node("alice", NodeConfig{})
	strict := w.node("strict", NodeConfig{Enclave: Config{MinConfirmations: 6}})
	w.connect(a, strict)
	id := w.openChannel(a, strict)
	_ = id

	point, err := a.CreateDepositInstant(100)
	if err != nil {
		t.Fatal(err)
	}
	w.run()
	if err := a.ApproveDeposit(strict, point); err != nil {
		t.Fatal(err)
	}
	w.run()
	if a.Enclave().State().ApprovedMine[strict.Identity()][point] {
		t.Fatal("strict peer approved a shallow deposit")
	}
	// After six blocks the host retries approval and it passes.
	w.chain.MineBlocks(6)
	if err := a.ApproveDeposit(strict, point); err != nil {
		t.Fatal(err)
	}
	w.run()
	if !a.Enclave().State().ApprovedMine[strict.Identity()][point] {
		t.Fatal("deep deposit still not approved")
	}
}

func TestCostModelKnees(t *testing.T) {
	cm := CostModel(false)
	payCPU, payDelay := cm(&wire.Pay{Count: 1})
	if payDelay != 0 {
		t.Fatal("payments must not carry pipeline delay")
	}
	// 1/(payCPU) is the single-channel ceiling: ~130k tx/s (Table 1).
	tput := 1.0 / payCPU.Seconds()
	if tput < 120_000 || tput > 140_000 {
		t.Fatalf("payment knee %.0f tx/s, want ~130k", tput)
	}
	replCPU, _ := cm(&wire.ReplBatch{Ops: []wire.ReplBatchOp{{Kind: wire.ReplOpPaySend, Count: 1}}})
	tput = 1.0 / replCPU.Seconds()
	if tput < 30_000 || tput > 38_000 {
		t.Fatalf("replication knee %.0f tx/s, want ~34k", tput)
	}
	// Batched: per-payment amortised cost approaches CostPayPerPayment.
	batchCPU, _ := cm(&wire.Pay{Count: 10_000})
	per := batchCPU.Seconds() / 10_000
	if 1/per < 145_000 || 1/per > 160_000 {
		t.Fatalf("batched knee %.0f tx/s, want ~150k", 1/per)
	}
	// Stage messages are delay-dominated, not CPU-dominated.
	mhCPU, mhDelay := cm(&wire.MhLock{})
	if mhDelay < 50*time.Millisecond || mhCPU > 10*time.Millisecond {
		t.Fatalf("stage cost cpu=%v delay=%v; want delay-dominated", mhCPU, mhDelay)
	}
}

func TestCostModelStableStorage(t *testing.T) {
	cm := CostModel(true)
	// Unbatched payment: bound by the counter (10 tx/s).
	payCPU, _ := cm(&wire.Pay{Count: 1})
	if payCPU != 100*time.Millisecond {
		t.Fatalf("stable unbatched pay cpu %v, want 100ms", payCPU)
	}
	// Large batch: processing exceeds and thus hides the counter.
	batchCPU, _ := cm(&wire.Pay{Count: 100_000})
	if batchCPU <= 100*time.Millisecond {
		t.Fatalf("stable batched pay cpu %v should exceed the counter", batchCPU)
	}
	// Non-payment state changes pay the counter additively.
	assocCPU, _ := cm(&wire.AssociateDeposit{})
	if assocCPU <= 100*time.Millisecond {
		t.Fatalf("stable associate cpu %v, want counter + processing", assocCPU)
	}
	// Reads do not touch the counter.
	ackCPU, _ := cm(&wire.PayAck{})
	if ackCPU >= 100*time.Millisecond {
		t.Fatalf("stable ack cpu %v should not pay the counter", ackCPU)
	}
}

func TestReleaseRequiresFreeDeposit(t *testing.T) {
	w := newWorld(t)
	a := w.node("alice", NodeConfig{})
	b := w.node("bob", NodeConfig{})
	w.connect(a, b)
	id := w.openChannel(a, b)
	point := w.fundAndAssociate(a, b, id, 100)
	// Associated deposits cannot be released out from under the channel.
	if _, _, _, err := a.Enclave().ReleaseDeposit(point); err == nil {
		t.Fatal("released an associated deposit")
	}
	_ = chain.Amount(0)
}
