package core

import (
	"fmt"
	"testing"
	"time"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/netsim"
	"teechain/internal/sim"
	"teechain/internal/tee"
	"teechain/internal/wire"
)

// world wires a simulator, network, blockchain, directory, and nodes
// into a ready test deployment.
type world struct {
	t     *testing.T
	sim   *sim.Simulator
	net   *netsim.Network
	chain *chain.Chain
	dir   *Directory
	auth  *tee.Authority
}

func newWorld(t *testing.T) *world {
	t.Helper()
	s := sim.New()
	n := netsim.New(s)
	n.SetDefaultLink(netsim.RTT(10*time.Millisecond, 0))
	auth, err := tee.NewAuthority("test")
	if err != nil {
		t.Fatal(err)
	}
	return &world{
		t:     t,
		sim:   s,
		net:   n,
		chain: chain.New(),
		dir:   NewDirectory(),
		auth:  auth,
	}
}

func (w *world) node(name string, cfg NodeConfig) *Node {
	w.t.Helper()
	cfg.Seed = uint64(len(name))*7919 + uint64(name[0])
	if cfg.Enclave.MinConfirmations == 0 {
		cfg.Enclave.MinConfirmations = 1
	}
	n, err := NewNode(netsim.NodeID(name), w.net, w.chain, w.dir, w.auth, cfg)
	if err != nil {
		w.t.Fatalf("NewNode(%s): %v", name, err)
	}
	return n
}

// connect runs mutual attestation between two nodes to completion.
func (w *world) connect(a, b *Node) {
	w.t.Helper()
	if err := a.Connect(b); err != nil {
		w.t.Fatalf("connect %s->%s: %v", a.ID, b.ID, err)
	}
	w.until(func() bool { return a.Connected(b) && b.Connected(a) })
}

// until runs the simulator until cond holds, failing after a step
// budget.
func (w *world) until(cond func() bool) {
	w.t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if cond() {
			return
		}
		if !w.sim.Step() {
			break
		}
	}
	if !cond() {
		w.t.Fatalf("condition never satisfied (sim drained at %v after %d steps)", w.sim.Now(), w.sim.Steps())
	}
}

// run drains the simulator.
func (w *world) run() { w.sim.Run() }

// openChannel opens a channel and waits until both sides see it open.
func (w *world) openChannel(a, b *Node) wire.ChannelID {
	w.t.Helper()
	id, err := a.OpenChannel(b)
	if err != nil {
		w.t.Fatalf("OpenChannel: %v", err)
	}
	w.until(func() bool {
		ca, okA := a.Enclave().State().Channels[id]
		cb, okB := b.Enclave().State().Channels[id]
		return okA && okB && ca.Open && cb.Open
	})
	return id
}

// fundAndAssociate creates a deposit at node a, gets it approved by b,
// and associates it with the channel.
func (w *world) fundAndAssociate(a, b *Node, id wire.ChannelID, value chain.Amount) chain.OutPoint {
	w.t.Helper()
	point, err := a.CreateDepositInstant(value)
	if err != nil {
		w.t.Fatalf("CreateDepositInstant: %v", err)
	}
	w.until(func() bool {
		rec, ok := a.Enclave().State().Deposits[point]
		return ok && rec.Free
	})
	if err := a.ApproveDeposit(b, point); err != nil {
		w.t.Fatalf("ApproveDeposit: %v", err)
	}
	w.until(func() bool { return a.Enclave().State().ApprovedMine[b.Identity()][point] })
	if err := a.AssociateDeposit(id, point); err != nil {
		w.t.Fatalf("AssociateDeposit: %v", err)
	}
	w.until(func() bool {
		cb, ok := b.Enclave().State().Channels[id]
		return ok && cb.findDep(cb.RemoteDeps, point) >= 0
	})
	return point
}

// pipeline builds a line topology a0 - a1 - ... with one channel per
// adjacent pair, funded by the upstream party with the given value.
func (w *world) pipeline(value chain.Amount, nodes ...*Node) []wire.ChannelID {
	w.t.Helper()
	var ids []wire.ChannelID
	for i := 0; i+1 < len(nodes); i++ {
		w.connect(nodes[i], nodes[i+1])
		id := w.openChannel(nodes[i], nodes[i+1])
		w.fundAndAssociate(nodes[i], nodes[i+1], id, value)
		ids = append(ids, id)
	}
	return ids
}

func channelBal(t *testing.T, n *Node, id wire.ChannelID) (chain.Amount, chain.Amount) {
	t.Helper()
	c, ok := n.Enclave().State().Channels[id]
	if !ok {
		t.Fatalf("node %s has no channel %s", n.ID, id)
	}
	return c.MyBal, c.RemoteBal
}

func TestAttestationEstablishesSessions(t *testing.T) {
	w := newWorld(t)
	a := w.node("alice", NodeConfig{})
	b := w.node("bob", NodeConfig{})
	w.connect(a, b)
	if !a.Enclave().SessionEstablished(b.Identity()) {
		t.Fatal("alice has no session")
	}
	if !b.Enclave().SessionEstablished(a.Identity()) {
		t.Fatal("bob has no session")
	}
}

func TestChannelLifecycleAndPayments(t *testing.T) {
	w := newWorld(t)
	a := w.node("alice", NodeConfig{})
	b := w.node("bob", NodeConfig{})
	w.connect(a, b)
	id := w.openChannel(a, b)
	w.fundAndAssociate(a, b, id, 1000)
	w.fundAndAssociate(b, a, id, 500)

	myA, remA := channelBal(t, a, id)
	if myA != 1000 || remA != 500 {
		t.Fatalf("alice sees %d/%d, want 1000/500", myA, remA)
	}

	var ackLatency time.Duration
	if err := a.Pay(id, 250, func(ok bool, lat time.Duration, reason string) {
		if !ok {
			t.Fatalf("payment failed: %s", reason)
		}
		ackLatency = lat
	}); err != nil {
		t.Fatalf("Pay: %v", err)
	}
	w.until(func() bool { return a.PaymentsAcked == 1 })

	myA, remA = channelBal(t, a, id)
	if myA != 750 || remA != 750 {
		t.Fatalf("after payment alice sees %d/%d, want 750/750", myA, remA)
	}
	myB, remB := channelBal(t, b, id)
	if myB != 750 || remB != 750 {
		t.Fatalf("after payment bob sees %d/%d, want 750/750", myB, remB)
	}
	// One round trip on a 10ms RTT link.
	if ackLatency < 10*time.Millisecond || ackLatency > 15*time.Millisecond {
		t.Fatalf("ack latency %v, want ~10ms", ackLatency)
	}
	if b.PaymentsReceived != 1 {
		t.Fatalf("bob received %d payments, want 1", b.PaymentsReceived)
	}

	// Pay back.
	if err := b.Pay(id, 100, nil); err != nil {
		t.Fatalf("Pay back: %v", err)
	}
	w.until(func() bool { return b.PaymentsAcked == 1 })
	myA, _ = channelBal(t, a, id)
	if myA != 850 {
		t.Fatalf("alice balance %d, want 850", myA)
	}
}

func TestPaymentInsufficientBalanceRejected(t *testing.T) {
	w := newWorld(t)
	a := w.node("alice", NodeConfig{})
	b := w.node("bob", NodeConfig{})
	w.connect(a, b)
	id := w.openChannel(a, b)
	w.fundAndAssociate(a, b, id, 100)
	if err := a.Pay(id, 200, nil); err == nil {
		t.Fatal("overdraft accepted")
	}
}

func TestOnChainSettlement(t *testing.T) {
	w := newWorld(t)
	a := w.node("alice", NodeConfig{})
	b := w.node("bob", NodeConfig{})
	w.connect(a, b)
	id := w.openChannel(a, b)
	w.fundAndAssociate(a, b, id, 1000)
	if err := a.Pay(id, 400, nil); err != nil {
		t.Fatal(err)
	}
	w.until(func() bool { return a.PaymentsAcked == 1 })

	sr, err := a.Settle(id)
	if err != nil {
		t.Fatalf("Settle: %v", err)
	}
	if sr.OffChain {
		t.Fatal("non-neutral channel settled off-chain")
	}
	w.run()
	w.chain.MineBlock()
	if got := w.chain.BalanceByAddress(a.wallet.Address()); got != 600 {
		t.Fatalf("alice on-chain balance %d, want 600", got)
	}
	if got := w.chain.BalanceByAddress(b.wallet.Address()); got != 400 {
		t.Fatalf("bob on-chain balance %d, want 400", got)
	}
	if w.chain.TotalUnspent() != w.chain.Minted() {
		t.Fatal("value not conserved")
	}
}

func TestOffChainSettlementWhenNeutral(t *testing.T) {
	w := newWorld(t)
	a := w.node("alice", NodeConfig{})
	b := w.node("bob", NodeConfig{})
	w.connect(a, b)
	id := w.openChannel(a, b)
	point := w.fundAndAssociate(a, b, id, 1000)

	sr, err := a.Settle(id)
	if err != nil {
		t.Fatalf("Settle: %v", err)
	}
	if !sr.OffChain {
		t.Fatal("neutral channel did not settle off-chain")
	}
	w.run()
	ca := a.Enclave().State().Channels[id]
	cb := b.Enclave().State().Channels[id]
	if !ca.Closed || !cb.Closed {
		t.Fatalf("channel not closed on both sides: %v/%v", ca.Closed, cb.Closed)
	}
	rec := a.Enclave().State().Deposits[point]
	if !rec.Free {
		t.Fatal("deposit not free after off-chain termination")
	}
	// No settlement transaction hit the chain.
	w.chain.MineBlock()
	if got := w.chain.BalanceByAddress(a.wallet.Address()); got != 0 {
		t.Fatal("off-chain settlement placed funds on chain")
	}
	// The deposit can now be released on chain.
	if err := a.ReleaseDeposit(point); err != nil {
		t.Fatalf("ReleaseDeposit: %v", err)
	}
	w.run()
	w.chain.MineBlock()
	if got := w.chain.BalanceByAddress(a.wallet.Address()); got != 1000 {
		t.Fatalf("released deposit balance %d, want 1000", got)
	}
}

func TestDissociateRebalancing(t *testing.T) {
	w := newWorld(t)
	a := w.node("alice", NodeConfig{})
	b := w.node("bob", NodeConfig{})
	w.connect(a, b)
	id := w.openChannel(a, b)
	d1 := w.fundAndAssociate(a, b, id, 1000)
	w.fundAndAssociate(a, b, id, 300)

	// Pay 200: alice's balance is 1100, both deposits locked in.
	if err := a.Pay(id, 200, nil); err != nil {
		t.Fatal(err)
	}
	w.until(func() bool { return a.PaymentsAcked == 1 })

	// Dissociate the big deposit to reduce collateral lock-in (§4.1).
	if err := a.DissociateDeposit(id, d1); err != nil {
		t.Fatalf("DissociateDeposit: %v", err)
	}
	w.until(func() bool {
		rec := a.Enclave().State().Deposits[d1]
		return rec != nil && rec.Free
	})
	my, _ := channelBal(t, a, id)
	if my != 100 {
		t.Fatalf("alice channel balance %d after dissociation, want 100", my)
	}
	// Bob no longer holds the key: his enclave must refuse to settle
	// with the dissociated deposit... and his view agrees.
	cb := b.Enclave().State().Channels[id]
	if cb.findDep(cb.RemoteDeps, d1) >= 0 {
		t.Fatal("bob still lists the dissociated deposit")
	}
	// Dissociating below balance fails: alice's remaining deposit is
	// 300 with balance 100.
	if err := a.Pay(id, 50, nil); err != nil {
		t.Fatal(err)
	}
	w.until(func() bool { return a.PaymentsAcked == 2 })
	// balance 50 now; dissociating the 300 deposit requires balance >= 300.
	point2 := a.Enclave().State().Channels[id].MyDeps[0].Point
	if err := a.DissociateDeposit(id, point2); err == nil {
		w.run()
		rec := a.Enclave().State().Deposits[point2]
		if rec.Free {
			t.Fatal("dissociation below balance succeeded")
		}
	}
}

func TestPerceivedBalanceConservation(t *testing.T) {
	w := newWorld(t)
	a := w.node("alice", NodeConfig{})
	b := w.node("bob", NodeConfig{})
	w.connect(a, b)
	id := w.openChannel(a, b)
	w.fundAndAssociate(a, b, id, 1000)
	w.fundAndAssociate(b, a, id, 500)

	before := a.Enclave().State().PerceivedBalance() + b.Enclave().State().PerceivedBalance()
	for i := 0; i < 10; i++ {
		var err error
		if i%2 == 0 {
			err = a.Pay(id, 37, nil)
		} else {
			err = b.Pay(id, 11, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		w.run()
	}
	after := a.Enclave().State().PerceivedBalance() + b.Enclave().State().PerceivedBalance()
	if before != after {
		t.Fatalf("perceived balance not conserved: %d -> %d", before, after)
	}
}

func identityPath(nodes ...*Node) []cryptoutil.PublicKey {
	path := make([]cryptoutil.PublicKey, len(nodes))
	for i, n := range nodes {
		path[i] = n.Identity()
	}
	return path
}

func TestMultihopPayment(t *testing.T) {
	w := newWorld(t)
	a := w.node("alice", NodeConfig{})
	b := w.node("bob", NodeConfig{})
	c := w.node("carol", NodeConfig{})
	ids := w.pipeline(1000, a, b, c)

	var completed bool
	err := a.PayMultihop([][]cryptoutil.PublicKey{identityPath(a, b, c)}, 200, 1,
		func(ok bool, lat time.Duration, reason string) {
			if !ok {
				t.Fatalf("multihop failed: %s", reason)
			}
			completed = true
		})
	if err != nil {
		t.Fatalf("PayMultihop: %v", err)
	}
	w.run()
	if !completed {
		t.Fatal("multihop never completed")
	}

	myA, _ := channelBal(t, a, ids[0])
	if myA != 800 {
		t.Fatalf("alice balance %d, want 800", myA)
	}
	myB0, _ := channelBal(t, b, ids[0])
	if myB0 != 200 {
		t.Fatalf("bob upstream balance %d, want 200", myB0)
	}
	myB1, _ := channelBal(t, b, ids[1])
	if myB1 != 800 {
		t.Fatalf("bob downstream balance %d, want 800", myB1)
	}
	myC, _ := channelBal(t, c, ids[1])
	if myC != 200 {
		t.Fatalf("carol balance %d, want 200", myC)
	}

	// Channels unlock and remain usable.
	for _, n := range []*Node{a, b, c} {
		for _, ch := range n.Enclave().State().Channels {
			if ch.Stage != MhIdle {
				t.Fatalf("node %s channel %s stuck in stage %v", n.ID, ch.ID, ch.Stage)
			}
		}
	}
	if err := a.Pay(ids[0], 100, nil); err != nil {
		t.Fatalf("channel unusable after multihop: %v", err)
	}
	w.run()
}

// TestMultihopReportsTheCompletingPath: when the primary path cannot
// carry a payment, the retry rotates to the alternate and
// PayMultihopPath names the path the payment completed on, which is
// what Table 3 credits its hops to.
func TestMultihopReportsTheCompletingPath(t *testing.T) {
	w := newWorld(t)
	a := w.node("alice", NodeConfig{MaxRetries: 2})
	b := w.node("bob", NodeConfig{})
	c := w.node("carol", NodeConfig{})
	d := w.node("dave", NodeConfig{})
	e := w.node("erin", NodeConfig{})
	w.pipeline(1000, a, b)
	w.connect(b, c)
	w.openChannel(b, c) // unfunded: bob has nothing to forward
	alt := w.pipeline(1000, a, d, e, c)

	paths := [][]cryptoutil.PublicKey{identityPath(a, b, c), identityPath(a, d, e, c)}
	got := -1
	err := a.PayMultihopPath(paths, 100, 1, func(ok bool, _ time.Duration, reason string, path int) {
		if !ok {
			t.Fatalf("multihop failed: %s", reason)
		}
		got = path
	})
	if err != nil {
		t.Fatal(err)
	}
	w.run()
	if got != 1 {
		t.Fatalf("completed on path %d, want the alternate (1)", got)
	}
	if my, _ := channelBal(t, c, alt[2]); my != 100 {
		t.Fatalf("carol received %d over erin's channel, want 100", my)
	}
}

func TestMultihopLongPath(t *testing.T) {
	w := newWorld(t)
	nodes := make([]*Node, 6)
	for i := range nodes {
		nodes[i] = w.node(fmt.Sprintf("n%d", i), NodeConfig{})
	}
	ids := w.pipeline(1000, nodes...)

	var completed bool
	err := nodes[0].PayMultihop([][]cryptoutil.PublicKey{identityPath(nodes...)}, 50, 1,
		func(ok bool, _ time.Duration, reason string) {
			if !ok {
				t.Fatalf("multihop failed: %s", reason)
			}
			completed = true
		})
	if err != nil {
		t.Fatal(err)
	}
	w.run()
	if !completed {
		t.Fatal("long multihop never completed")
	}
	// Every interior node forwarded exactly 50.
	for i, n := range nodes[:len(nodes)-1] {
		my, _ := channelBal(t, n, ids[i])
		if my != 950 {
			t.Fatalf("node %d downstream balance %d, want 950", i, my)
		}
	}
	last, _ := channelBal(t, nodes[len(nodes)-1], ids[len(ids)-1])
	if last != 50 {
		t.Fatalf("recipient balance %d, want 50", last)
	}
}

func TestMultihopContentionAbortsAndRetries(t *testing.T) {
	w := newWorld(t)
	// Stage pipeline delays make a contended payment take ~1s; give
	// retries enough runway.
	a := w.node("alice", NodeConfig{MaxRetries: 30})
	b := w.node("bob", NodeConfig{MaxRetries: 30})
	c := w.node("carol", NodeConfig{MaxRetries: 30})
	d := w.node("dave", NodeConfig{MaxRetries: 30})
	// a-b-c path and d-b: d locks b's channel to c first.
	ids := w.pipeline(1000, a, b, c)
	_ = ids
	w.connect(d, b)
	idDB := w.openChannel(d, b)
	w.fundAndAssociate(d, b, idDB, 1000)

	// Lock b-c by starting a payment from d and pausing the simulator
	// mid-flight: issue both payments back to back; one will hit the
	// locked channel and retry.
	okCount := 0
	check := func(ok bool, _ time.Duration, reason string) {
		if !ok {
			t.Fatalf("payment failed permanently: %s", reason)
		}
		okCount++
	}
	if err := d.PayMultihop([][]cryptoutil.PublicKey{identityPath(d, b, c)}, 10, 1, check); err != nil {
		t.Fatal(err)
	}
	if err := a.PayMultihop([][]cryptoutil.PublicKey{identityPath(a, b, c)}, 10, 1, check); err != nil {
		t.Fatal(err)
	}
	w.run()
	if okCount != 2 {
		t.Fatalf("completed %d payments, want 2", okCount)
	}
}

// TestMultihopContentionAbortIsTransient re-runs the contention
// scenario and inspects the failure events themselves: every abort a
// busy hop sends back (locked channel, stale τ) must arrive at the
// initiator marked Transient, the signal hosts and the client SDK use
// to distinguish retry-worthy rejections from permanent ones.
func TestMultihopContentionAbortIsTransient(t *testing.T) {
	w := newWorld(t)
	a := w.node("alice", NodeConfig{MaxRetries: 30})
	b := w.node("bob", NodeConfig{MaxRetries: 30})
	c := w.node("carol", NodeConfig{MaxRetries: 30})
	d := w.node("dave", NodeConfig{MaxRetries: 30})
	w.pipeline(1000, a, b, c)
	w.connect(d, b)
	idDB := w.openChannel(d, b)
	w.fundAndAssociate(d, b, idDB, 1000)

	var aborts, transient int
	rec := func(ev Event) {
		if e, ok := ev.(EvMultihopComplete); ok && !e.OK {
			aborts++
			if e.Transient {
				transient++
			}
		}
	}
	a.OnEvent(rec)
	d.OnEvent(rec)

	okCount := 0
	check := func(ok bool, _ time.Duration, reason string) {
		if !ok {
			t.Fatalf("payment failed permanently: %s", reason)
		}
		okCount++
	}
	if err := d.PayMultihop([][]cryptoutil.PublicKey{identityPath(d, b, c)}, 10, 1, check); err != nil {
		t.Fatal(err)
	}
	if err := a.PayMultihop([][]cryptoutil.PublicKey{identityPath(a, b, c)}, 10, 1, check); err != nil {
		t.Fatal(err)
	}
	w.run()
	if okCount != 2 {
		t.Fatalf("completed %d payments, want 2", okCount)
	}
	if aborts == 0 {
		t.Fatal("no contention abort observed — scenario lost its race")
	}
	if transient != aborts {
		t.Fatalf("%d of %d contention aborts marked transient, want all", transient, aborts)
	}
}
