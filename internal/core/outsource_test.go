package core

import (
	"testing"
	"time"

	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

func TestOutsourcedClientPaysViaRemoteEnclave(t *testing.T) {
	w := newWorld(t)
	remote := w.node("remote-tee", NodeConfig{Enclave: Config{AllowOutsource: true, MinConfirmations: 1}})
	bob := w.node("bob", NodeConfig{})
	w.connect(remote, bob)
	id := w.openChannel(remote, bob)
	w.fundAndAssociate(remote, bob, id, 1000)

	client, err := NewClient("dave", w.net, w.dir, w.auth)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Attach(remote); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	w.until(client.Attached)

	var latency time.Duration
	okCh := false
	if err := client.Pay(id, 100, 1, func(ok bool, lat time.Duration, _ string) {
		okCh = ok
		latency = lat
	}); err != nil {
		t.Fatalf("client Pay: %v", err)
	}
	w.run()
	if !okCh {
		t.Fatal("outsourced payment not acknowledged")
	}
	// Client -> remote (one way) + channel round trip + remote ->
	// client: 2 RTT total on equal links.
	if latency < 20*time.Millisecond {
		t.Fatalf("outsourced latency %v implausibly low", latency)
	}
	myB, _ := channelBal(t, bob, id)
	if myB != 100 {
		t.Fatalf("bob balance %d, want 100", myB)
	}
}

func TestOutsourceRejectsSecondUserAndForeignCommands(t *testing.T) {
	w := newWorld(t)
	remote := w.node("remote-tee", NodeConfig{Enclave: Config{AllowOutsource: true, MinConfirmations: 1}})
	bob := w.node("bob", NodeConfig{})
	w.connect(remote, bob)
	id := w.openChannel(remote, bob)
	w.fundAndAssociate(remote, bob, id, 1000)

	dave, err := NewClient("dave", w.net, w.dir, w.auth)
	if err != nil {
		t.Fatal(err)
	}
	if err := dave.Attach(remote); err != nil {
		t.Fatal(err)
	}
	w.until(dave.Attached)

	eve, err := NewClient("eve", w.net, w.dir, w.auth)
	if err != nil {
		t.Fatal(err)
	}
	if err := eve.Attach(remote); err != nil {
		t.Fatal(err)
	}
	w.run()
	if eve.Attached() {
		t.Fatal("second outsourced user attached")
	}

	// Eve forges a command claiming dave's identity but cannot produce
	// a valid token or sealed payload.
	env := &Envelope{From: dave.Identity(), Msg: &wire.OutsourceCmd{Seq: 99, Payload: []byte("junk")}}
	size, err := env.seal(nil)
	if err != nil {
		t.Fatal(err)
	}
	env.Token = []byte("junk")
	if err := w.net.Send(eve.ID, remote.ID, env, size); err != nil {
		t.Fatal(err)
	}
	w.run()
	myB, _ := channelBal(t, bob, id)
	if myB != 0 {
		t.Fatal("forged outsourced command moved funds")
	}
}

func TestOutsourceDisabledByPolicy(t *testing.T) {
	w := newWorld(t)
	remote := w.node("remote-tee", NodeConfig{}) // outsourcing off
	dave, err := NewClient("dave", w.net, w.dir, w.auth)
	if err != nil {
		t.Fatal(err)
	}
	if err := dave.Attach(remote); err != nil {
		t.Fatal(err)
	}
	w.run()
	if dave.Attached() {
		t.Fatal("attached to an enclave with outsourcing disabled")
	}
}

func TestTempChannelsAbsorbConcurrentPayments(t *testing.T) {
	w := newWorld(t)
	a := w.node("alice", NodeConfig{})
	b := w.node("bob", NodeConfig{})
	c := w.node("carol", NodeConfig{})
	w.pipeline(1000, a, b, c)

	// Add 2 temporary channels on each hop.
	for _, hop := range [][2]*Node{{a, b}, {b, c}} {
		if _, err := hop[0].CreateTempChannels(hop[1], 2, 500); err != nil {
			t.Fatalf("CreateTempChannels: %v", err)
		}
		w.run()
		if err := hop[0].FinishTempChannels(); err != nil {
			t.Fatalf("FinishTempChannels: %v", err)
		}
		w.run()
		if err := hop[0].AssociateTempDeposits(); err != nil {
			t.Fatalf("AssociateTempDeposits: %v", err)
		}
		w.run()
	}

	// Three concurrent payments a->c: with only primary channels two
	// would abort on locks; with G=2 temp channels all can proceed.
	okCount := 0
	for i := 0; i < 3; i++ {
		if err := a.PayMultihop([][]cryptoutil.PublicKey{identityPath(a, b, c)}, 10, 1,
			func(ok bool, _ time.Duration, reason string) {
				if ok {
					okCount++
				}
			}); err != nil {
			t.Fatal(err)
		}
	}
	w.run()
	if okCount != 3 {
		t.Fatalf("%d/3 concurrent payments succeeded with temp channels", okCount)
	}
}

func TestMergeTempChannelOffChain(t *testing.T) {
	w := newWorld(t)
	a := w.node("alice", NodeConfig{})
	b := w.node("bob", NodeConfig{})
	w.connect(a, b)
	primary := w.openChannel(a, b)
	w.fundAndAssociate(a, b, primary, 1000)
	w.fundAndAssociate(b, a, primary, 1000)

	temps, err := a.CreateTempChannels(b, 1, 500)
	if err != nil {
		t.Fatal(err)
	}
	w.run()
	if err := a.FinishTempChannels(); err != nil {
		t.Fatal(err)
	}
	w.run()
	if err := a.AssociateTempDeposits(); err != nil {
		t.Fatal(err)
	}
	w.run()

	// Imbalance the temp channel.
	if err := a.Pay(temps[0], 120, nil); err != nil {
		t.Fatal(err)
	}
	w.run()

	if err := a.MergeTempChannel(b, temps[0], primary); err != nil {
		t.Fatalf("MergeTempChannel: %v", err)
	}
	w.run()
	if err := a.CompleteMerges(); err != nil {
		t.Fatalf("CompleteMerges: %v", err)
	}
	w.run()

	ct := a.Enclave().State().Channels[temps[0]]
	if !ct.Closed {
		t.Fatal("temp channel not closed")
	}
	// The imbalance moved to the primary channel: alice paid 120 net.
	my, _ := channelBal(t, a, primary)
	if my != 1000-120 {
		t.Fatalf("alice primary balance %d, want 880", my)
	}
	// Nothing hit the chain.
	w.chain.MineBlock()
	if w.chain.BalanceByAddress(a.wallet.Address()) != 0 || w.chain.BalanceByAddress(b.wallet.Address()) != 0 {
		t.Fatal("temp channel merge touched the blockchain")
	}
}
