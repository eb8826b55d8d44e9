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

// TestOutsourcedClientVerifiesResults: the client acts only on an
// OutsourceResult whose bound token its session verifies. A result from
// another sender, one under a forged token, one carrying a token sealed
// over other bytes, and a replay of a genuine one complete no pending
// payment and are counted; the enclave's own result still completes it.
func TestOutsourcedClientVerifiesResults(t *testing.T) {
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

	// frame builds an OutsourceResult envelope from sender, sealed
	// through sess when one is given, the way Node.send does.
	sess := remote.Enclave().establishedSession(dave.Identity())
	frame := func(from cryptoutil.PublicKey, sess *peerSession, seq uint64, ok bool) *Envelope {
		env := &Envelope{From: from, Msg: &wire.OutsourceResult{Seq: seq, OK: ok}}
		var s *cryptoutil.Session
		if sess != nil {
			s = sess.transport
		}
		if _, err := env.seal(s); err != nil {
			t.Fatal(err)
		}
		return env
	}
	// A genuine result for a payment not yet issued spends its token.
	early := frame(remote.Identity(), sess, 1, true)
	dave.handleNetMessage(remote.ID, early)

	var results []bool
	if err := dave.Pay(id, 100, 1, func(ok bool, _ time.Duration, _ string) { results = append(results, ok) }); err != nil {
		t.Fatal(err)
	}
	forged := frame(remote.Identity(), nil, 1, true)
	forged.Token = []byte("forged token")
	rebound := frame(remote.Identity(), nil, 1, true)
	rebound.Token = frame(remote.Identity(), sess, 7, false).Token
	for _, tc := range []struct {
		name string
		env  *Envelope
	}{
		{"other sender", frame(bob.Identity(), bob.Enclave().establishedSession(remote.Identity()), 1, true)},
		{"forged", forged},
		{"re-bound", rebound},
		{"replayed", early},
	} {
		before := dave.Rejected
		dave.handleNetMessage(remote.ID, tc.env)
		if len(results) != 0 {
			t.Fatalf("%s result completed the pending payment", tc.name)
		}
		if dave.Rejected != before+1 {
			t.Fatalf("%s result not counted as rejected", tc.name)
		}
	}

	w.run()
	if len(results) != 1 || !results[0] {
		t.Fatalf("the enclave's own result gave %v, want one success", results)
	}
	if myB, _ := channelBal(t, bob, id); myB != 100 {
		t.Fatalf("bob balance %d, want 100", myB)
	}
}

// FuzzDecodeOutCmd: decodeOutCmd reads an untrusted client's command
// inside the enclave, so it must never panic, and whatever it accepts
// must survive re-encoding unchanged.
func FuzzDecodeOutCmd(f *testing.F) {
	for _, c := range []OutCmd{{}, {Op: "pay", Channel: "ch-1", Amount: 100, Count: 1}, {Op: "settle", Amount: -1, Count: 1 << 30}} {
		raw, err := encodeOutCmd(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeOutCmd(data)
		if err != nil {
			return
		}
		raw, err := encodeOutCmd(c)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", c, err)
		}
		if again, err := decodeOutCmd(raw); err != nil || again != c {
			t.Fatalf("round trip %+v -> %+v, %v", c, again, err)
		}
	})
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
