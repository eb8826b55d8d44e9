package core

import (
	"fmt"
	"strings"
	"testing"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/netsim"
	"teechain/internal/wire"
)

// TestSimulatorChargesSocketFrameLength: the simulated network is
// charged exactly the length of the frame the socket host would write
// for the same message and bound token — a binary payment frame, a
// one-op replication batch, a multi-hop lock carrying τ, and a gob
// frame — and the receiver verifies the token against that frame.
func TestSimulatorChargesSocketFrameLength(t *testing.T) {
	w := newWorld(t)
	a := w.node("alice", NodeConfig{})
	b := w.node("bob", NodeConfig{})
	w.connect(a, b)
	id := w.openChannel(a, b)
	w.fundAndAssociate(a, b, id, 1000)

	var frameLen int
	w.net.SetHandler(b.ID, func(from netsim.NodeID, payload any) {
		env := payload.(*Envelope)
		_, _, flags, err := wire.EncodePayload(nil, env.Msg)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := wire.AppendFrameRaw(nil, env.From, env.Token, env.Code, flags, env.Payload)
		if err != nil {
			t.Fatal(err)
		}
		frameLen = len(frame)
		b.handleNetMessage(from, payload)
	}, nil)

	var key cryptoutil.PublicKey
	key[0] = 4
	tau := &chain.Transaction{
		Inputs:  []chain.TxIn{{Prev: chain.OutPoint{Tx: chain.TxID{1}}, Sigs: make([]cryptoutil.Signature, 1)}},
		Outputs: []chain.TxOut{{Value: 10, Script: chain.PayToKey(key)}},
	}
	for _, msg := range []wire.Message{
		&wire.Pay{Channel: id, Amount: 1, Count: 1},
		&wire.ReplBatch{Chain: a.Enclave().ChainID(), FirstSeq: 1, Ops: []wire.ReplBatchOp{
			{Kind: wire.ReplOpPaySend, Channel: id, Amount: 1, Count: 1},
		}},
		&wire.MhLock{Payment: "mh-probe", Amount: 1, Count: 1, Channel: id, Tau: tau,
			Path: []wire.PathHop{{Identity: a.Identity()}, {Identity: b.Identity()}}},
		&wire.ReplAck{Chain: a.Enclave().ChainID(), Seq: 1},
	} {
		name := fmt.Sprintf("%T", msg)
		_, before := w.net.LinkStats(a.ID, b.ID)
		if !a.send(Outbound{To: b.Identity(), Msg: msg}) {
			t.Fatalf("%s never left", name)
		}
		_, after := w.net.LinkStats(a.ID, b.ID)
		frameLen = 0
		w.run()
		if charged := int(after - before); charged == 0 || charged != frameLen {
			t.Fatalf("%s: network charged %d bytes, socket frame is %d", name, charged, frameLen)
		}
	}
	if got := b.Enclave().State().Channels[id].MyBal; got != 1 {
		t.Fatalf("bob holds %d after the probe payment, want 1: the bound token did not verify", got)
	}
}

// TestUnencodableMessageIsDropped: a message the socket host could not
// frame — here a channel id too long for its one-byte length prefix —
// never reaches the simulated network either. The drop is counted and
// logged, as the socket host's are.
func TestUnencodableMessageIsDropped(t *testing.T) {
	w := newWorld(t)
	a := w.node("alice", NodeConfig{})
	b := w.node("bob", NodeConfig{})
	w.connect(a, b)

	var logged []string
	defer func(prev func(netsim.NodeID, string, ...any)) { Logf = prev }(Logf)
	Logf = func(_ netsim.NodeID, format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	sent := w.net.Sent()
	msg := &wire.Pay{Channel: wire.ChannelID(strings.Repeat("x", 300)), Amount: 1, Count: 1}
	if a.send(Outbound{To: b.Identity(), Msg: msg}) {
		t.Fatal("an unencodable payment left the host")
	}
	if a.Dropped != 1 || w.net.Sent() != sent {
		t.Fatalf("dropped %d, network took %d frames; want 1 dropped, none taken", a.Dropped, w.net.Sent()-sent)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "*wire.Pay") {
		t.Fatalf("drop logged as %q, want one line naming the message", logged)
	}
}
