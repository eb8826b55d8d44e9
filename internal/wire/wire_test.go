package wire

import (
	"reflect"
	"testing"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
)

func sampleTx(t *testing.T) *chain.Transaction {
	t.Helper()
	kp, err := cryptoutil.GenerateKeyPair(cryptoutil.NewDeterministicReader([]byte("wire")))
	if err != nil {
		t.Fatal(err)
	}
	return &chain.Transaction{
		Inputs:  []chain.TxIn{{Prev: chain.OutPoint{Tx: chain.TxID{1}, Index: 0}}},
		Outputs: []chain.TxOut{{Value: 10, Script: chain.PayToKey(kp.Public())}},
	}
}

func allMessages(t *testing.T) []Message {
	tx := sampleTx(t)
	var key cryptoutil.PublicKey
	key[0] = 4
	return []Message{
		&Attest{Identity: key, DHPublic: make([]byte, 65)},
		&ChannelOpen{Channel: "c1"},
		&ChannelAck{Channel: "c1"},
		&ApproveDeposit{Deposit: DepositInfo{Value: 5, Script: chain.PayToKey(key)}},
		&ApprovedDeposit{},
		&AssociateDeposit{Channel: "c1", Deposit: DepositInfo{Value: 5, Script: chain.PayToKey(key)}, EncPrivShare: make([]byte, 48)},
		&DissociateDeposit{Channel: "c1"},
		&DissociateAck{Channel: "c1"},
		&Pay{Channel: "c1", Amount: 7, Count: 1},
		&PayAck{Channel: "c1", Amount: 7, Count: 1},
		&SettleRequest{Channel: "c1"},
		&SettleNotify{Channel: "c1", Tx: tx},
		&MhLock{Payment: "p1", Amount: 3, Path: []PathHop{{Identity: key}}, Tau: tx},
		&MhSign{Payment: "p1", Tau: tx},
		&MhPreUpdate{Payment: "p1", Tau: tx},
		&MhUpdate{Payment: "p1"},
		&MhPostUpdate{Payment: "p1"},
		&MhRelease{Payment: "p1"},
		&MhAbort{Payment: "p1", Reason: "locked", Transient: true},
		&ReplAttach{Chain: "r1", Snapshot: make([]byte, 128)},
		&ReplAttachAck{Chain: "r1", BtcKey: key},
		&ReplUpdate{Chain: "r1", Seq: 3},
		&ReplAck{Chain: "r1", Seq: 3, TauSigs: []TauSig{{Input: 0, Slot: 1}}},
		&ReplFreeze{Chain: "r1", Reason: "read at backup"},
		&SigRequest{Chain: "r1", Tx: tx},
		&SigResponse{Chain: "r1", Slot: 1},
		&OutsourceCmd{Seq: 1, Payload: make([]byte, 32)},
		&OutsourceResult{Seq: 1, OK: true},
		&PayNack{Channel: "c1", Amount: 7, Count: 1, Reason: "locked"},
		&PayBatch{Channel: "c1", Amounts: []chain.Amount{1, 2, 3}},
		&PayBatchAck{Channel: "c1", Total: 6, Count: 3},
		&ReplBatch{Chain: "r1", FirstSeq: 4, Ops: []ReplBatchOp{{Kind: ReplOpPaySend, Channel: "c1", Amount: 1, Count: 1}}},
		&ReplBatchAck{Chain: "r1", Seq: 4},
		&ReplNack{Chain: "r1", WantSeq: 4, HaveThrough: 3},
		&ChanResume{Channel: "c1", RecvAmt: 5, RecvCnt: 2},
		&ChanResumeAck{Channel: "c1", RecvAmt: 5, RecvCnt: 2},
		&ReplResync{Chain: "r1", Snapshot: make([]byte, 64), Seq: 9},
		&ReplResyncAck{Chain: "r1", Seq: 9},
	}
}

// TestEnclaveMessagesEncode: every enclave-protocol message in the
// registry has a sample here, and every sample — and every zero-valued
// message — encodes into a frame that decodes back to the same type.
// The simulator charges each message its encoded frame length, so an
// enclave message that cannot encode cannot reach its network either.
// The host-level frames never cross the simulated network.
func TestEnclaveMessagesEncode(t *testing.T) {
	hostFrames := map[reflect.Type]bool{
		reflect.TypeOf(Hello{}):         true,
		reflect.TypeOf(ChanAnnounce{}):  true,
		reflect.TypeOf(GossipSummary{}): true,
	}
	sampled := make(map[reflect.Type]bool)
	msgs := allMessages(t)
	for _, m := range msgs {
		sampled[reflect.TypeOf(m).Elem()] = true
	}
	var from cryptoutil.PublicKey
	for code := 1; code < len(typeByCode); code++ {
		typ := typeByCode[code]
		if typ == nil || hostFrames[typ] {
			continue
		}
		if !sampled[typ] {
			t.Errorf("enclave message %v (code %d) has no sample", typ, code)
		}
		zero, err := NewByCode(byte(code))
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, zero)
	}
	for _, m := range msgs {
		frame, err := AppendFrame(nil, from, []byte("token"), m)
		if err != nil {
			t.Errorf("%T does not encode: %v", m, err)
			continue
		}
		f, err := DecodeFrame(frame[4:])
		if err != nil {
			t.Errorf("%T frame does not decode: %v", m, err)
			continue
		}
		if reflect.TypeOf(f.Msg) != reflect.TypeOf(m) {
			t.Errorf("%T decoded as %T", m, f.Msg)
		}
		if n, _ := FrameLen(len(f.Token), len(f.Payload)); n != len(frame) {
			t.Errorf("%T: FrameLen %d, frame %d bytes", m, n, len(frame))
		}
	}
}

func TestTauSizeTracksDeposits(t *testing.T) {
	size := func(m BinaryMessage) int {
		b, err := m.AppendPayload(nil)
		if err != nil {
			t.Fatal(err)
		}
		return len(b)
	}
	tx := sampleTx(t)
	one := &MhPreUpdate{Tau: tx}
	tx2 := sampleTx(t)
	tx2.Inputs = append(tx2.Inputs, tx2.Inputs[0], tx2.Inputs[0])
	three := &MhPreUpdate{Tau: tx2}
	if size(three) <= size(one) {
		t.Fatal("τ with more inputs not larger on the wire")
	}
	if size(&MhUpdate{}) >= size(one) {
		t.Fatal("τ-free message not smaller")
	}
}
