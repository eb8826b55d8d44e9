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
		&ReplAttach{Chain: "r1", Snapshot: make([]byte, 128)},
		&ReplUpdate{Chain: "r1", Seq: 3},
		&ReplAck{Chain: "r1", Seq: 3, TauSigs: []TauSig{{Input: 0, Slot: 1}}},
		&ReplFreeze{Chain: "r1", Reason: "read at backup"},
		&SigRequest{Chain: "r1", Tx: tx},
		&SigResponse{Chain: "r1", Slot: 1},
		&OutsourceCmd{Seq: 1, Payload: make([]byte, 32)},
		&OutsourceResult{Seq: 1, OK: true},
	}
}

type sized interface{ WireSize() int }

// TestWireSizesPositive: every enclave-protocol message in the registry
// has a positive size, zero-valued and as sampled, so a new enclave
// message cannot reach the simulated network (core.Envelope.WireSize)
// unsized. The host-level frames never cross it and carry none.
func TestWireSizesPositive(t *testing.T) {
	hostFrames := map[reflect.Type]bool{
		reflect.TypeOf(Hello{}):         true,
		reflect.TypeOf(ChanAnnounce{}):  true,
		reflect.TypeOf(GossipSummary{}): true,
	}
	for code := 1; code < len(typeByCode); code++ {
		if typeByCode[code] == nil {
			continue
		}
		m, err := NewByCode(byte(code))
		if err != nil {
			t.Fatal(err)
		}
		s, ok := m.(sized)
		switch {
		case hostFrames[typeByCode[code]]:
			if ok {
				t.Errorf("host-level frame %T has a wire size", m)
			}
		case !ok:
			t.Errorf("enclave message %T (code %d) has no wire size", m, code)
		case s.WireSize() <= 0:
			t.Errorf("%T has non-positive wire size %d", m, s.WireSize())
		}
	}
	for _, m := range allMessages(t) {
		if n := m.(sized).WireSize(); n <= 0 {
			t.Errorf("%T has non-positive wire size %d", m, n)
		}
	}
}

func TestSizeGrowsWithPayload(t *testing.T) {
	small := &ReplAttach{Snapshot: make([]byte, 10)}
	large := &ReplAttach{Snapshot: make([]byte, 1000)}
	if large.WireSize()-small.WireSize() != 990 {
		t.Fatalf("snapshot size not reflected: %d vs %d", small.WireSize(), large.WireSize())
	}
	shortPath := &MhLock{Path: make([]PathHop, 2)}
	longPath := &MhLock{Path: make([]PathHop, 12)}
	if longPath.WireSize() <= shortPath.WireSize() {
		t.Fatal("path length not reflected in size")
	}
	withFees := &MhLock{Path: make([]PathHop, 3), Fees: []chain.Amount{0, 7, 0}}
	if withFees.WireSize() <= (&MhLock{Path: make([]PathHop, 3)}).WireSize() {
		t.Fatal("fee schedule not reflected in size")
	}
}

func TestTauSizeTracksDeposits(t *testing.T) {
	tx := sampleTx(t)
	one := &MhPreUpdate{Tau: tx}
	tx2 := sampleTx(t)
	tx2.Inputs = append(tx2.Inputs, tx2.Inputs[0], tx2.Inputs[0])
	three := &MhPreUpdate{Tau: tx2}
	if three.WireSize() <= one.WireSize() {
		t.Fatal("τ with more inputs not larger on the wire")
	}
	none := &MhUpdate{}
	if none.WireSize() >= one.WireSize() {
		t.Fatal("τ-free message not smaller")
	}
}
