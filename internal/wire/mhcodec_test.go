package wire

import (
	"bytes"
	"reflect"
	"testing"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
)

func mhSig(seed byte) cryptoutil.Signature {
	var s cryptoutil.Signature
	for i := range s {
		s[i] = seed + byte(i)
	}
	return s
}

func mhPath(n int) []PathHop {
	if n == 0 {
		return nil
	}
	p := make([]PathHop, n)
	for i := range p {
		p[i].Identity = gossipKey(byte(i + 1))
	}
	return p
}

// mhTau is a τ over channels payment channels: per channel one input
// (unsigned, half signed or fully signed 2-of-2, by signed) and two
// outputs.
func mhTau(channels int, signed int) *chain.Transaction {
	tx := &chain.Transaction{LockHeight: 9}
	for c := 0; c < channels; c++ {
		in := chain.TxIn{Prev: chain.OutPoint{Tx: chain.TxID{byte(c + 1), 0xaa}, Index: uint32(c)}, MinAge: uint64(c)}
		switch signed {
		case 1:
			in.Sigs = []cryptoutil.Signature{mhSig(byte(c)), {}}
		case 2:
			in.Sigs = []cryptoutil.Signature{mhSig(byte(c)), mhSig(byte(c + 100))}
		}
		tx.Inputs = append(tx.Inputs, in)
		tx.Outputs = append(tx.Outputs,
			chain.TxOut{Value: chain.Amount(100 + c), Script: chain.PayToKey(gossipKey(byte(c + 1)))},
			chain.TxOut{Value: chain.Amount(900 - c), Script: chain.Multisig(2, gossipKey(byte(c+2)), gossipKey(byte(c+3)), gossipKey(byte(c+4)))},
		)
	}
	return tx
}

// mhSamples covers all eight multi-hop messages: nil τ, unsigned, half
// and fully signed inputs, empty and 16-hop paths, empty fees, an empty
// transaction, and empty strings.
func mhSamples() map[string]BinaryMessage {
	fees16 := make([]chain.Amount, 16)
	for i := 1; i < 15; i++ {
		fees16[i] = chain.Amount(i * 3)
	}
	return map[string]BinaryMessage{
		"lock/zero":       &MhLock{},
		"lock/nil-tau":    &MhLock{Payment: "mh-a-1", Amount: 5, Count: 1, Path: mhPath(3), Channel: "ch-up"},
		"lock/fee-free":   &MhLock{Payment: "mh-a-2", Amount: 5, Count: 2, Path: mhPath(4), Channel: "ch-up", Tau: mhTau(3, 0)},
		"lock/16-hops":    &MhLock{Payment: "mh-a-3", Amount: 1 << 40, Count: 1, Path: mhPath(16), Channel: "c", Tau: mhTau(15, 0), Fees: fees16},
		"lock/empty-path": &MhLock{Payment: "mh-a-4", Amount: 1, Count: 1, Channel: "c", Tau: &chain.Transaction{}, Fees: []chain.Amount{0, 7, 0}},
		"lock/negative":   &MhLock{Payment: "mh-a-5", Amount: -1, Count: -1, Fees: []chain.Amount{-4}},
		"sign/nil-tau":    &MhSign{Payment: "mh-a-1"},
		"sign/half":       &MhSign{Payment: "mh-a-1", Tau: mhTau(3, 1)},
		"sign/full":       &MhSign{Payment: "mh-a-1", Tau: mhTau(3, 2)},
		"preupdate/nil":   &MhPreUpdate{},
		"preupdate/full":  &MhPreUpdate{Payment: "mh-a-1", Tau: mhTau(2, 2)},
		"update":          &MhUpdate{Payment: "mh-a-1"},
		"update/empty":    &MhUpdate{},
		"postupdate":      &MhPostUpdate{Payment: "mh-a-1"},
		"release":         &MhRelease{Payment: "mh-a-1"},
		"abort/transient": &MhAbort{Payment: "mh-a-1", Reason: "upstream channel locked", Transient: true},
		"abort/hard":      &MhAbort{Payment: "mh-a-1", Reason: "unknown upstream channel"},
		"abort/no-reason": &MhAbort{Payment: "mh-a-1"},
		"abort/long":      &MhAbort{Payment: PaymentID(bytes.Repeat([]byte("p"), 300)), Reason: string(bytes.Repeat([]byte("r"), 300))},
	}
}

func newLike(m BinaryMessage) BinaryMessage {
	return reflect.New(reflect.TypeOf(m).Elem()).Interface().(BinaryMessage)
}

// TestMhCodecRoundTrip: every sample survives AppendPayload →
// DecodePayload, alone and inside a frame, into a fresh receiver and
// into a previously used one.
func TestMhCodecRoundTrip(t *testing.T) {
	for name, m := range mhSamples() {
		payload, err := m.AppendPayload(nil)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got := newLike(m)
		if err := got.DecodePayload(payload); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%s: round trip\n got %+v\nwant %+v", name, got, m)
		}
		// A used receiver is overwritten, not merged into.
		used := newLike(m)
		fillValue(reflect.ValueOf(used).Elem())
		if err := used.DecodePayload(payload); err != nil || !reflect.DeepEqual(used, m) {
			t.Fatalf("%s: decode into a used receiver: %v\n got %+v\nwant %+v", name, err, used, m)
		}
		frame, err := AppendFrame(nil, gossipKey(1), []byte("tok"), m)
		if err != nil {
			t.Fatalf("%s: frame: %v", name, err)
		}
		if frame[4+2]&FlagBinaryPayload == 0 {
			t.Fatalf("%s: frame is not binary-encoded", name)
		}
		f, err := DecodeFrame(frame[4:])
		if err != nil || !reflect.DeepEqual(f.Msg, m) {
			t.Fatalf("%s: frame round trip: %v\n got %+v\nwant %+v", name, err, f.Msg, m)
		}
	}
	withFees := &MhLock{Path: mhPath(3), Fees: []chain.Amount{0, 7, 0}}
	if withFees.WireSize() <= (&MhLock{Path: mhPath(3)}).WireSize() {
		t.Fatal("MhLock.WireSize must grow with Fees")
	}
}

// TestMhCodecRejectsMalformed: every strict prefix of every encoding,
// and every encoding with a byte appended, is an error — never a panic,
// never a silently shorter message.
func TestMhCodecRejectsMalformed(t *testing.T) {
	for name, m := range mhSamples() {
		payload, err := m.AppendPayload(nil)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(payload); n++ {
			if err := newLike(m).DecodePayload(payload[:n]); err == nil {
				t.Fatalf("%s: accepted %d of %d bytes", name, n, len(payload))
			}
		}
		if err := newLike(m).DecodePayload(append(payload, 0)); err == nil {
			t.Fatalf("%s: accepted a trailing byte", name)
		}
	}
	// Counts are checked against the bytes that remain before anything
	// is allocated for them.
	lock, _ := (&MhLock{Payment: "p", Channel: "c"}).AppendPayload(nil)
	hostile := append([]byte(nil), lock...)
	nPath := 2 + 1 + 8 + 4 + 2 // payment, amount, count, channel
	hostile[nPath], hostile[nPath+1] = 0xff, 0xff
	if err := new(MhLock).DecodePayload(hostile); err == nil {
		t.Fatal("accepted a path count the payload cannot hold")
	}
	sign, _ := (&MhSign{Payment: "p", Tau: &chain.Transaction{}}).AppendPayload(nil)
	for _, off := range []int{3 + 1 + 8, 3 + 1 + 8 + 2} { // nIn, nOut
		hostile = append([]byte(nil), sign...)
		hostile[off], hostile[off+1] = 0xff, 0xff
		if err := new(MhSign).DecodePayload(hostile); err == nil {
			t.Fatalf("accepted a transaction count at %d the payload cannot hold", off)
		}
	}
	for _, flag := range []byte{2, 0xff} {
		abort, _ := (&MhAbort{Payment: "p"}).AppendPayload(nil)
		abort[3] = flag
		if err := new(MhAbort).DecodePayload(abort); err == nil {
			t.Fatalf("accepted flag byte %d", flag)
		}
	}
	if _, err := (&MhUpdate{Payment: PaymentID(make([]byte, 1<<16))}).AppendPayload(nil); err == nil {
		t.Fatal("encoded a payment id longer than its length prefix")
	}
}

// TestMhCodecDecodeDoesNotAlias: the enclave keeps a lock's Path, Fees
// and τ long after the read loop moved on, and FrameReader decodes the
// next frame of the same code into the same message struct — so what a
// decode returned must not change when the next one runs.
func TestMhCodecDecodeDoesNotAlias(t *testing.T) {
	pairs := [][2]Message{
		{
			&MhLock{Payment: "mh-1", Amount: 5, Count: 1, Path: mhPath(4), Channel: "c1", Tau: mhTau(3, 1), Fees: []chain.Amount{0, 1, 2, 0}},
			&MhLock{Payment: "mh-2", Amount: 6, Count: 1, Path: mhPath(3), Channel: "c2", Tau: mhTau(2, 2), Fees: []chain.Amount{0, 9, 0}},
		},
		{&MhSign{Payment: "mh-1", Tau: mhTau(3, 1)}, &MhSign{Payment: "mh-2", Tau: mhTau(3, 2)}},
		{&MhPreUpdate{Payment: "mh-1", Tau: mhTau(3, 2)}, &MhPreUpdate{Payment: "mh-2", Tau: mhTau(1, 2)}},
	}
	for _, pair := range pairs {
		var stream []byte
		for _, m := range pair {
			var err error
			if stream, err = AppendFrame(stream, gossipKey(1), []byte("tok"), m); err != nil {
				t.Fatal(err)
			}
		}
		fr := NewFrameReader(bytes.NewReader(stream))
		f, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		// What a handler keeps: the fields, not the reused struct.
		kept := reflect.New(reflect.TypeOf(f.Msg).Elem())
		kept.Elem().Set(reflect.ValueOf(f.Msg).Elem())
		f2, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f2.Msg != f.Msg {
			t.Fatalf("%T: FrameReader did not reuse the message; the test proves nothing", f.Msg)
		}
		if !reflect.DeepEqual(f2.Msg, pair[1]) {
			t.Fatalf("%T: second decode: got %+v", pair[1], f2.Msg)
		}
		if !reflect.DeepEqual(kept.Interface(), pair[0]) {
			t.Fatalf("%T: first decode changed under the second:\n got %+v\nwant %+v", pair[0], kept.Interface(), pair[0])
		}
	}
}

// FuzzDecodeFrame feeds arbitrary frame bodies, seeded with one valid
// frame of every registered message type (and a multi-edge gossip
// frame, as a busy host flushes them), to the decoder behind every
// socket: it must return a message or an error, never panic, and a
// binary message it accepts must re-encode to a payload that decodes
// to the same message.
func FuzzDecodeFrame(f *testing.F) {
	for _, proto := range registry {
		if proto == nil {
			continue
		}
		msg := reflect.New(reflect.TypeOf(proto).Elem())
		fillValue(msg.Elem())
		frame, err := AppendFrame(nil, testIdentity(), []byte("tok"), msg.Interface().(Message))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	seeds := []Message{&ChanAnnounce{Edges: sampleEdges(4)}}
	for _, m := range mhSamples() {
		seeds = append(seeds, m)
	}
	for _, m := range seeds {
		frame, err := AppendFrame(nil, testIdentity(), nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	// Code 21 is reserved for the deleted MhAck, whose payload had
	// MhAbort's layout: frames an older peer could still send under it.
	for _, m := range []*MhAbort{{Payment: "mh-a-1", Transient: true}, {Payment: "mh-a-1", Reason: "no"}, {}} {
		frame, err := AppendFrame(nil, testIdentity(), nil, m)
		if err != nil {
			f.Fatal(err)
		}
		frame[5] = 21
		f.Add(frame[4:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := DecodeFrame(body)
		if err != nil {
			return
		}
		bm, ok := fr.Msg.(BinaryMessage)
		if !ok {
			return
		}
		payload, err := bm.AppendPayload(nil)
		if err != nil {
			t.Fatalf("%T decoded but does not re-encode: %v", bm, err)
		}
		again := newLike(bm)
		if err := again.DecodePayload(payload); err != nil || !reflect.DeepEqual(again, bm) {
			t.Fatalf("%T: re-encoded payload decodes to %+v (%v), want %+v", bm, again, err, bm)
		}
	})
}
