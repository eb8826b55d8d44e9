package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
)

// fillValue populates every settable exported field of v with
// deterministic non-zero data, so round trips exercise real payloads
// for every message type without hand-written samples.
func fillValue(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("sample")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(7.5)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fillValue(s.Index(i))
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillValue(v.Index(i))
		}
	case reflect.Ptr:
		p := reflect.New(v.Type().Elem())
		fillValue(p.Elem())
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				fillValue(f)
			}
		}
	case reflect.Map, reflect.Interface:
		// left zero: interfaces need gob registration, covered separately
	}
}

func testIdentity() cryptoutil.PublicKey {
	var pk cryptoutil.PublicKey
	for i := range pk {
		pk[i] = byte(i + 1)
	}
	return pk
}

// TestFrameRoundTripAllTypes pushes every registered message type,
// fully populated, through the codec and back.
func TestFrameRoundTripAllTypes(t *testing.T) {
	from := testIdentity()
	token := []byte("freshness-token")
	for _, proto := range registry {
		if proto == nil {
			continue
		}
		msg, err := NewByCode(mustCode(t, proto))
		if err != nil {
			t.Fatal(err)
		}
		fillValue(reflect.ValueOf(msg).Elem())
		frame, err := AppendFrame(nil, from, token, msg)
		if err != nil {
			t.Fatalf("%T: encode: %v", msg, err)
		}
		body, err := ReadFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatalf("%T: read: %v", msg, err)
		}
		f, err := DecodeFrame(body)
		if err != nil {
			t.Fatalf("%T: decode: %v", msg, err)
		}
		if f.From != from {
			t.Fatalf("%T: from mismatch", msg)
		}
		if !bytes.Equal(f.Token, token) {
			t.Fatalf("%T: token mismatch", msg)
		}
		if !reflect.DeepEqual(f.Msg, msg) {
			t.Fatalf("%T: round trip mismatch:\n got %+v\nwant %+v", msg, f.Msg, msg)
		}
	}
}

func mustCode(t *testing.T, m Message) byte {
	t.Helper()
	c, err := MsgCode(m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// replOp is a gob-registered stand-in for the state-machine ops that
// travel inside ReplUpdate (core registers its real *Op the same way).
type replOp struct {
	Kind  int
	Notes string
}

func TestFrameReplUpdateCarriesRegisteredOp(t *testing.T) {
	gob.Register(&replOp{})
	msg := &ReplUpdate{Chain: "cc-1", Seq: 9, Op: &replOp{Kind: 3, Notes: "pay"}}
	frame, err := AppendFrame(nil, testIdentity(), nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	body, err := ReadFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := DecodeFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := f.Msg.(*ReplUpdate)
	if !ok {
		t.Fatalf("decoded %T", f.Msg)
	}
	if !reflect.DeepEqual(got.Op, msg.Op) {
		t.Fatalf("op mismatch: got %+v want %+v", got.Op, msg.Op)
	}
}

// TestFrameRejectsTruncated chops a valid frame at every boundary class
// and checks the codec errors instead of panicking.
func TestFrameRejectsTruncated(t *testing.T) {
	frame, err := AppendFrame(nil, testIdentity(), []byte("tok"), &Pay{Channel: "ch", Amount: 5, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Stream cut anywhere: short prefix, short body.
	for _, n := range []int{0, 1, 3, 4, 5, frameHeaderSize, len(frame) - 1} {
		if _, err := ReadFrame(bytes.NewReader(frame[:n]), nil); err == nil {
			t.Fatalf("ReadFrame accepted %d of %d bytes", n, len(frame))
		}
	}
	// Body truncated after a well-formed prefix.
	body := frame[4:]
	for _, n := range []int{0, 1, frameHeaderSize - 1, frameHeaderSize + 1} {
		if n > len(body) {
			continue
		}
		if _, err := DecodeFrame(body[:n]); err == nil {
			t.Fatalf("DecodeFrame accepted %d of %d body bytes", n, len(body))
		}
	}
	// Token length pointing past the end of the body.
	corrupt := append([]byte(nil), body...)
	binary.BigEndian.PutUint16(corrupt[68:70], uint16(len(corrupt)))
	if _, err := DecodeFrame(corrupt); !errors.Is(err, ErrFrameTruncated) {
		t.Fatalf("oversized token length: got %v, want ErrFrameTruncated", err)
	}
}

func TestFrameRejectsOversized(t *testing.T) {
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], MaxFrameSize+1)
	if _, err := ReadFrame(bytes.NewReader(prefix[:]), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	big := make([]byte, MaxFrameSize+1)
	if _, err := DecodeFrame(big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	// An encoder-side overflow is also refused.
	if _, err := AppendFrame(nil, testIdentity(), make([]byte, 0x10000), &Pay{}); err == nil {
		t.Fatal("AppendFrame accepted 64 KiB token")
	}
}

func TestFrameRejectsWrongVersion(t *testing.T) {
	frame, err := AppendFrame(nil, testIdentity(), nil, &Pay{Channel: "ch", Amount: 1, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte(nil), frame[4:]...)
	body[0] = FrameVersion + 1
	if _, err := DecodeFrame(body); !errors.Is(err, ErrFrameVersion) {
		t.Fatalf("got %v, want ErrFrameVersion", err)
	}
}

func TestFrameRejectsUnknownType(t *testing.T) {
	frame, err := AppendFrame(nil, testIdentity(), nil, &Pay{Channel: "ch", Amount: 1, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 21 is the reserved slot of the deleted MhAck.
	for _, code := range []byte{0, 21, byte(len(registry) + 1), 0xff} {
		body := append([]byte(nil), frame[4:]...)
		body[1] = code
		if _, err := DecodeFrame(body); !errors.Is(err, ErrUnknownType) {
			t.Fatalf("code %d: got %v, want ErrUnknownType", code, err)
		}
	}
}

// TestFrameEncodingFlagMismatch checks that the binary-payload flag is
// honoured strictly: setting it on a gob-only type is rejected, and
// clearing it on a binary payload fails in the gob decoder rather than
// misparsing.
func TestFrameEncodingFlagMismatch(t *testing.T) {
	pay, err := AppendFrame(nil, testIdentity(), nil, &Pay{Channel: "ch", Amount: 1, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pay[6]&FlagBinaryPayload == 0 {
		t.Fatal("Pay frame does not use the binary payload encoding")
	}
	body := append([]byte(nil), pay[4:]...)
	body[2] &^= FlagBinaryPayload
	if _, err := DecodeFrame(body); err == nil {
		t.Fatal("binary payload decoded as gob")
	}

	attest, err := AppendFrame(nil, testIdentity(), nil, &ChannelOpen{Channel: "ch"})
	if err != nil {
		t.Fatal(err)
	}
	body = append([]byte(nil), attest[4:]...)
	body[2] |= FlagBinaryPayload
	if _, err := DecodeFrame(body); !errors.Is(err, ErrFrameEncoding) {
		t.Fatalf("binary flag on gob-only type: got %v, want ErrFrameEncoding", err)
	}
}

// TestFrameReaderReuse streams a mixed sequence of frames through one
// FrameReader and checks every frame decodes correctly even though the
// reader recycles its body, token, and hot-path message objects.
func TestFrameReaderReuse(t *testing.T) {
	from := testIdentity()
	var stream []byte
	want := []Message{
		&Pay{Channel: "ch-a", Amount: 10, Count: 1},
		&Pay{Channel: "ch-b", Amount: 20, Count: 2},
		&PayBatch{Channel: "ch-a", Amounts: []chain.Amount{1, 2, 3}},
		&PayBatch{Channel: "ch-b", Amounts: []chain.Amount{4}},
		&ChannelOpen{Channel: "ch-c"},
		&PayBatchAck{Channel: "ch-a", Total: 6, Count: 3},
		&PayNack{Channel: "ch-b", Amount: 4, Count: 1, Reason: "locked"},
	}
	for i, m := range want {
		var err error
		stream, err = AppendFrame(stream, from, []byte{byte(i), 0xee}, m)
		if err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(stream))
	for i, m := range want {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.From != from {
			t.Fatalf("frame %d: from mismatch", i)
		}
		if !bytes.Equal(f.Token, []byte{byte(i), 0xee}) {
			t.Fatalf("frame %d: token %x", i, f.Token)
		}
		if !reflect.DeepEqual(f.Msg, m) {
			t.Fatalf("frame %d: got %+v want %+v", i, f.Msg, m)
		}
	}
	if _, err := fr.Next(); err == nil {
		t.Fatal("Next succeeded past end of stream")
	}
}

// TestFrameHotPathAllocationBudget pins steady-state framing costs on
// the socket hot path: encoding a Pay/PayBatch frame into a reused
// buffer and pumping it back through a FrameReader must not allocate.
func TestFrameHotPathAllocationBudget(t *testing.T) {
	from := testIdentity()
	token := []byte("0123456789abcdef0123456789abcdef")
	batch := &PayBatch{Channel: "ch-0123456789abcdef", Amounts: make([]chain.Amount, 64)}
	for i := range batch.Amounts {
		batch.Amounts[i] = chain.Amount(i + 1)
	}
	pay := &Pay{Channel: "ch", Amount: 1, Count: 1}
	var stream []byte
	for i := 0; i < 2; i++ {
		var err error
		stream, err = AppendFrame(stream, from, token, batch)
		if err != nil {
			t.Fatal(err)
		}
		stream, err = AppendFrame(stream, from, token, pay)
		if err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	rd := bytes.NewReader(stream)
	fr := NewFrameReader(rd)
	// Warm the reader's reuse slots and the encode buffer.
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(1000, func() {
		var err error
		buf, err = AppendFrame(buf[:0], from, token, batch)
		if err != nil {
			t.Fatal(err)
		}
		buf, err = AppendFrame(buf, from, token, pay)
		if err != nil {
			t.Fatal(err)
		}
		rd.Reset(stream)
		for i := 0; i < 4; i++ {
			if _, err := fr.Next(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg > 1 {
		t.Fatalf("hot-path framing allocates %.2f allocs/round in steady state, budget is 1", avg)
	}
}

// TestFrameGarbagePayload feeds random-ish bytes as the gob payload;
// the decoder must error, never panic.
func TestFrameGarbagePayload(t *testing.T) {
	frame, err := AppendFrame(nil, testIdentity(), nil, &Pay{Channel: "ch", Amount: 1, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte(nil), frame[4:]...)
	for i := frameHeaderSize; i < len(body); i++ {
		body[i] = byte(i * 31)
	}
	if _, err := DecodeFrame(body); err == nil {
		t.Fatal("DecodeFrame accepted garbage payload")
	}
}
