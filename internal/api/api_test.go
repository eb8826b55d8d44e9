package api

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// TestRegistryComplete is the registry gate CI relies on: every
// control-plane message type must be registered in the wire type
// registry with its pinned, stable code (the codes are the protocol —
// reordering Messages() or the wire registry breaks deployed nodes).
func TestRegistryComplete(t *testing.T) {
	// The enclave protocol occupies codes 1..42 (see wire's registry;
	// 36-39 are the durable-mode resume messages, 40 is ReplNack, 41-42
	// the channel-graph gossip pair); api registration appends
	// deterministically after it.
	const apiBase = 43
	msgs := Messages()
	if len(msgs) == 0 {
		t.Fatal("no api messages listed")
	}
	seen := map[reflect.Type]bool{}
	for i, m := range msgs {
		typ := reflect.TypeOf(m).Elem()
		if seen[typ] {
			t.Fatalf("duplicate message type %v in Messages()", typ)
		}
		seen[typ] = true
		code, err := wire.MsgCode(m)
		if err != nil {
			t.Fatalf("%v not registered in the wire registry: %v", typ, err)
		}
		if want := byte(apiBase + i); code != want {
			t.Fatalf("%v has code %d, want pinned %d — codes are append-only protocol surface", typ, code, want)
		}
		back, err := wire.NewByCode(code)
		if err != nil {
			t.Fatalf("NewByCode(%d): %v", code, err)
		}
		if got := reflect.TypeOf(back).Elem(); got != typ {
			t.Fatalf("code %d round-trips to %v, want %v", code, got, typ)
		}
	}
}

// TestRequestResponseContracts checks that every *Req implements
// Request and every response implements Response — the server and
// client dispatch on these interfaces, so a message outside both would
// be undeliverable.
func TestRequestResponseContracts(t *testing.T) {
	for _, m := range Messages() {
		_, isReq := m.(Request)
		_, isResp := m.(Response)
		_, isEvent := m.(*Event)
		if !isReq && !isResp && !isEvent {
			t.Errorf("%T is neither Request, Response, nor Event", m)
		}
		if isReq && isResp {
			t.Errorf("%T claims to be both Request and Response", m)
		}
	}
}

func sampleFrom() cryptoutil.PublicKey {
	var k cryptoutil.PublicKey
	for i := range k {
		k[i] = byte(i)
	}
	return k
}

// TestBinaryCodecRoundTrip round-trips the hot messages through the
// frame layer with populated fields.
func TestBinaryCodecRoundTrip(t *testing.T) {
	cases := []wire.Message{
		&PayReq{ReqHeader: ReqHeader{ID: 7}, Channel: "ch-1", Amount: 42, Count: 3},
		&PayBatchReq{ReqHeader: ReqHeader{ID: 9}, Channel: "ch-2", Amounts: []chain.Amount{1, 2, 3, 4}},
		&PayResp{RespHeader: RespHeader{ID: 9, Code: CodeNacked, Err: "2 payment(s) rejected"}, Count: 4},
		&PayResp{RespHeader: RespHeader{ID: 1}, Count: 1},
		&PayResp{RespHeader: RespHeader{ID: 3, Code: CodeOverloaded, Err: "overloaded", RetryAfterMillis: 5}, Count: 64},
		&Event{Seq: 13, Kind: EventOverload, Count: 1, Cursor: 5},
		&Event{Seq: 14, Kind: EventReplStalled, Chain: "cc-ab", Cursor: 17},
		&Event{Seq: 11, Kind: EventPayAcked, Channel: "ch-3", Amount: 5, Count: 2},
		&Event{Seq: 12, Kind: EventReplCursor, Chain: "cc-ab", Cursor: 99},
	}
	for _, msg := range cases {
		if _, ok := msg.(wire.BinaryMessage); !ok {
			t.Fatalf("%T must implement wire.BinaryMessage (hot path)", msg)
		}
		frame, err := wire.AppendFrame(nil, sampleFrom(), nil, msg)
		if err != nil {
			t.Fatalf("encoding %T: %v", msg, err)
		}
		f, err := wire.DecodeFrame(frame[4:])
		if err != nil {
			t.Fatalf("decoding %T: %v", msg, err)
		}
		if !reflect.DeepEqual(f.Msg, msg) {
			t.Fatalf("%T round trip: got %+v, want %+v", msg, f.Msg, msg)
		}
	}
}

// TestGobCodecRoundTrip round-trips a populated instance of every cold
// message through the frame layer.
func TestGobCodecRoundTrip(t *testing.T) {
	id := sampleFrom()
	var addr cryptoutil.Address
	copy(addr[:], "teechain-addr-20byte")
	cases := []wire.Message{
		&HelloReq{ReqHeader: ReqHeader{ID: 1}, Version: Version},
		&HelloResp{RespHeader: RespHeader{ID: 1}, Version: Version, Name: "hub", Identity: id, Wallet: addr},
		&PeersResp{RespHeader: RespHeader{ID: 2}, Peers: []PeerInfo{{Name: "a", Identity: id}}},
		&DialReq{ReqHeader: ReqHeader{ID: 3}, Addr: "localhost:7100"},
		&AttestReq{ReqHeader: ReqHeader{ID: 4}, Peer: "hub"},
		&OpenChannelResp{RespHeader: RespHeader{ID: 5}, Channel: "ch-77"},
		&DepositReq{ReqHeader: ReqHeader{ID: 6}, Channel: "ch-77", Amount: 1000},
		&MultihopReq{ReqHeader: ReqHeader{ID: 7}, Amount: 5, Hops: []string{"hub", "deadbeef"}},
		&CommitteeReq{ReqHeader: ReqHeader{ID: 8}, Members: []string{"m1", "m2"}, M: 2},
		&StatsResp{RespHeader: RespHeader{ID: 9},
			Host:         HostStats{PaymentsAcked: 10},
			Channels:     []ChannelStatsEntry{{Channel: "ch-1", Sent: 3, Acked: 3}},
			HasCommittee: true,
			Committee:    CommitteeStatsEntry{Chain: "cc-1", AckSeq: 4},
		},
		&SubscribeReq{ReqHeader: ReqHeader{ID: 10}, Mask: MaskAll},
		&ErrorResp{RespHeader: RespHeader{ID: 11, Code: CodeUnknown, Err: "nope"}},
	}
	for _, msg := range cases {
		frame, err := wire.AppendFrame(nil, sampleFrom(), nil, msg)
		if err != nil {
			t.Fatalf("encoding %T: %v", msg, err)
		}
		f, err := wire.DecodeFrame(frame[4:])
		if err != nil {
			t.Fatalf("decoding %T: %v", msg, err)
		}
		if !reflect.DeepEqual(f.Msg, msg) {
			t.Fatalf("%T round trip: got %+v, want %+v", msg, f.Msg, msg)
		}
	}
}

// TestMalformedPayloadsRejected feeds every registered api message type
// a garbage payload and requires the frame layer to reject it with
// wire.ErrFramePayload — the protocol-violation sentinel hosts log and
// disconnect on — never to panic or silently accept.
func TestMalformedPayloadsRejected(t *testing.T) {
	for _, m := range Messages() {
		code, err := wire.MsgCode(m)
		if err != nil {
			t.Fatal(err)
		}
		_, isBinary := m.(wire.BinaryMessage)
		for _, payload := range [][]byte{{0xff}, {0x13, 0x37, 0xff, 0xff, 0xff}} {
			body := buildFrameBody(code, isBinary, payload)
			_, err := wire.DecodeFrame(body)
			if err == nil {
				t.Fatalf("%T accepted garbage payload % x", m, payload)
			}
			if !errors.Is(err, wire.ErrFramePayload) && !errors.Is(err, wire.ErrFrameTruncated) {
				t.Fatalf("%T rejected garbage with %v, want ErrFramePayload/ErrFrameTruncated", m, err)
			}
		}
		// The empty payload must also never panic (gob reports EOF-ish
		// payload errors; binary codecs report truncation).
		body := buildFrameBody(code, isBinary, nil)
		if _, err := wire.DecodeFrame(body); err == nil {
			if !isBinary {
				continue // empty gob payload can decode to the zero message; fine
			}
			t.Fatalf("%T accepted an empty binary payload", m)
		}
	}
}

// buildFrameBody handcrafts a frame body (sans length prefix) for a
// registered code with an arbitrary payload.
func buildFrameBody(code byte, binaryFlag bool, payload []byte) []byte {
	var flags byte
	if binaryFlag {
		flags = wire.FlagBinaryPayload
	}
	body := []byte{wire.FrameVersion, code, flags}
	var from cryptoutil.PublicKey
	body = append(body, from[:]...)
	body = binary.BigEndian.AppendUint16(body, 0) // empty token
	return append(body, payload...)
}

// TestErrorClassification covers the Error/Code surface the clients
// program against.
func TestErrorClassification(t *testing.T) {
	e := Errorf(CodeTimeout, "no response within %v", "30s")
	if e.Code != CodeTimeout || e.Error() != "timeout: no response within 30s" {
		t.Fatalf("Errorf: %+v / %q", e, e.Error())
	}
	var hdr RespHeader
	fillOK := func(err error) RespHeader {
		h := RespHeader{}
		fill(&h, 5, err)
		return h
	}
	hdr = fillOK(nil)
	if hdr.ID != 5 || hdr.Code != OK || hdr.AsError() != nil {
		t.Fatalf("fill(nil): %+v", hdr)
	}
	hdr = fillOK(e)
	if hdr.Code != CodeTimeout || hdr.Err != e.Msg {
		t.Fatalf("fill(coded): %+v", hdr)
	}
	hdr = fillOK(errors.New("boom"))
	if hdr.Code != CodeInternal || hdr.Err != "boom" {
		t.Fatalf("fill(uncoded): %+v", hdr)
	}
	var ae *Error
	if err := hdr.AsError(); !errors.As(err, &ae) || ae.Code != CodeInternal {
		t.Fatalf("AsError: %v", err)
	}
	for c := OK; c <= CodeRecovering+1; c++ {
		if c.String() == "" {
			t.Fatalf("code %d has empty name", c)
		}
	}
}

// TestConvertHelpers pins the shared amount/identity text conversions
// (deduplicated out of the transport control shim).
func TestConvertHelpers(t *testing.T) {
	if v, err := ParseAmount("12345"); err != nil || v != 12345 {
		t.Fatalf("ParseAmount: %d, %v", v, err)
	}
	for _, bad := range []string{"", "0", "-3", "abc", "9223372036854775808"} {
		if _, err := ParseAmount(bad); err == nil {
			t.Fatalf("ParseAmount accepted %q", bad)
		}
	}
	if n, err := ParseCount("7"); err != nil || n != 7 {
		t.Fatalf("ParseCount: %d, %v", n, err)
	}
	for _, bad := range []string{"", "0", "-1", "x"} {
		if _, err := ParseCount(bad); err == nil {
			t.Fatalf("ParseCount accepted %q", bad)
		}
	}
	id := sampleFrom()
	s := FormatIdentity(id)
	if len(s) != 2*len(id) {
		t.Fatalf("FormatIdentity length %d", len(s))
	}
	back, err := ParseIdentity(s)
	if err != nil || back != id {
		t.Fatalf("ParseIdentity round trip: %v", err)
	}
	for _, bad := range []string{"", "zz", s[:10], s + "00"} {
		if _, err := ParseIdentity(bad); err == nil {
			t.Fatalf("ParseIdentity accepted %q", bad)
		}
	}
}

func routeKey(seed byte) cryptoutil.PublicKey {
	var k cryptoutil.PublicKey
	for i := range k {
		k[i] = seed + byte(i)
	}
	return k
}

func sampleRoute(hops int) RouteInfo {
	r := RouteInfo{Amount: 5, Send: 5}
	for i := 0; i < hops; i++ {
		r.Hops = append(r.Hops, routeKey(byte(i+1)))
		fee := chain.Amount(0)
		if i > 0 && i < hops-1 {
			fee = chain.Amount(2 * i)
		}
		r.Fees = append(r.Fees, fee)
		r.Send += fee
	}
	return r
}

// routeSamples covers the four routing messages: zero values, empty
// and long targets, routes of 2 to 16 hops, a route with hops but no
// fee schedule, negative amounts, and failed responses with and
// without a retry hint.
func routeSamples() map[string]wire.BinaryMessage {
	return map[string]wire.BinaryMessage{
		"route-req/zero":      &RouteReq{},
		"route-req":           &RouteReq{ReqHeader: ReqHeader{ID: 7}, Target: "hub", Amount: 42},
		"route-req/hex":       &RouteReq{ReqHeader: ReqHeader{ID: 1 << 63}, Target: FormatIdentity(routeKey(9)), Amount: 1 << 40},
		"routed-req/zero":     &RoutedPayReq{},
		"routed-req":          &RoutedPayReq{ReqHeader: ReqHeader{ID: 8}, Target: "n07", Amount: 3},
		"routed-req/negative": &RoutedPayReq{ReqHeader: ReqHeader{ID: 9}, Target: string(make([]byte, 300)), Amount: -1},
		"route-resp/zero":     &RouteResp{},
		"route-resp":          &RouteResp{RespHeader: RespHeader{ID: 7}, Route: sampleRoute(4)},
		"route-resp/missing":  &RouteResp{RespHeader: RespHeader{ID: 7, Code: CodeNotFound, Err: "route: no path with sufficient capacity"}},
		"routed-resp/zero":    &RoutedPayResp{},
		"routed-resp/2-hops":  &RoutedPayResp{RespHeader: RespHeader{ID: 8}, Route: sampleRoute(2)},
		"routed-resp/16-hops": &RoutedPayResp{RespHeader: RespHeader{ID: 8}, Route: sampleRoute(16)},
		"routed-resp/no-fees": &RoutedPayResp{RespHeader: RespHeader{ID: 8}, Route: RouteInfo{Hops: sampleRoute(3).Hops, Amount: 1, Send: 1}},
		"routed-resp/nacked":  &RoutedPayResp{RespHeader: RespHeader{ID: 9, Code: CodeNacked, Err: "upstream channel locked", RetryAfterMillis: 25}},
	}
}

func newLike(m wire.BinaryMessage) wire.BinaryMessage {
	return reflect.New(reflect.TypeOf(m).Elem()).Interface().(wire.BinaryMessage)
}

// TestRouteCodecRoundTrip: every sample survives AppendPayload →
// DecodePayload, alone and inside a frame, into a fresh receiver and
// into a previously used one.
func TestRouteCodecRoundTrip(t *testing.T) {
	used := map[string]wire.BinaryMessage{
		"route-req":   &RouteReq{ReqHeader: ReqHeader{ID: 99}, Target: "other", Amount: 9},
		"routed-req":  &RoutedPayReq{ReqHeader: ReqHeader{ID: 99}, Target: "other", Amount: 9},
		"route-resp":  &RouteResp{RespHeader: RespHeader{ID: 99, Code: CodeTimeout, Err: "late", RetryAfterMillis: 3}, Route: sampleRoute(5)},
		"routed-resp": &RoutedPayResp{RespHeader: RespHeader{ID: 99, Code: CodeTimeout, Err: "late", RetryAfterMillis: 3}, Route: sampleRoute(5)},
	}
	for name, m := range routeSamples() {
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
		for _, u := range used {
			if reflect.TypeOf(u) != reflect.TypeOf(m) {
				continue
			}
			if err := u.DecodePayload(payload); err != nil || !reflect.DeepEqual(u, m) {
				t.Fatalf("%s: decode into a used receiver: %v\n got %+v\nwant %+v", name, err, u, m)
			}
		}
		frame, err := wire.AppendFrame(nil, sampleFrom(), nil, m)
		if err != nil {
			t.Fatalf("%s: frame: %v", name, err)
		}
		if frame[4+2]&wire.FlagBinaryPayload == 0 {
			t.Fatalf("%s: frame is not binary-encoded", name)
		}
		f, err := wire.DecodeFrame(frame[4:])
		if err != nil || !reflect.DeepEqual(f.Msg, m) {
			t.Fatalf("%s: frame round trip: %v\n got %+v\nwant %+v", name, err, f.Msg, m)
		}
	}
}

// TestRouteCodecRejectsMalformed: every strict prefix of every
// encoding, and every encoding with a byte appended, is an error —
// never a panic, never a silently shorter message — and counts and
// lengths are checked against the bytes that remain.
func TestRouteCodecRejectsMalformed(t *testing.T) {
	for name, m := range routeSamples() {
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
	resp, _ := (&RoutedPayResp{}).AppendPayload(nil)
	for _, off := range []int{8 + 2 + 4, 8 + 2 + 4 + 2 + 16, 8 + 2 + 4 + 2 + 16 + 2} { // err length, nHops, nFees
		hostile := append([]byte(nil), resp...)
		hostile[off], hostile[off+1] = 0xff, 0xff
		if err := new(RoutedPayResp).DecodePayload(hostile); err == nil {
			t.Fatalf("accepted a length at %d the payload cannot hold", off)
		}
	}
	req, _ := (&RouteReq{}).AppendPayload(nil)
	req[16], req[17] = 0xff, 0xff
	if err := new(RouteReq).DecodePayload(req); err == nil {
		t.Fatal("accepted a target length the payload cannot hold")
	}
	for _, m := range []wire.BinaryMessage{
		&RouteReq{Target: string(make([]byte, 1<<16))},
		&RouteResp{RespHeader: RespHeader{Err: string(make([]byte, 1<<16))}},
		&RoutedPayResp{Route: RouteInfo{Fees: make([]chain.Amount, 1<<16)}},
	} {
		if _, err := m.AppendPayload(nil); err == nil {
			t.Fatalf("%T encoded a field longer than its length prefix", m)
		}
	}
}

// TestRouteCodecDecodeDoesNotAlias: the server runs a routed request in
// its own goroutine and the client hands a routed response to its
// waiter, while FrameReader would decode the next frame of the same
// code into the same message struct. A message the read loop Keeps must
// not change when the next one is decoded — and one it does not keep is
// reused, or the test proves nothing.
func TestRouteCodecDecodeDoesNotAlias(t *testing.T) {
	pairs := [][2]wire.Message{
		{&RouteReq{ReqHeader: ReqHeader{ID: 1}, Target: "n03", Amount: 5}, &RouteReq{ReqHeader: ReqHeader{ID: 2}, Target: "n04", Amount: 6}},
		{&RoutedPayReq{ReqHeader: ReqHeader{ID: 1}, Target: "n03", Amount: 5}, &RoutedPayReq{ReqHeader: ReqHeader{ID: 2}, Target: "n04", Amount: 6}},
		{&RouteResp{RespHeader: RespHeader{ID: 1}, Route: sampleRoute(4)}, &RouteResp{RespHeader: RespHeader{ID: 2, Code: CodeNotFound, Err: "none"}}},
		{&RoutedPayResp{RespHeader: RespHeader{ID: 1}, Route: sampleRoute(4)}, &RoutedPayResp{RespHeader: RespHeader{ID: 2}, Route: sampleRoute(3)}},
	}
	for _, pair := range pairs {
		var stream []byte
		for _, m := range []wire.Message{pair[0], pair[1], pair[0]} {
			var err error
			if stream, err = wire.AppendFrame(stream, sampleFrom(), nil, m); err != nil {
				t.Fatal(err)
			}
		}
		fr := wire.NewFrameReader(bytes.NewReader(stream))
		next := func() wire.Frame {
			t.Helper()
			f, err := fr.Next()
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		kept := next()
		fr.Keep(kept)
		second := next()
		if second.Msg == kept.Msg || !reflect.DeepEqual(kept.Msg, pair[0]) {
			t.Fatalf("%T: a kept message changed under the next decode: %+v", pair[0], kept.Msg)
		}
		if !reflect.DeepEqual(second.Msg, pair[1]) {
			t.Fatalf("%T: second decode: got %+v", pair[1], second.Msg)
		}
		if third := next(); third.Msg != second.Msg || !reflect.DeepEqual(third.Msg, pair[0]) {
			t.Fatalf("%T: a message nobody kept was not reused, or decoded wrong: %+v", pair[0], third.Msg)
		}
	}
}

// FuzzDecodeAPIFrame feeds arbitrary frame bodies, seeded with a valid
// frame of every registered control-plane message, to the decoder
// behind every control port: it must return a message or an error,
// never panic, and a binary message it accepts must re-encode to a
// payload that decodes to the same message.
func FuzzDecodeAPIFrame(f *testing.F) {
	seeds := Messages()
	for _, m := range routeSamples() {
		seeds = append(seeds, m)
	}
	seeds = append(seeds,
		&PayReq{ReqHeader: ReqHeader{ID: 7}, Channel: "ch-1", Amount: 42, Count: 3},
		&PayBatchReq{ReqHeader: ReqHeader{ID: 9}, Channel: "ch-2", Amounts: []chain.Amount{1, 2, 3, 4}},
		&PayResp{RespHeader: RespHeader{ID: 9, Code: CodeNacked, Err: "2 payment(s) rejected"}, Count: 4},
		&Event{Seq: 11, Kind: EventPayAcked, Channel: "ch-3", Chain: "cc-ab", Amount: 5, Count: 2, Cursor: 99},
		&HelloReq{ReqHeader: ReqHeader{ID: 1}, Version: Version},
		&StatsResp{RespHeader: RespHeader{ID: 9}, Channels: []ChannelStatsEntry{{Channel: "ch-1", Sent: 3}}},
	)
	for _, m := range seeds {
		frame, err := wire.AppendFrame(nil, sampleFrom(), nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := wire.DecodeFrame(body)
		if err != nil {
			return
		}
		bm, ok := fr.Msg.(wire.BinaryMessage)
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
