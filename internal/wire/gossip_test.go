package wire

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
)

func gossipKey(seed byte) cryptoutil.PublicKey {
	var k cryptoutil.PublicKey
	for i := range k {
		k[i] = seed + byte(i)
	}
	return k
}

// sampleEdges returns n distinct edge announcements, every third one a
// retraction.
func sampleEdges(n int) []EdgeAnnounce {
	out := make([]EdgeAnnounce, n)
	for i := range out {
		out[i] = EdgeAnnounce{
			Channel:    ChannelID(fmt.Sprintf("ch-%04x", i)),
			From:       gossipKey(byte(i)),
			To:         gossipKey(byte(i + 1)),
			Capacity:   chain.Amount(123_456 + i),
			FeeBase:    chain.Amount(i % 7),
			FeeRatePPM: uint32(1500 * i),
			Version:    uint64(7 + i),
			Closed:     i%3 == 2,
		}
	}
	return out
}

// TestGossipCodecRoundTrip round-trips both gossip messages through the
// frame layer, including the FrameReader's message-reuse path (decode a
// second, shorter message into the same receiver).
func TestGossipCodecRoundTrip(t *testing.T) {
	cases := []Message{
		&ChanAnnounce{Edges: sampleEdges(1)},
		&ChanAnnounce{Edges: sampleEdges(5)},
		&ChanAnnounce{},
		&GossipSummary{Entries: []GossipDigest{
			{Channel: "ch-a", From: gossipKey(1), Version: 1},
			{Channel: "ch-b", From: gossipKey(2), Version: 99},
		}},
		&GossipSummary{},
	}
	for _, msg := range cases {
		bm, ok := msg.(BinaryMessage)
		if !ok {
			t.Fatalf("%T must implement BinaryMessage (flood path)", msg)
		}
		payload, err := bm.AppendPayload(nil)
		if err != nil {
			t.Fatalf("encoding %T: %v", msg, err)
		}
		fresh := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(BinaryMessage)
		if err := fresh.DecodePayload(payload); err != nil {
			t.Fatalf("decoding %T: %v", msg, err)
		}
		if !reflect.DeepEqual(msg, fresh) {
			t.Fatalf("%T round trip: got %+v, want %+v", msg, fresh, msg)
		}
	}

	// Receiver reuse: a big message decoded over, then a small one — the
	// slice must shrink, not retain stale tail entries.
	var reuseAnn ChanAnnounce
	for _, m := range []*ChanAnnounce{{Edges: sampleEdges(6)}, {Edges: sampleEdges(2)[1:]}} {
		payload, err := m.AppendPayload(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := reuseAnn.DecodePayload(payload); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reuseAnn.Edges, m.Edges) {
			t.Fatalf("reuse decode: got %+v, want %+v", reuseAnn.Edges, m.Edges)
		}
	}
	var reuse GossipSummary
	big := &GossipSummary{Entries: []GossipDigest{
		{Channel: "ch-a", From: gossipKey(1), Version: 1},
		{Channel: "ch-b", From: gossipKey(2), Version: 2},
		{Channel: "ch-c", From: gossipKey(3), Version: 3},
	}}
	small := &GossipSummary{Entries: []GossipDigest{{Channel: "ch-a", From: gossipKey(5), Version: 9}}}
	for _, m := range []*GossipSummary{big, small} {
		payload, err := m.AppendPayload(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := reuse.DecodePayload(payload); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reuse.Entries, m.Entries) {
			t.Fatalf("reuse decode: got %+v, want %+v", reuse.Entries, m.Entries)
		}
	}
}

// TestGossipCodecMalformed feeds truncated and corrupt payloads; the
// decoders must reject them without panicking.
func TestGossipCodecMalformed(t *testing.T) {
	ann := &ChanAnnounce{Edges: sampleEdges(3)}
	good, err := ann.AppendPayload(nil)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(good); cut++ {
		var m ChanAnnounce
		if err := m.DecodePayload(good[:cut]); err == nil {
			t.Fatalf("ChanAnnounce accepted a %d-byte truncation of %d", cut, len(good))
		}
	}
	// Trailing garbage and a bad closed flag must be rejected too.
	var m ChanAnnounce
	if err := m.DecodePayload(append(append([]byte{}, good...), 0)); err == nil {
		t.Fatal("ChanAnnounce accepted trailing bytes")
	}
	bad := append([]byte{}, good...)
	bad[len(bad)-1] = 2
	if err := m.DecodePayload(bad); err == nil {
		t.Fatal("ChanAnnounce accepted closed flag 2")
	}
	// An edge count the payload cannot hold, or beyond the bound, is
	// refused before anything is allocated for it.
	for _, n := range []uint32{4, MaxChanAnnounce + 1, 0xffffffff} {
		hostile := binary.BigEndian.AppendUint32(nil, n)
		hostile = append(hostile, good[4:]...)
		if err := m.DecodePayload(hostile); err == nil {
			t.Fatalf("ChanAnnounce accepted an edge count of %d over 3 edges", n)
		}
	}
	if _, err := (&ChanAnnounce{Edges: make([]EdgeAnnounce, MaxChanAnnounce+1)}).AppendPayload(nil); err == nil {
		t.Fatal("encoded an announcement beyond MaxChanAnnounce")
	}
	// A maximal frame of maximal channel ids fits the frame bound.
	long := ChannelID(make([]byte, 0xff))
	full := &ChanAnnounce{Edges: make([]EdgeAnnounce, MaxChanAnnounce)}
	for i := range full.Edges {
		full.Edges[i].Channel = long
	}
	if _, err := AppendFrame(nil, gossipKey(1), nil, full); err != nil {
		t.Fatalf("maximal announcement frame: %v", err)
	}

	sum := &GossipSummary{Entries: []GossipDigest{{Channel: "ch-1", From: gossipKey(3), Version: 4}}}
	goodSum, err := sum.AppendPayload(nil)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(goodSum); cut++ {
		var s GossipSummary
		if err := s.DecodePayload(goodSum[:cut]); err == nil {
			t.Fatalf("GossipSummary accepted a %d-byte truncation of %d", cut, len(goodSum))
		}
	}
	var s GossipSummary
	if err := s.DecodePayload(append(append([]byte{}, goodSum...), 0)); err == nil {
		t.Fatal("GossipSummary accepted trailing bytes")
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if err := s.DecodePayload(huge); err == nil {
		t.Fatal("GossipSummary accepted an oversized entry count")
	}
}
