package wire

import (
	"reflect"
	"testing"

	"teechain/internal/cryptoutil"
)

func gossipKey(seed byte) cryptoutil.PublicKey {
	var k cryptoutil.PublicKey
	for i := range k {
		k[i] = seed + byte(i)
	}
	return k
}

// TestGossipCodecRoundTrip round-trips both gossip messages through the
// frame layer, including the FrameReader's message-reuse path (decode a
// second, shorter message into the same receiver).
func TestGossipCodecRoundTrip(t *testing.T) {
	cases := []Message{
		&ChanAnnounce{
			Channel:    "ch-deadbeef",
			From:       gossipKey(1),
			To:         gossipKey(2),
			Capacity:   123_456,
			FeeBase:    3,
			FeeRatePPM: 1500,
			Version:    7,
		},
		&ChanAnnounce{Channel: "ch-x", From: gossipKey(9), To: gossipKey(4), Version: 12, Closed: true},
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

	// Receiver reuse: a big summary decoded over, then a small one — the
	// entries slice must shrink, not retain stale tail entries.
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
	ann := &ChanAnnounce{Channel: "ch-1", From: gossipKey(1), To: gossipKey(2), Capacity: 5, Version: 1}
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
