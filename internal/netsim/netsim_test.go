package netsim

import (
	"errors"
	"testing"
	"time"

	"teechain/internal/sim"
)

type recorded struct {
	from    NodeID
	payload any
	at      sim.Time
}

func collector(s *sim.Simulator, out *[]recorded) Handler {
	return func(from NodeID, payload any) {
		*out = append(*out, recorded{from: from, payload: payload, at: s.Now()})
	}
}

func TestLatencyDelivery(t *testing.T) {
	s := sim.New()
	n := New(s)
	var got []recorded
	n.AddNode("a", nil, nil)
	n.AddNode("b", collector(s, &got), nil)
	n.SetLink("a", "b", RTT(90*time.Millisecond, 0))
	if err := n.Send("a", "b", "hello", 100); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(got))
	}
	if want := sim.Time(45 * time.Millisecond); got[0].at != want {
		t.Fatalf("delivered at %v, want %v (one-way of 90ms RTT)", got[0].at, want)
	}
	if got[0].from != "a" || got[0].payload != "hello" {
		t.Fatalf("payload mismatch: %+v", got[0])
	}
}

func TestBandwidthSerialization(t *testing.T) {
	s := sim.New()
	n := New(s)
	var got []recorded
	n.AddNode("a", nil, nil)
	n.AddNode("b", collector(s, &got), nil)
	// 8 Mb/s -> a 1 MB message takes 1 second on the wire.
	n.SetLink("a", "b", LinkSpec{Latency: 0, BitsPerSecond: 8_000_000})
	if err := n.Send("a", "b", 1, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := n.Send("a", "b", 2, 1_000_000); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(got) != 2 {
		t.Fatalf("delivered %d, want 2", len(got))
	}
	if want := sim.Time(time.Second); got[0].at != want {
		t.Fatalf("first delivery at %v, want %v", got[0].at, want)
	}
	if want := sim.Time(2 * time.Second); got[1].at != want {
		t.Fatalf("second delivery at %v, want %v (link serialization)", got[1].at, want)
	}
}

func TestReceiverProcessingCost(t *testing.T) {
	s := sim.New()
	n := New(s)
	var got []recorded
	n.AddNode("a", nil, nil)
	n.AddNode("b", collector(s, &got), func(any) (time.Duration, time.Duration) { return 10 * time.Millisecond, 0 })
	n.SetLink("a", "b", RTT(0, 0))
	for i := 0; i < 3; i++ {
		if err := n.Send("a", "b", i, 10); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	// Messages arrive together but the serial processor spaces
	// completions by 10 ms: the throughput-ceiling mechanism.
	wants := []sim.Time{
		sim.Time(10 * time.Millisecond),
		sim.Time(20 * time.Millisecond),
		sim.Time(30 * time.Millisecond),
	}
	for i, w := range wants {
		if got[i].at != w {
			t.Fatalf("delivery %d at %v, want %v", i, got[i].at, w)
		}
	}
}

func TestPartition(t *testing.T) {
	s := sim.New()
	n := New(s)
	var got []recorded
	n.AddNode("a", nil, nil)
	n.AddNode("b", collector(s, &got), nil)
	n.SetPartitioned("a", "b", true)
	err := n.Send("a", "b", "x", 1)
	if !errors.Is(err, ErrPartitioned) {
		t.Fatalf("err = %v, want ErrPartitioned", err)
	}
	if n.Dropped() != 1 {
		t.Fatalf("Dropped() = %d, want 1", n.Dropped())
	}
	n.SetPartitioned("a", "b", false)
	if err := n.Send("a", "b", "x", 1); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(got) != 1 {
		t.Fatal("message not delivered after heal")
	}
}

func TestUnknownNode(t *testing.T) {
	s := sim.New()
	n := New(s)
	n.AddNode("a", nil, nil)
	if err := n.Send("a", "ghost", "x", 1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
	if err := n.Send("ghost", "a", "x", 1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestDefaultLink(t *testing.T) {
	s := sim.New()
	n := New(s)
	n.SetDefaultLink(RTT(100*time.Millisecond, 0))
	var got []recorded
	n.AddNode("a", nil, nil)
	n.AddNode("b", collector(s, &got), nil)
	if err := n.Send("a", "b", "x", 1); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if want := sim.Time(50 * time.Millisecond); got[0].at != want {
		t.Fatalf("delivered at %v, want %v", got[0].at, want)
	}
}

func TestSendLocal(t *testing.T) {
	s := sim.New()
	n := New(s)
	var got []recorded
	n.AddNode("a", collector(s, &got), func(any) (time.Duration, time.Duration) { return time.Millisecond, 0 })
	if err := n.SendLocal("a", "cmd"); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(got) != 1 || got[0].from != "a" {
		t.Fatalf("local delivery wrong: %+v", got)
	}
	if want := sim.Time(time.Millisecond); got[0].at != want {
		t.Fatalf("local delivery at %v, want %v", got[0].at, want)
	}
	if err := n.SendLocal("ghost", "cmd"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestStats(t *testing.T) {
	s := sim.New()
	n := New(s)
	n.AddNode("a", nil, nil)
	n.AddNode("b", func(NodeID, any) {}, nil)
	for i := 0; i < 5; i++ {
		if err := n.Send("a", "b", i, 100); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	msgs, bytes := n.LinkStats("a", "b")
	if msgs != 5 || bytes != 500 {
		t.Fatalf("LinkStats = %d msgs %d bytes, want 5/500", msgs, bytes)
	}
	if n.Sent() != 5 {
		t.Fatalf("Sent() = %d, want 5", n.Sent())
	}
	if got := n.Endpoint("b").Received(); got != 5 {
		t.Fatalf("Received() = %d, want 5", got)
	}
	back, _ := n.LinkStats("b", "a")
	if back != 0 {
		t.Fatal("reverse direction recorded traffic")
	}
}

func TestSetHandlerRewire(t *testing.T) {
	s := sim.New()
	n := New(s)
	n.AddNode("a", nil, nil)
	n.AddNode("b", func(NodeID, any) { t.Fatal("old handler ran") }, nil)
	var got []recorded
	n.SetHandler("b", collector(s, &got), nil)
	if err := n.Send("a", "b", "x", 1); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(got) != 1 {
		t.Fatal("new handler did not run")
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddNode did not panic")
		}
	}()
	s := sim.New()
	n := New(s)
	n.AddNode("a", nil, nil)
	n.AddNode("a", nil, nil)
}

func TestAsymmetricTrafficSharesLinkSpec(t *testing.T) {
	s := sim.New()
	n := New(s)
	var atA, atB []recorded
	n.AddNode("a", collector(s, &atA), nil)
	n.AddNode("b", collector(s, &atB), nil)
	n.SetLink("a", "b", RTT(60*time.Millisecond, 0))
	if err := n.Send("a", "b", "x", 1); err != nil {
		t.Fatal(err)
	}
	if err := n.Send("b", "a", "y", 1); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if atB[0].at != sim.Time(30*time.Millisecond) || atA[0].at != sim.Time(30*time.Millisecond) {
		t.Fatalf("deliveries at %v and %v, want both 30ms", atB[0].at, atA[0].at)
	}
}

// TestHealNotifiesBothEndpoints: restoring a partitioned link runs each
// endpoint's heal hook once; partitioning, or "restoring" a link that
// was never down, runs none, and nothing is scheduled either way.
func TestHealNotifiesBothEndpoints(t *testing.T) {
	s := sim.New()
	n := New(s)
	heals := map[NodeID]int{}
	for _, id := range []NodeID{"a", "b", "c"} {
		ep := n.AddNode(id, nil, nil)
		ep.OnHeal(func() { heals[id]++ })
	}
	n.SetPartitioned("a", "c", false)
	n.SetPartitioned("a", "b", true)
	n.SetPartitioned("a", "b", true)
	if len(heals) != 0 {
		t.Fatalf("heal hooks ran without a heal: %v", heals)
	}
	n.SetPartitioned("a", "b", false)
	n.SetPartitioned("a", "b", false)
	if heals["a"] != 1 || heals["b"] != 1 || heals["c"] != 0 {
		t.Fatalf("heal hooks ran %v, want a and b once each", heals)
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events scheduled", s.Pending())
	}
}
