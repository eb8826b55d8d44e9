package client

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"teechain/internal/api"
	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// stubBackend implements api.Backend with no-op answers; tests override
// the multihop behavior via the mh callback, the routed-payment answer
// via routed, the payment issuer via issuer, and the stats via stats.
type stubBackend struct {
	mh     func() error
	routed func(target string, amount chain.Amount) (api.RouteInfo, error)
	issuer api.Issuer
	stats  api.StatsResp
}

func (s *stubBackend) Info() api.NodeInfo    { return api.NodeInfo{Name: "stub"} }
func (s *stubBackend) Peers() []api.PeerInfo { return nil }
func (s *stubBackend) Dial(string) error     { return nil }
func (s *stubBackend) Attest(string, time.Duration) error {
	return nil
}
func (s *stubBackend) OpenChannel(string, time.Duration) (wire.ChannelID, error) {
	return "", nil
}
func (s *stubBackend) Deposit(wire.ChannelID, chain.Amount, time.Duration) (chain.OutPoint, error) {
	return chain.OutPoint{}, nil
}
func (s *stubBackend) NewIssuer() api.Issuer {
	if s.issuer != nil {
		return s.issuer
	}
	return stubIssuer{}
}
func (s *stubBackend) AwaitPaid(api.PayCursor, time.Duration) error { return nil }
func (s *stubBackend) Multihop(amount chain.Amount, hops []string, timeout time.Duration) error {
	return s.mh()
}
func (s *stubBackend) Route(string, chain.Amount) (api.RouteInfo, error) {
	return api.RouteInfo{}, nil
}
func (s *stubBackend) PayRouted(target string, amount chain.Amount, _ time.Duration) (api.RouteInfo, error) {
	if s.routed != nil {
		return s.routed(target, amount)
	}
	return api.RouteInfo{}, s.mh()
}
func (s *stubBackend) FormCommittee([]string, int, time.Duration) (string, error) {
	return "", nil
}
func (s *stubBackend) Settle(wire.ChannelID) error { return nil }
func (s *stubBackend) Balances(wire.ChannelID) (chain.Amount, chain.Amount, error) {
	return 0, 0, nil
}
func (s *stubBackend) Mine(int) (uint64, error)             { return 0, nil }
func (s *stubBackend) WalletBalance() (chain.Amount, error) { return 0, nil }
func (s *stubBackend) Stats() api.StatsResp                 { return s.stats }
func (s *stubBackend) WalStats() api.WalStatsResp           { return api.WalStatsResp{} }
func (s *stubBackend) SnapshotNow() (uint64, error)         { return 0, nil }
func (s *stubBackend) Recover(time.Duration) (bool, int, error) {
	return false, 0, nil
}
func (s *stubBackend) Subscribe(func(api.Event)) func() { return func() {} }

// stubIssuer accepts every payment without issuing anything.
type stubIssuer struct{}

func (stubIssuer) Pay(wire.ChannelID, chain.Amount, int) (api.PayCursor, error) {
	return api.PayCursor{}, nil
}
func (stubIssuer) PayBatch(wire.ChannelID, []chain.Amount) (api.PayCursor, error) {
	return api.PayCursor{}, nil
}
func (stubIssuer) Release(uint32) {}
func (stubIssuer) Close()         {}

// dialStub serves a stub backend on a loopback listener and returns a
// connected client.
func dialStub(t *testing.T, b api.Backend) *Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := api.Serve(ln, b, nil)
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestMultihopRetriesTransientNack drives Conn.Multihop against a
// server whose backend rejects the payment twice with a transient nack
// (CodeNacked + RetryAfterMillis, the shape a benign multihop abort
// classifies to) before accepting it. The client must re-issue the
// request transparently, sleeping the server's hint each time, and
// return success — without a single real sleep (Sleep is injected).
func TestMultihopRetriesTransientNack(t *testing.T) {
	var calls atomic.Int32
	b := &stubBackend{mh: func() error {
		if calls.Add(1) <= 2 {
			return &api.Error{Code: api.CodeNacked, Msg: "transient abort", RetryAfterMillis: 25}
		}
		return nil
	}}
	c := dialStub(t, b)

	var slept []time.Duration
	c.SetMultihopRetry(Retrier{
		Attempts: 5,
		Sleep:    func(d time.Duration) { slept = append(slept, d) },
		Rand:     func() float64 { return 0 },
	})
	if err := c.Multihop(7, "hub", "dst"); err != nil {
		t.Fatalf("multihop: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("backend saw %d attempts, want 3", got)
	}
	// Rand pinned to 0 makes each jittered sleep exactly hint/2.
	want := 25 * time.Millisecond / 2
	if len(slept) != 2 || slept[0] != want || slept[1] != want {
		t.Fatalf("sleeps %v, want [%v %v]", slept, want, want)
	}
}

// TestMultihopPermanentNackFailsFast: a nack without a retry hint is a
// permanent rejection (insufficient balance, bad path) — the client
// must surface it on the first attempt, never sleeping.
func TestMultihopPermanentNackFailsFast(t *testing.T) {
	var calls atomic.Int32
	b := &stubBackend{mh: func() error {
		calls.Add(1)
		return &api.Error{Code: api.CodeNacked, Msg: "payer balance insufficient"}
	}}
	c := dialStub(t, b)
	c.SetMultihopRetry(Retrier{
		Sleep: func(time.Duration) { t.Fatal("slept on a permanent nack") },
	})
	err := c.Multihop(7, "hub", "dst")
	if !IsNacked(err) {
		t.Fatalf("err = %v, want CodeNacked", err)
	}
	if IsTransientNack(err) {
		t.Fatalf("permanent nack classified transient: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("backend saw %d attempts, want 1", got)
	}
}

// TestConcurrentRoutedPaymentsKeepTheirOwnAnswers: routed requests and
// responses are binary messages that both read loops decode into one
// reused struct per connection, then hand to a goroutine. Sixteen
// callers share one connection; the backend answers each request with
// a route that encodes its target and amount, after yielding so that
// later frames are decoded while earlier ones are still being served.
// Every caller must get the answer to its own request (run under
// -race: a hand-off without a copy is a data race as well).
func TestConcurrentRoutedPaymentsKeepTheirOwnAnswers(t *testing.T) {
	b := &stubBackend{routed: func(target string, amount chain.Amount) (api.RouteInfo, error) {
		time.Sleep(time.Duration(amount%3) * 100 * time.Microsecond)
		if amount%7 == 0 {
			return api.RouteInfo{}, &api.Error{Code: api.CodeNotFound, Msg: "no route to " + target}
		}
		var hop cryptoutil.PublicKey
		copy(hop[:], target)
		return api.RouteInfo{
			Hops:   []cryptoutil.PublicKey{{}, hop},
			Fees:   []chain.Amount{0, amount, 0}[:2],
			Amount: amount,
			Send:   2 * amount,
		}, nil
	}}
	c := dialStub(t, b)
	var wg sync.WaitGroup
	for caller := 0; caller < 16; caller++ {
		wg.Add(1)
		go func(caller int) {
			defer wg.Done()
			for i := 1; i <= 50; i++ {
				target := fmt.Sprintf("node-%02d-%03d", caller, i)
				amount := chain.Amount(caller*1000 + i)
				r, err := c.PayRouted(target, amount)
				if amount%7 == 0 {
					if ae, ok := err.(*api.Error); !ok || ae.Code != api.CodeNotFound || ae.Msg != "no route to "+target {
						t.Errorf("%s: error %v, want its own not-found", target, err)
					}
					continue
				}
				var hop cryptoutil.PublicKey
				copy(hop[:], target)
				if err != nil || len(r.Hops) != 2 || r.Hops[1] != hop || r.Amount != amount || r.Send != 2*amount || len(r.Fees) != 2 || r.Fees[1] != amount {
					t.Errorf("%s/%d: got route %+v, %v", target, amount, r, err)
				}
			}
		}(caller)
	}
	wg.Wait()
}
