package client

import (
	"errors"
	"net"
	"testing"
	"time"

	"teechain/internal/api"
	"teechain/internal/chain"
	"teechain/internal/wire"
)

// shedIssuer refuses every payment at admission, as an overloaded node
// does.
type shedIssuer struct{ stubIssuer }

func (shedIssuer) Pay(wire.ChannelID, chain.Amount, int) (api.PayCursor, error) {
	return api.PayCursor{}, &api.Error{Code: api.CodeOverloaded, Msg: "shed", RetryAfterMillis: 7}
}
func (shedIssuer) PayBatch(wire.ChannelID, []chain.Amount) (api.PayCursor, error) {
	return api.PayCursor{}, &api.Error{Code: api.CodeOverloaded, Msg: "shed", RetryAfterMillis: 7}
}

// TestOverloadedOverTheWire pins the typed backpressure end to end: a
// payment the node sheds reaches the caller as CodeOverloaded with the
// server's retry hint, for both payment requests, and the admission
// and stall counters arrive in Stats.
func TestOverloadedOverTheWire(t *testing.T) {
	want := api.StatsResp{
		Host:         api.HostStats{PaymentsRejected: 3, PaymentsInflight: 2, ShedStarts: 1, Shedding: true},
		HasCommittee: true,
		Committee:    api.CommitteeStatsEntry{Chain: "cc-stub", Stalled: true, Stalls: 4},
	}
	c := dialStub(t, &stubBackend{issuer: shedIssuer{}, stats: want})
	for name, err := range map[string]error{
		"pay":   c.Pay("ch", 5, 1),
		"batch": c.PayBatch("ch", []chain.Amount{5, 5}),
	} {
		if !IsOverloaded(err) || RetryAfter(err) != 7*time.Millisecond {
			t.Errorf("%s: %v (hint %v), want CodeOverloaded with a 7ms hint", name, err, RetryAfter(err))
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Host != want.Host || !st.HasCommittee || st.Committee != want.Committee {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

// TestRetrierHonorsHint drives the retrier with injected sleep and
// jitter against a scripted operation: two CodeOverloaded rejections
// (one carrying a server hint, one without) and then success. The
// recorded sleeps must follow the policy exactly — the hint when
// present, the doubling backoff when not, each jittered into [d/2, d).
func TestRetrierHonorsHint(t *testing.T) {
	var slept []time.Duration
	r := Retrier{
		Attempts: 5,
		Base:     4 * time.Millisecond,
		Max:      time.Second,
		Sleep:    func(d time.Duration) { slept = append(slept, d) },
		Rand:     func() float64 { return 0.5 }, // jitter -> exactly 3d/4
	}
	calls := 0
	err := r.Do(func() error {
		calls++
		switch calls {
		case 1:
			return &api.Error{Code: api.CodeOverloaded, Msg: "shed", RetryAfterMillis: 8}
		case 2:
			return &api.Error{Code: api.CodeOverloaded, Msg: "shed"}
		default:
			return nil
		}
	})
	if err != nil {
		t.Fatalf("retried op failed: %v", err)
	}
	if calls != 3 {
		t.Fatalf("op ran %d times, want 3", calls)
	}
	// Attempt 1 was shed with an 8ms hint -> sleep 3/4 x 8ms = 6ms.
	// Attempt 2 was shed hintless; backoff had doubled 4ms -> 8ms, so
	// again 6ms — proving the hint path and the backoff path are both
	// in effect (the hint did NOT advance the backoff ladder).
	want := []time.Duration{6 * time.Millisecond, 6 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("sleep %d: %v, want %v (all: %v)", i, slept[i], want[i], slept)
		}
	}
}

// TestRetrierStopsOnOtherErrors: only CodeOverloaded retries; any
// other error — coded or plain — returns immediately with no sleep.
func TestRetrierStopsOnOtherErrors(t *testing.T) {
	r := Retrier{Sleep: func(time.Duration) { t.Fatal("slept on a non-overload error") }}
	calls := 0
	wantErr := &api.Error{Code: api.CodeNacked, Msg: "rejected"}
	err := r.Do(func() error { calls++; return wantErr })
	if calls != 1 || !errors.Is(err, wantErr) {
		t.Fatalf("calls=%d err=%v, want 1 call returning the nack", calls, err)
	}
	if IsOverloaded(err) {
		t.Fatal("nack classified as overload")
	}
}

// TestRetrierExhaustsAttempts: a permanently overloaded op runs
// exactly Attempts times and surfaces the final overload error with
// its hint intact.
func TestRetrierExhaustsAttempts(t *testing.T) {
	var slept int
	r := Retrier{Attempts: 3, Sleep: func(time.Duration) { slept++ }, Rand: func() float64 { return 0 }}
	calls := 0
	err := r.Do(func() error {
		calls++
		return &api.Error{Code: api.CodeOverloaded, Msg: "still shedding", RetryAfterMillis: 2}
	})
	if calls != 3 || slept != 2 {
		t.Fatalf("calls=%d sleeps=%d, want 3/2", calls, slept)
	}
	if !IsOverloaded(err) {
		t.Fatalf("final error not overloaded: %v", err)
	}
	if got := RetryAfter(err); got != 2*time.Millisecond {
		t.Fatalf("RetryAfter(err) = %v, want 2ms", got)
	}
}

// TestClientColdTimeout dials a black-holed listener — it accepts the
// TCP connection and then never responds — and checks the SDK's
// cold-request deadline turns the hang into a typed CodeTimeout within
// the configured budget instead of blocking forever.
func TestClientColdTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hole := make(chan net.Conn, 4)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			hole <- conn // hold the conn open, never read or write
		}
	}()
	defer func() {
		for {
			select {
			case conn := <-hole:
				conn.Close()
			default:
				return
			}
		}
	}()

	const budget = 300 * time.Millisecond
	start := time.Now()
	_, err = DialConfig(ln.Addr().String(), Config{Timeout: budget})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dial of a black-holed listener succeeded")
	}
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeTimeout {
		t.Fatalf("want CodeTimeout, got %v", err)
	}
	if elapsed > 10*budget {
		t.Fatalf("timeout took %v with a %v budget", elapsed, budget)
	}
}
