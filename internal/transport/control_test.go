package transport

// Shim-layer tests: every legacy line command's usage/error branch
// runs against a stub backend (no sockets, no enclaves), the parser is
// fuzzed for robustness, and the protocol sniffer is exercised with
// both a line client and a typed client sharing one listener.

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	"teechain/internal/api"
	"teechain/internal/api/client"
	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// stubBackend answers every control operation with fixed values.
type stubBackend struct{}

func (stubBackend) Info() api.NodeInfo { return api.NodeInfo{Name: "stub"} }
func (stubBackend) Peers() []api.PeerInfo {
	return []api.PeerInfo{{Name: "a"}, {Name: "b"}}
}
func (stubBackend) Dial(string) error                  { return nil }
func (stubBackend) Attest(string, time.Duration) error { return nil }
func (stubBackend) OpenChannel(string, time.Duration) (wire.ChannelID, error) {
	return "ch-stub", nil
}
func (stubBackend) Deposit(wire.ChannelID, chain.Amount, time.Duration) (chain.OutPoint, error) {
	return chain.OutPoint{Index: 1}, nil
}
func (stubBackend) Pay(ch wire.ChannelID, _ chain.Amount, count int) (api.PayCursor, error) {
	return api.PayCursor{Channel: ch, Target: uint64(count)}, nil
}
func (stubBackend) PayBatch(ch wire.ChannelID, amounts []chain.Amount) (api.PayCursor, error) {
	return api.PayCursor{Channel: ch, Target: uint64(len(amounts))}, nil
}
func (stubBackend) AwaitPaid(api.PayCursor, time.Duration) error         { return nil }
func (stubBackend) Multihop(chain.Amount, []string, time.Duration) error { return nil }
func (stubBackend) Route(string, chain.Amount) (api.RouteInfo, error) {
	return api.RouteInfo{Hops: make([]cryptoutil.PublicKey, 3), Fees: []chain.Amount{0, 2, 0}, Amount: 10, Send: 12}, nil
}
func (stubBackend) PayRouted(string, chain.Amount, time.Duration) (api.RouteInfo, error) {
	return api.RouteInfo{Hops: make([]cryptoutil.PublicKey, 2), Amount: 10, Send: 10}, nil
}
func (stubBackend) FormCommittee([]string, int, time.Duration) (string, error) {
	return "cc-stub", nil
}
func (stubBackend) Settle(wire.ChannelID) error { return nil }
func (stubBackend) Balances(wire.ChannelID) (chain.Amount, chain.Amount, error) {
	return 7, 3, nil
}
func (stubBackend) Mine(int) (uint64, error)             { return 9, nil }
func (stubBackend) WalletBalance() (chain.Amount, error) { return 42, nil }
func (stubBackend) Stats() api.StatsResp {
	return api.StatsResp{
		Channels: []api.ChannelStatsEntry{{Channel: "ch-stub", Sent: 1, Acked: 1}},
		Routing:  api.RoutingStatsEntry{Nodes: 4, Edges: 6, Suppressed: 2, FeeBase: 5, FeeRatePPM: 10_000},
	}
}
func (stubBackend) Subscribe(func(api.Event)) func() { return func() {} }
func (stubBackend) WalStats() api.WalStatsResp {
	return api.WalStatsResp{Durable: true, NextSeq: 7, SyncedSeq: 7, Fsyncs: 3, Snapshots: 1}
}
func (stubBackend) SnapshotNow() (uint64, error)             { return 7, nil }
func (stubBackend) Recover(time.Duration) (bool, int, error) { return true, 2, nil }

// TestShimLineBranches covers every command's success, usage, and
// bad-argument branch through the translation layer.
func TestShimLineBranches(t *testing.T) {
	h := api.NewHandler(stubBackend{})
	cases := []struct {
		line string
		want string // exact response, or prefix when ending in *
	}{
		{"ping", "ok pong"},
		{"identity", "ok " + api.FormatIdentity(cryptoutil.PublicKey{})},
		{"wallet", "ok " + strings.Repeat("0", 40)},
		{"peers", "ok a=" + api.FormatIdentity(cryptoutil.PublicKey{}) + " b=" + api.FormatIdentity(cryptoutil.PublicKey{})},
		{"dial localhost:1", "ok"},
		{"dial", "err usage: dial <addr>"},
		{"dial a b", "err usage: dial <addr>"},
		{"attest hub", "ok"},
		{"attest", "err usage: attest <name>"},
		{"open hub", "ok ch-stub"},
		{"open", "err usage: open <name>"},
		{"fund ch-stub 100", "ok *"},
		{"fund ch-stub", "err usage: fund <channel> <amount>"},
		{"fund ch-stub 0", `err bad amount "0"`},
		{"fund ch-stub abc", `err bad amount "abc"`},
		{"pay ch 5", "ok 1 acked"},
		{"pay ch 5 20", "ok 20 acked"},
		{"pay ch 5 20 8", "ok 20 acked"},
		{"pay", "err usage: pay <channel> <amount> [count [batch]]"},
		{"pay ch 5 1 1 1", "err usage: pay <channel> <amount> [count [batch]]"},
		{"pay ch 0", `err bad amount "0"`},
		{"pay ch 5 0", `err bad count "0"`},
		{"pay ch 5 9999999999", `err bad count "9999999999"`},
		{"pay ch 5 2 0", `err bad batch size "0"`},
		{"paymh 5 hub spoke", "ok"},
		{"paymh 5 hub", "err usage: paymh <amount> <hop> <hop>..."},
		{"paymh", "err usage: paymh <amount> <hop> <hop>..."},
		{"paymh abc hub spoke", `err bad amount "abc"`},
		{"route hub 10", "ok hops 3 send 12 fee 2 via *"},
		{"route hub", "err usage: route <target> <amount>"},
		{"route hub abc", `err bad amount "abc"`},
		{"payroute hub 10", "ok hops 2 send 10 fee 0 via *"},
		{"payroute", "err usage: payroute <target> <amount>"},
		{"payroute hub 0", `err bad amount "0"`},
		{"committee m1 m2 2", "ok chain cc-stub ready"},
		{"committee", "err usage: committee <peer>... <m>"},
		{"committee m1 0", `err bad threshold "0"`},
		{"committee m1 x", `err bad threshold "x"`},
		{"settle ch", "ok"},
		{"settle", "err usage: settle <channel>"},
		{"balances ch", "ok 7 3"},
		{"balances", "err usage: balances <channel>"},
		{"mine", "ok height 9"},
		{"mine 3", "ok height 9"},
		{"mine 1 2", "err usage: mine [n]"},
		{"mine abc", `err bad block count "abc"`},
		{"balance", "ok 42"},
		{"stats", "ok sent=0 *"},
		{"stats channels", "ok ch-stub sent=1 *"},
		{"stats committee", "err no committee formed or mirrored"},
		{"stats routing", "ok nodes=4 edges=6 suppressed=2 dropped=0 fee_base=5 fee_rate_ppm=10000"},
		{"stats bogus", "err usage: stats [channels|committee|routing]"},
		{"bogus", `err unknown command "bogus"`},
		{"", "err empty command"},
	}
	for _, tc := range cases {
		got := shimLine(h, tc.line)
		if want, isPrefix := strings.CutSuffix(tc.want, "*"); isPrefix {
			if !strings.HasPrefix(got, want) {
				t.Errorf("%q -> %q, want prefix %q", tc.line, got, want)
			}
		} else if got != tc.want {
			t.Errorf("%q -> %q, want %q", tc.line, got, tc.want)
		}
	}
}

// overloadedStub rejects every payment with CodeOverloaded and reports
// admission counters, exercising the shim's backpressure rendering.
type overloadedStub struct{ stubBackend }

func (overloadedStub) Pay(wire.ChannelID, chain.Amount, int) (api.PayCursor, error) {
	return api.PayCursor{}, &api.Error{Code: api.CodeOverloaded, Msg: "transport: overloaded: stub", RetryAfterMillis: 7}
}
func (overloadedStub) PayBatch(wire.ChannelID, []chain.Amount) (api.PayCursor, error) {
	return api.PayCursor{}, &api.Error{Code: api.CodeOverloaded, Msg: "transport: overloaded: stub", RetryAfterMillis: 7}
}
func (overloadedStub) Stats() api.StatsResp {
	return api.StatsResp{
		Host: api.HostStats{
			PaymentsRejected: 3,
			PaymentsInflight: 2,
			ShedStarts:       1,
			Shedding:         true,
		},
		HasCommittee: true,
		Committee:    api.CommitteeStatsEntry{Chain: "cc-stub", Stalled: true, Stalls: 4},
	}
}

// TestShimOverloaded pins the machine-parseable line-mode backpressure:
// a shed payment answers "err overloaded retry-ms=<hint>", and the
// stats commands expose the admission and stall counters.
func TestShimOverloaded(t *testing.T) {
	h := api.NewHandler(overloadedStub{})
	if got, want := shimLine(h, "pay ch 5"), "err overloaded retry-ms=7"; got != want {
		t.Errorf("shed pay -> %q, want %q", got, want)
	}
	if got, want := shimLine(h, "pay ch 5 4 2"), "err overloaded retry-ms=7"; got != want {
		t.Errorf("shed batched pay -> %q, want %q", got, want)
	}
	got := shimLine(h, "stats")
	for _, want := range []string{"rejected=3", "inflight=2", "shed_starts=1", "shedding=true"} {
		if !strings.Contains(got, want) {
			t.Errorf("stats %q missing %q", got, want)
		}
	}
	got = shimLine(h, "stats committee")
	for _, want := range []string{"stalled=true", "stalls=4"} {
		if !strings.Contains(got, want) {
			t.Errorf("stats committee %q missing %q", got, want)
		}
	}
}

// FuzzShimLine fuzzes the line-protocol parser: whatever arrives on a
// control connection, the shim must answer exactly one "ok"/"err" line
// and never panic.
func FuzzShimLine(f *testing.F) {
	for _, seed := range []string{
		"ping", "identity", "peers", "pay ch 5 20 8", "fund ch 100",
		"paymh 5 a b", "committee m1 m2 2", "stats channels", "mine 3",
		"pay ch 99999999999999999999 2", "open \x00\xff", "fund ch -1",
		"pay ch 5 1048577", "dial [::1]:0",
	} {
		f.Add(seed)
	}
	h := api.NewHandler(stubBackend{})
	f.Fuzz(func(t *testing.T, line string) {
		got := shimLine(h, line)
		if got != "ok" && !strings.HasPrefix(got, "ok ") && !strings.HasPrefix(got, "err ") {
			t.Fatalf("%q -> malformed response %q", line, got)
		}
		if strings.ContainsRune(got, '\n') {
			t.Fatalf("%q -> multi-line response %q", line, got)
		}
	})
}

// TestTypedHelloGate covers the typed server's connection gating: a
// version-mismatched hello is rejected with CodeVersion and the
// connection closes; a request before hello gets CodeBadRequest.
func TestTypedHelloGate(t *testing.T) {
	alice, _, _ := setupPair(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cs := ServeControl(ln, alice)
	defer cs.Close()

	roundTrip := func(req api.Request) api.Response {
		t.Helper()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		frame, err := wire.AppendFrame(nil, cryptoutil.PublicKey{}, nil, req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		fr := wire.NewFrameReader(bufio.NewReader(conn))
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("no response: %v", err)
		}
		resp, ok := f.Msg.(api.Response)
		if !ok {
			t.Fatalf("response is %T", f.Msg)
		}
		// The server must close the connection after a gate rejection.
		if _, err := fr.Next(); err == nil {
			t.Fatal("connection stayed open after gate rejection")
		}
		return resp
	}

	// 99 is a version from the future; Version-1 is the previous
	// release, whose routing messages were gob where this one's are
	// binary — it must be turned away here, not at its first routed
	// payment.
	for _, v := range []uint16{99, api.Version - 1} {
		resp := roundTrip(&api.HelloReq{Version: v})
		if code, _ := resp.Status(); code != api.CodeVersion {
			t.Fatalf("hello with version %d: %v", v, code)
		}
	}
	resp := roundTrip(&api.StatsReq{})
	if code, _ := resp.Status(); code != api.CodeBadRequest {
		t.Fatalf("request before hello: %v", code)
	}
}

// TestControlSniffsBothProtocols serves one control listener and
// drives it simultaneously with the legacy line client and the typed
// SDK — the deployment story for teechain-node's single control port.
func TestControlSniffsBothProtocols(t *testing.T) {
	alice, _, _ := setupPair(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cs := ServeControl(ln, alice)
	defer cs.Close()

	lc, err := DialControl(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	tc, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	if out, err := lc.Do("ping"); err != nil || out != "pong" {
		t.Fatalf("line ping: %q, %v", out, err)
	}
	if tc.Info().Name != "alice" {
		t.Fatalf("typed hello: %+v", tc.Info())
	}
	// Line command's result visible through the typed client and vice
	// versa: both speak to the same backend.
	if _, err := lc.Do("attest bob"); err != nil {
		t.Fatal(err)
	}
	peers, err := tc.Peers()
	if err != nil || len(peers) != 1 || peers[0].Name != "bob" {
		t.Fatalf("typed peers after line attest: %+v, %v", peers, err)
	}
	chID, err := tc.OpenChannel("bob")
	if err != nil {
		t.Fatal(err)
	}
	if out, err := lc.Do("balances " + string(chID)); err != nil || out != "0 0" {
		t.Fatalf("line balances of typed-opened channel: %q, %v", out, err)
	}
}
