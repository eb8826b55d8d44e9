package harness

// Chaos tests: randomized fault schedules with a conservation check,
// anti-replay window behavior under socket-level reordering (within
// and beyond the 64-frame window), committee-member churn during
// pipelined replication, and one-way blackhole recovery through the
// read-idle timeout.
//
// Every schedule is derived from a seed. Reproduce a failure with
//
//	go test ./internal/harness -run TestChaosSchedule -seed=<seed>

import (
	"flag"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"teechain/internal/attack"
	"teechain/internal/chain"
	"teechain/internal/core"
	"teechain/internal/faultnet"
	"teechain/internal/tee"
	"teechain/internal/transport"
	"teechain/internal/wire"
)

// chaosSeed, when nonzero, replaces the built-in seed — CI's chaos job
// sweeps fixed seeds plus one time-derived seed through it.
var chaosSeed = flag.Int64("seed", 0, "run chaos schedules with this seed (0 = the built-in seed, 1)")

// chaosOpCount keeps tier-1 schedules short; the CI chaos job runs
// the same count per seed across many seeds.
const chaosOpCount = 40

// runChaosSchedule is the body of the three schedule tests: build the
// schedule for the seed (1, or -seed), run it against a real-TCP
// cluster with the fault layer active, check the conservation invariant
// (both channel endpoints agree, channels sum to their deposits,
// settled wallets hold exactly what was minted — Run errors otherwise),
// then replay the identical op sequence fault-free and require a
// bit-identical outcome. check, when set, inspects the schedule and its
// outcome further. One seed keeps tier-1 short (seed 2 alone takes 19 s
// per kind); CI's chaos job sweeps plain seeds 1–20, lossy 1–10 and
// routed 1–10 through -seed under the race detector. The three kinds
// share nothing, so they run in parallel.
func runChaosSchedule(t *testing.T, build func(seed int64) ChaosSchedule, check func(t *testing.T, s ChaosSchedule, got *ChaosReport)) {
	t.Parallel()
	seed := int64(1)
	if *chaosSeed != 0 {
		seed = *chaosSeed
	}
	name := t.Name()
	t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
		s := build(seed)
		faulted, err := s.Run(true, t.Logf)
		if err != nil {
			t.Fatalf("%v (reproduce: go test ./internal/harness -run '^%s$' -seed=%d)", err, name, seed)
		}
		clean, err := s.Run(false, t.Logf)
		if err != nil {
			t.Fatalf("fault-free replay: %v (seed %d)", err, seed)
		}
		if !reflect.DeepEqual(faulted, clean) {
			t.Fatalf("seed %d: faulted run diverged from fault-free replay:\nfaulted: %+v\nclean:   %+v",
				seed, faulted, clean)
		}
		if check != nil {
			check(t, s, faulted)
		}
		t.Logf("seed %d: %d ops, faulted == fault-free: %+v", seed, len(s.Ops), faulted)
	})
}

// TestChaosSchedule runs a randomized schedule of payments, multihops,
// partitions, kills and restarts.
func TestChaosSchedule(t *testing.T) {
	runChaosSchedule(t, func(seed int64) ChaosSchedule {
		return BuildChaosSchedule(seed, chaosOpCount, DefaultChaosTopology())
	}, nil)
}

// TestChaosScheduleLossy is TestChaosSchedule with lossy committee
// links: replication frames are dropped, truncated, duplicated, and
// reordered past the anti-replay window, and the run must STILL
// converge — self-healing replication (reorder buffer + NACK +
// retransmit + stall watchdog) recovers everything, Run fails any
// frozen chain, and the fault-free replay must be bit-identical.
func TestChaosScheduleLossy(t *testing.T) {
	runChaosSchedule(t, func(seed int64) ChaosSchedule {
		return BuildLossyChaosSchedule(seed, chaosOpCount, DefaultChaosTopology())
	}, nil)
}

// TestChaosScheduleRouted swaps the explicit-path multihops for routed
// payments: the spoke names only the sink's identity, the pathfinder
// supplies the hops and the hub's announced fee from the gossip graph,
// and the fee-aware analytic model must still balance exactly — under
// faults and in the fault-free replay, bit-identically.
func TestChaosScheduleRouted(t *testing.T) {
	runChaosSchedule(t, func(seed int64) ChaosSchedule {
		return BuildRoutedChaosSchedule(seed, chaosOpCount, RoutedChaosTopology())
	}, func(t *testing.T, s ChaosSchedule, got *ChaosReport) {
		routed := 0
		for _, op := range s.Ops {
			if op.Kind == OpRoutedPay {
				routed++
			}
		}
		if got.RoutedPays != routed {
			t.Fatalf("%d routed payments completed, schedule holds %d", got.RoutedPays, routed)
		}
		if routed > 0 && got.RoutedFees == 0 {
			t.Fatal("routed payments paid no fees; the fee model was not exercised")
		}
	})
}

// newRawPair builds two plain transport hosts (no fault layer) with b
// listening and a dialed through dial(b's address) — the beyond-window
// test routes the dial through an attack proxy.
func newRawPair(t *testing.T, dial func(listenAddr string) string) (a, b *transport.Host) {
	t.Helper()
	auth, err := tee.NewAuthority("chaos-test")
	if err != nil {
		t.Fatal(err)
	}
	lc := transport.NewLocalChain(chain.New())
	mk := func(name string) *transport.Host {
		h, err := transport.NewHost(transport.Config{
			Name: name, Authority: auth, Chain: lc, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Close)
		return h
	}
	a, b = mk("a"), mk("b")
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if dial != nil {
		addr = dial(addr)
	}
	if err := a.DialPeer(addr); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// holdRelease withholds the nth client→server frame matching code and
// re-injects it after releaseAfter further frames have passed in that
// direction — a deterministic way to deliver one frame arbitrarily
// far out of order.
func holdRelease(code byte, nth, releaseAfter int) attack.Mutator {
	var mu sync.Mutex
	var held []byte
	seen, since := 0, 0
	done := false
	return func(dir attack.Direction, frame []byte) [][]byte {
		if dir != attack.ClientToServer || done {
			return [][]byte{frame}
		}
		mu.Lock()
		defer mu.Unlock()
		if held == nil {
			if attack.FrameCode(frame) == code {
				seen++
				if seen == nth {
					held = append([]byte(nil), frame...)
					return nil
				}
			}
			return [][]byte{frame}
		}
		since++
		if since < releaseAfter {
			return [][]byte{frame}
		}
		done = true
		return [][]byte{frame, held}
	}
}

// TestChaosReplayWindowSocket exercises the session anti-replay
// window at the socket layer from both sides of its 64-frame depth:
//
//   - Reordering and duplication WITHIN the window (faultnet rules)
//     lose nothing: every payment applies exactly once, duplicates are
//     rejected, and both endpoints converge to the exact balances.
//   - A frame delivered ~80 frames LATE (attack proxy holding one Pay
//     back) falls behind the window and becomes frame loss: rejected
//     at the receiver, never acked at the sender, never double-applied
//     — and the books show exactly that one payment in flight forever.
func TestChaosReplayWindowSocket(t *testing.T) {
	t.Run("within-window", func(t *testing.T) {
		cc, err := NewChaosCluster(7, t.Logf, "a", "b")
		if err != nil {
			t.Fatal(err)
		}
		defer cc.Close()
		if err := cc.Connect("a", "b"); err != nil {
			t.Fatal(err)
		}
		id, err := cc.OpenChannel("a", "b", 10_000)
		if err != nil {
			t.Fatal(err)
		}
		chID := wire.ChannelID(id)
		cc.Net.SetRuleBoth("a", "b", faultnet.Rule{
			Dup:     0.5,
			Reorder: 0.5, ReorderDepth: 8, ReorderHold: 30 * time.Millisecond,
		})
		ha := cc.Host("a")
		const payments = 150
		for i := 0; i < payments; i++ {
			if err := ha.Pay(chID, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := ha.AwaitAcked(payments, ClusterTimeout); err != nil {
			t.Fatal(err)
		}
		st := cc.Net.Stats()
		t.Logf("faults: %+v", st)
		if st.Duplicated == 0 || st.Reordered == 0 {
			t.Fatalf("fault layer idle (%+v) — the test exercised nothing", st)
		}
		// Every duplicate must have been rejected by the window...
		if rej := cc.Host("b").Stats().FramesRejected; rej == 0 {
			t.Fatal("duplicates were injected but none rejected")
		}
		// ...and exactly one application of each payment remains.
		if got := cc.Host("b").Stats().PaymentsReceived; got != payments {
			t.Fatalf("b received %d payments, want exactly %d", got, payments)
		}
		for _, name := range []string{"a", "b"} {
			mine, remote, err := cc.Host(name).ChannelBalances(chID)
			if err != nil {
				t.Fatal(err)
			}
			want := [2]chain.Amount{10_000 - payments, payments}
			if name == "b" {
				want = [2]chain.Amount{payments, 10_000 - payments}
			}
			if mine != want[0] || remote != want[1] {
				t.Fatalf("%s sees %d/%d, want %d/%d", name, mine, remote, want[0], want[1])
			}
		}
	})

	t.Run("beyond-window", func(t *testing.T) {
		const (
			payments = 100
			heldNth  = 10 // the held payment
			lateBy   = 80 // frames it arrives late — past the 64-deep window
		)
		mutate := holdRelease(attack.MustCode(&wire.Pay{}), heldNth, lateBy)
		var proxy *attack.Proxy
		a, b := newRawPair(t, func(listenAddr string) string {
			var err error
			proxy, err = attack.NewProxy("127.0.0.1:0", listenAddr, mutate, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			return proxy.Addr()
		})
		defer proxy.Close()
		if err := a.Attest("b", ClusterTimeout); err != nil {
			t.Fatal(err)
		}
		chID, err := a.OpenChannel("b", ClusterTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.FundChannel(chID, 10_000, ClusterTimeout); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < payments; i++ {
			if err := a.Pay(chID, 1); err != nil {
				t.Fatal(err)
			}
		}
		// All but the held payment ack; the held one, released beyond
		// the window, is rejected as a stale counter — frame loss.
		if err := a.AwaitAcked(payments-1, ClusterTimeout); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(ClusterTimeout)
		for b.Stats().FramesRejected == 0 {
			if time.Now().After(deadline) {
				t.Fatal("late frame was never rejected")
			}
			time.Sleep(5 * time.Millisecond)
		}
		if got := b.Stats().PaymentsReceived; got != payments-1 {
			t.Fatalf("b received %d payments, want %d (late frame must be lost, not re-applied)", got, payments-1)
		}
		// The books pin the semantics: the sender debited the lost
		// payment when it issued (it will never ack), the receiver
		// never saw it.
		if mine, remote, err := a.ChannelBalances(chID); err != nil || mine != 10_000-payments {
			t.Fatalf("a sees %d/%d (%v), want mine=%d", mine, remote, err, 10_000-payments)
		}
		if mine, remote, err := b.ChannelBalances(chID); err != nil || mine != payments-1 {
			t.Fatalf("b sees %d/%d (%v), want mine=%d", mine, remote, err, payments-1)
		}
		if a.AckedTotal() != payments-1 {
			t.Fatalf("a acked %d, want %d", a.AckedTotal(), payments-1)
		}
	})
}

// TestChaosCommitteeChurn bounces both committee backups, one at a
// time, in the middle of pipelined replication waves (with a delay
// rule on the owner→backup link so ReplBatch frames are in flight
// when the network dies). Cumulative acks must resume after every
// bounce, the pipeline must drain, the mirrors must converge, and
// settlement must still collect its threshold signatures.
func TestChaosCommitteeChurn(t *testing.T) {
	cc, err := NewChaosCluster(11, t.Logf, "s", "r", "m1", "m2")
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.Connect("s", "r"); err != nil {
		t.Fatal(err)
	}
	if err := cc.FormCommittee("s", []string{"m1", "m2"}, 2); err != nil {
		t.Fatal(err)
	}
	const fund = 10_000
	id, err := cc.OpenChannel("s", "r", fund)
	if err != nil {
		t.Fatal(err)
	}
	chID := wire.ChannelID(id)
	hs := cc.Host("s")
	var chainID string
	hs.WithEnclave(func(e *core.Enclave) { chainID = e.ChainID() })

	// Keep replication frames in flight around the bounces.
	cc.Net.SetRuleBoth("s", "m1", faultnet.Rule{DelayMin: time.Millisecond, DelayMax: 4 * time.Millisecond})

	const wave = 100
	acked := uint64(0)
	pay := func(n int) {
		for i := 0; i < n; i++ {
			if err := hs.Pay(chID, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	churnWave := func(victim string) {
		pay(wave / 2)
		if err := cc.Bounce(victim); err != nil {
			t.Fatal(err)
		}
		pay(wave / 2)
		acked += wave
		// Payment acks are gated on replication acks, so reaching the
		// target means the cumulative ack cursor crossed the bounce.
		if err := hs.AwaitAcked(acked, ClusterTimeout); err != nil {
			t.Fatalf("acks never resumed after bouncing %s: %v", victim, err)
		}
	}

	pay(wave)
	acked += wave
	if err := hs.AwaitAcked(acked, ClusterTimeout); err != nil {
		t.Fatal(err)
	}
	churnWave("m1")
	churnWave("m2")

	const total = 3 * wave
	deadline := time.Now().Add(ClusterTimeout)
	for {
		st, ok := hs.CommitteeStats()
		if ok && st.AckSeq == st.NextSeq && st.Queued == 0 {
			t.Logf("pipeline drained: flush=%d ack=%d batches=%d ops=%d",
				st.FlushSeq, st.AckSeq, st.BatchesOut, st.OpsOut)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication pipeline never drained: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	for _, m := range []string{"m1", "m2"} {
		deadline := time.Now().Add(ClusterTimeout)
		for {
			var got *core.ChannelState
			cc.Host(m).WithEnclave(func(e *core.Enclave) {
				if mirror, ok := e.MirrorState(chainID); ok {
					got = mirror.Channels[chID]
				}
			})
			if got != nil && got.MyBal == fund-total && got.RemoteBal == total {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s mirror never converged to %d/%d (last %+v)", m, fund-total, total, got)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if rec := hs.Stats().Reconnects; rec == 0 {
		t.Fatal("no reconnects recorded — the bounces exercised nothing")
	}
	// Threshold settlement still works after the churn.
	if err := hs.Settle(chID); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(ClusterTimeout)
	for cc.Balance("s") != fund-total || cc.Balance("r") != total {
		cc.MineBlocks(1)
		if time.Now().After(deadline) {
			t.Fatalf("settlement after churn: s=%d r=%d, want %d/%d",
				cc.Balance("s"), cc.Balance("r"), fund-total, total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosCommitteeChurnLossy is committee-member churn on a LOSSY
// link: a drop+reorder+dup rule stays active on the owner→m1 link the
// whole time, and m1 is bounced in the middle of a pipelined ReplBatch
// stream. Lost frames NACK and retransmit, lost acks repair through
// Retx duplicates, the bounce recovers through the resend ring, and
// both mirrors must converge to bit-identical channel state with zero
// frozen chains.
func TestChaosCommitteeChurnLossy(t *testing.T) {
	cc, err := NewChaosClusterWith(17, t.Logf, func(cfg *transport.Config) {
		cfg.ReplStallTicks = 25 // ~50ms watchdog: heal lost NACKs fast
	}, "s", "r", "m1", "m2")
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.Connect("s", "r"); err != nil {
		t.Fatal(err)
	}
	if err := cc.FormCommittee("s", []string{"m1", "m2"}, 2); err != nil {
		t.Fatal(err)
	}
	const fund = 10_000
	id, err := cc.OpenChannel("s", "r", fund)
	if err != nil {
		t.Fatal(err)
	}
	chID := wire.ChannelID(id)
	hs := cc.Host("s")
	var chainID string
	hs.WithEnclave(func(e *core.Enclave) { chainID = e.ChainID() })

	// The lossy rule stays up for the whole run: every fifth frame or
	// so vanishes, others arrive out of order or twice.
	cc.Net.SetRuleBoth("s", "m1", faultnet.Rule{
		Drop:    0.2,
		Dup:     0.2,
		Reorder: 0.3, ReorderDepth: 6, ReorderHold: 30 * time.Millisecond,
		DelayMin: time.Millisecond, DelayMax: 3 * time.Millisecond,
	})

	const wave = 100
	acked := uint64(0)
	pay := func(n int) {
		for i := 0; i < n; i++ {
			if err := hs.Pay(chID, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Wave 1: pure loss, no churn — NACK/retransmit alone must drain.
	pay(wave)
	acked += wave
	if err := hs.AwaitAcked(acked, ClusterTimeout); err != nil {
		t.Fatalf("acks never drained under loss: %v", err)
	}
	// Wave 2: bounce m1 mid-stream with the rule still active.
	pay(wave / 2)
	if err := cc.Bounce("m1"); err != nil {
		t.Fatal(err)
	}
	pay(wave / 2)
	acked += wave
	if err := hs.AwaitAcked(acked, ClusterTimeout); err != nil {
		t.Fatalf("acks never resumed after lossy bounce: %v", err)
	}

	const total = 2 * wave
	deadline := time.Now().Add(ClusterTimeout)
	for {
		st, ok := hs.CommitteeStats()
		if ok && st.AckSeq == st.NextSeq && st.Queued == 0 {
			t.Logf("pipeline drained under loss: ack=%d nacks=%d retx=%d stalls=%d",
				st.AckSeq, st.NacksIn, st.Retransmits, st.Stalls)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication pipeline never drained: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	// Both mirrors converge to bit-identical channel state.
	mirrorChan := func(m string) *core.ChannelState {
		var got *core.ChannelState
		cc.Host(m).WithEnclave(func(e *core.Enclave) {
			if mirror, ok := e.MirrorState(chainID); ok {
				got = mirror.Channels[chID]
			}
		})
		return got
	}
	for _, m := range []string{"m1", "m2"} {
		deadline := time.Now().Add(ClusterTimeout)
		for {
			if got := mirrorChan(m); got != nil && got.MyBal == fund-total && got.RemoteBal == total {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s mirror never converged to %d/%d (last %+v)", m, fund-total, total, mirrorChan(m))
			}
			time.Sleep(time.Millisecond)
		}
	}
	m1c, m2c := mirrorChan("m1"), mirrorChan("m2")
	if m1c.MyBal != m2c.MyBal || m1c.RemoteBal != m2c.RemoteBal {
		t.Fatalf("mirrors diverged: m1 %d/%d, m2 %d/%d", m1c.MyBal, m1c.RemoteBal, m2c.MyBal, m2c.RemoteBal)
	}

	// Zero frozen chains, and the loss machinery actually fired.
	for _, name := range []string{"s", "m1", "m2"} {
		if st, ok := cc.Host(name).CommitteeStats(); ok && (st.Frozen || st.FrozenMirrors > 0) {
			t.Fatalf("%s froze under message loss: %+v", name, st)
		}
	}
	fst := cc.Net.Stats()
	t.Logf("faults injected: %+v", fst)
	if fst.Dropped == 0 {
		t.Fatal("no frames dropped — the lossy rule exercised nothing")
	}

	// Threshold settlement still works after lossy churn.
	cc.Net.ClearRules()
	if err := hs.Settle(chID); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(ClusterTimeout)
	for cc.Balance("s") != fund-total || cc.Balance("r") != total {
		cc.MineBlocks(1)
		if time.Now().After(deadline) {
			t.Fatalf("settlement after lossy churn: s=%d r=%d, want %d/%d",
				cc.Balance("s"), cc.Balance("r"), fund-total, total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosBlackholeRecovery wedges the ack direction of a link with a
// one-way blackhole — the failure TCP cannot see — and verifies the
// read-idle timeout breaks the wedge: the sender drops the silent
// connection, redials, and the receiver's resend ring re-delivers the
// lost acks.
func TestChaosBlackholeRecovery(t *testing.T) {
	cc, err := NewChaosClusterWith(13, t.Logf, func(cfg *transport.Config) {
		cfg.ReadIdleTimeout = 400 * time.Millisecond
	}, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.Connect("a", "b"); err != nil {
		t.Fatal(err)
	}
	id, err := cc.OpenChannel("a", "b", 1_000)
	if err != nil {
		t.Fatal(err)
	}
	chID := wire.ChannelID(id)
	ha, hb := cc.Host("a"), cc.Host("b")

	const healthy = 20
	for i := 0; i < healthy; i++ {
		if err := ha.Pay(chID, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := ha.AwaitAcked(healthy, ClusterTimeout); err != nil {
		t.Fatal(err)
	}

	// Blackhole only b→a: payments keep flowing, acks vanish silently.
	cc.Net.SetRule("b", "a", faultnet.Rule{Blackhole: true})
	const wedged = 10
	for i := 0; i < wedged; i++ {
		if err := ha.Pay(chID, 1); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(ClusterTimeout)
	for hb.Stats().PaymentsReceived < healthy+wedged {
		if time.Now().After(deadline) {
			t.Fatalf("b received %d payments, want %d — the a→b direction must stay up",
				hb.Stats().PaymentsReceived, healthy+wedged)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := ha.AckedTotal(); got != healthy {
		t.Fatalf("a acked %d during the blackhole, want %d (acks must be wedged)", got, healthy)
	}

	// Heal. Nothing retransmits acks on a live connection — recovery
	// requires the idle timeout to kill it so the redial's ring resend
	// can re-deliver them.
	cc.Net.ClearRules()
	if err := ha.AwaitAcked(healthy+wedged, ClusterTimeout); err != nil {
		t.Fatalf("acks never recovered from the blackhole: %v", err)
	}
	if ha.Stats().Reconnects == 0 {
		t.Fatal("no reconnect recorded — recovery did not go through the idle timeout")
	}
	for _, h := range []*transport.Host{ha, hb} {
		mine, remote, err := h.ChannelBalances(chID)
		if err != nil {
			t.Fatal(err)
		}
		total := mine + remote
		if total != 1_000 {
			t.Fatalf("%s: channel sums to %d, want 1000", h.Name(), total)
		}
	}
	mine, _, err := ha.ChannelBalances(chID)
	if err != nil {
		t.Fatal(err)
	}
	if mine != 1_000-healthy-wedged {
		t.Fatalf("a's balance %d, want %d", mine, 1_000-healthy-wedged)
	}
}
