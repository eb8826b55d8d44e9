package harness

// Real-TCP committee-chain integration tests: replicated payments on
// the lane fast path with the batched/pipelined replication flusher,
// committee-member connection failure mid-stream, and threshold-signed
// settlement — the deployed-with-replication scenario of the paper's
// evaluation (§7, Fig. 8-9). All workloads drive through the typed
// control-plane client (internal/api/client); the legacy line shim is
// covered separately by TestCommitteeControlCommands.

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"teechain/internal/api"
	"teechain/internal/api/client"
	"teechain/internal/chain"
	"teechain/internal/core"
	"teechain/internal/transport"
	"teechain/internal/wire"
)

// controlFor serves the control API for a host and returns a connected
// line-protocol client, both torn down with the test.
func controlFor(t *testing.T, h *transport.Host) *transport.ControlClient {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.ServeControl(ln, h)
	t.Cleanup(srv.Close)
	cc, err := transport.DialControl(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })
	return cc
}

// committeeCluster builds sender s (committee of two members m1, m2,
// threshold 2), receiver r, with a funded s->r channel.
func committeeCluster(t *testing.T, fund chain.Amount) (*Cluster, wire.ChannelID) {
	t.Helper()
	c, err := NewCluster("s", "r", "m1", "m2")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Connect("s", "r"); err != nil {
		t.Fatal(err)
	}
	if err := c.FormCommittee("s", []string{"m1", "m2"}, 2); err != nil {
		t.Fatal(err)
	}
	id, err := c.OpenChannel("s", "r", fund)
	if err != nil {
		t.Fatal(err)
	}
	return c, wire.ChannelID(id)
}

// issuePayments pushes count payments of amount over chID in PayBatch
// frames of batch through the typed client, returning the completion
// handles unresolved — the failover test issues while the committee is
// unreachable, when no handle may complete.
func issuePayments(t *testing.T, cc *client.Conn, chID wire.ChannelID, amount chain.Amount, count, batch int) []*client.Pending {
	t.Helper()
	handles := make([]*client.Pending, 0, count/batch+1)
	amounts := make([]chain.Amount, 0, batch)
	for sent := 0; sent < count; {
		n := min(batch, count-sent)
		amounts = amounts[:0]
		for i := 0; i < n; i++ {
			amounts = append(amounts, amount)
		}
		h, err := cc.PayBatchAsync(chID, amounts)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		sent += n
	}
	return handles
}

// pumpPayments is issuePayments plus waiting for every batch's acks.
func pumpPayments(t *testing.T, cc *client.Conn, chID wire.ChannelID, amount chain.Amount, count, batch int) {
	t.Helper()
	for _, h := range issuePayments(t, cc, chID, amount, count, batch) {
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// committeeStats fetches the committee pipeline snapshot through the
// typed API.
func committeeStats(t *testing.T, cc *client.Conn) (api.CommitteeStatsEntry, bool) {
	t.Helper()
	st, err := cc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st.Committee, st.HasCommittee
}

// awaitReplDrained polls until the node's replication log is fully
// acknowledged. Payment acks imply the payment ops drained, but effect-
// free cold commits (e.g. the RegisterPayoutKey a reconnect hello
// triggers) have no user-visible ack to wait on.
func awaitReplDrained(t *testing.T, cc *client.Conn) api.CommitteeStatsEntry {
	t.Helper()
	deadline := time.Now().Add(ClusterTimeout)
	for {
		st, ok := committeeStats(t, cc)
		if ok && st.AckSeq == st.NextSeq {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication log never drained: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitMirror polls until the named member's mirror of s's chain shows
// the expected channel balances.
func awaitMirror(t *testing.T, c *Cluster, member, chainID string, chID wire.ChannelID, mine, remote chain.Amount) {
	t.Helper()
	deadline := time.Now().Add(ClusterTimeout)
	for {
		var got *core.ChannelState
		c.Host(member).WithEnclave(func(e *core.Enclave) {
			if mirror, ok := e.MirrorState(chainID); ok {
				got = mirror.Channels[chID]
			}
		})
		if got != nil && got.MyBal == mine && got.RemoteBal == remote {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s mirror never reached %d/%d (last: %+v)", member, mine, remote, got)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClusterCommitteePayments runs replicated payments over real TCP:
// the sender pays on its lanes (the chain NewHost yields is pipelined,
// so the flusher's ReplBatch counters move and nothing takes another
// path), the flusher batches the ops down the chain, mirrors converge
// to the owner's balances, and settlement collects the 2-of-3 threshold
// signatures from the members over the sockets.
func TestClusterCommitteePayments(t *testing.T) {
	c, chID := committeeCluster(t, 10_000)
	cs := c.Client("s")

	var chainID string
	c.Host("s").WithEnclave(func(e *core.Enclave) { chainID = e.ChainID() })

	const payments = 400
	pumpPayments(t, cs, chID, 2, payments, 16)

	mine, remote, err := cs.Balances(chID)
	if err != nil {
		t.Fatal(err)
	}
	if mine != 10_000-2*payments || remote != 2*payments {
		t.Fatalf("balances %d/%d, want %d/%d", mine, remote, 10_000-2*payments, 2*payments)
	}
	awaitMirror(t, c, "m1", chainID, chID, mine, remote)
	awaitMirror(t, c, "m2", chainID, chID, mine, remote)

	// The pipeline must drain completely once everything is acked.
	st := awaitReplDrained(t, cs)
	if st.Queued != 0 || st.Window != 0 {
		t.Fatalf("pipeline not drained: %+v", st)
	}
	if st.BatchesOut == 0 || st.OpsOut < payments/16 {
		t.Fatalf("flusher counters implausible: %+v", st)
	}

	// Settlement: the committee deposit needs 2-of-3 signatures, fetched
	// from the members over TCP.
	if err := cs.Settle(chID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(ClusterTimeout)
	for c.Balance("s") != 10_000-2*payments || c.Balance("r") != 2*payments {
		c.MineBlocks(1)
		if time.Now().After(deadline) {
			t.Fatalf("on-chain settlement: s=%d r=%d, want %d/%d",
				c.Balance("s"), c.Balance("r"), 10_000-2*payments, 2*payments)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterCommitteeFailover kills and restarts the first backup's
// network mid-stream: ReplBatch frames queued while it was unreachable
// must be delivered exactly once after the automatic reconnect,
// cumulative acks must resume, and the final balances must be
// bit-identical to an unreplicated run of the same workload.
func TestClusterCommitteeFailover(t *testing.T) {
	const (
		fund     = 10_000
		amount   = 3
		phase    = 100 // payments before and after the failure
		batch    = 10
		expected = chain.Amount(2 * phase * amount)
	)
	c, chID := committeeCluster(t, fund)
	cs := c.Client("s")
	m1 := c.Host("m1")
	var chainID string
	c.Host("s").WithEnclave(func(e *core.Enclave) { chainID = e.ChainID() })

	// Phase 1: payments while the whole chain is healthy. A completed
	// handle implies the replication acks returned too (a payment's
	// frame is only released to the receiver after its op is
	// acknowledged), so after this no replication frame is in flight.
	pumpPayments(t, cs, chID, amount, phase, batch)

	// Kill the backup's network: listener gone, every connection dead on
	// both ends. The sender's writer queues replication frames and
	// redials with backoff.
	addr := m1.ListenAddr()
	m1.CloseListener()
	m1.DropConnections()
	c.Host("s").DropConnections()

	// Phase 2: payments while the backup is unreachable. They commit
	// optimistically and their effects stay withheld — no ack may arrive
	// without the chain, so the handles stay pending.
	preStats, err := cs.Stats()
	if err != nil {
		t.Fatal(err)
	}
	handles := issuePayments(t, cs, chID, amount, phase, batch)
	if st, err := cs.Stats(); err != nil || st.Host.PaymentsAcked != preStats.Host.PaymentsAcked {
		t.Fatalf("payments acked while the backup was down: %d -> %d (%v)",
			preStats.Host.PaymentsAcked, st.Host.PaymentsAcked, err)
	}

	// Restart the backup's listener on the same address; the redial
	// delivers the queued ReplBatch frames in order, exactly once, and
	// every pending handle completes.
	if _, err := m1.Listen(addr); err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		if err := h.Wait(); err != nil {
			t.Fatalf("pending batch %d never settled after reconnect: %v", i, err)
		}
	}

	mine, remote, err := cs.Balances(chID)
	if err != nil {
		t.Fatal(err)
	}
	if mine != fund-expected || remote != expected {
		t.Fatalf("balances %d/%d, want %d/%d", mine, remote, fund-expected, expected)
	}
	// Exactly once: had any queued batch been applied twice, the mirrors
	// would have over-debited; a gap would have frozen the chain.
	awaitMirror(t, c, "m1", chainID, chID, mine, remote)
	awaitMirror(t, c, "m2", chainID, chID, mine, remote)
	var frozen bool
	m1.WithEnclave(func(e *core.Enclave) {
		if mirror, ok := e.MirrorState(chainID); ok {
			frozen = mirror.Frozen
		}
	})
	if frozen {
		t.Fatal("chain froze across the reconnect")
	}
	if st, err := cs.Stats(); err != nil || st.Host.Reconnects == 0 {
		t.Fatalf("sender reports no reconnects (%v); the drop did not exercise the redial path", err)
	}
	awaitReplDrained(t, cs)

	// Bit-identical to an unreplicated run of the same workload.
	plain, err := NewCluster("ps", "pr")
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if err := plain.Connect("ps", "pr"); err != nil {
		t.Fatal(err)
	}
	pid, err := plain.OpenChannel("ps", "pr", fund)
	if err != nil {
		t.Fatal(err)
	}
	pumpPayments(t, plain.Client("ps"), wire.ChannelID(pid), amount, 2*phase, batch)
	pMine, pRemote, err := plain.Client("ps").Balances(wire.ChannelID(pid))
	if err != nil {
		t.Fatal(err)
	}
	if pMine != mine || pRemote != remote {
		t.Fatalf("replicated run diverged from unreplicated run: %d/%d vs %d/%d",
			mine, remote, pMine, pRemote)
	}
}

// TestCommitteeControlCommands drives committee formation and the
// replication stats through the legacy line-based control shim.
func TestCommitteeControlCommands(t *testing.T) {
	c, err := NewCluster("s", "r", "m1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Connect("s", "r"); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect("s", "m1"); err != nil {
		t.Fatal(err)
	}
	cc := controlFor(t, c.Host("s"))

	if _, err := cc.Do("stats committee"); err == nil {
		t.Fatal("stats committee succeeded before formation")
	}
	out, err := cc.Do("committee m1 2")
	if err != nil {
		t.Fatal(err)
	}
	var chainID string
	if _, err := fmt.Sscanf(out, "chain %s ready", &chainID); err != nil {
		t.Fatalf("committee response %q: %v", out, err)
	}
	chID, err := cc.Do("open r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Do(fmt.Sprintf("fund %s 1000", chID)); err != nil {
		t.Fatal(err)
	}
	if out, err := cc.Do(fmt.Sprintf("pay %s 5 40 8", chID)); err != nil || out != "40 acked" {
		t.Fatalf("pay: %q, %v", out, err)
	}
	stats, err := cc.Do("stats committee")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("chain=%s next=", chainID)
	if !strings.HasPrefix(stats, want) {
		t.Fatalf("stats committee %q does not start with %q", stats, want)
	}
}
