package harness

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
	"time"

	"teechain/internal/chain"
	"teechain/internal/core"
)

// TestParallelHarnessDeterminism pins the contract of the parallel
// experiment harness: running a sweep across the worker pool yields
// results bit-identical to the serial sweep, because every
// configuration owns an isolated deployment and a simulation is
// deterministic regardless of which goroutine steps it.
func TestParallelHarnessDeterminism(t *testing.T) {
	machines := []int{3, 4}
	committees := []int{1, 2}

	prev := SetWorkers(1)
	defer SetWorkers(prev)
	serial, err := RunFigure6(machines, committees, 200)
	if err != nil {
		t.Fatal(err)
	}

	SetWorkers(4)
	parallel, err := RunFigure6(machines, committees, 200)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel run diverged from serial run:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}

	// A second parallel run must also be bit-identical: no hidden
	// cross-run state (pools, caches) may leak into results.
	again, err := RunFigure6(machines, committees, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parallel, again) {
		t.Fatalf("repeated parallel run diverged:\nfirst:  %+v\nsecond: %+v", parallel, again)
	}
}

// replicatedDeploymentDigest is the pinned digest of a small replicated
// deployment: a two-replica committee owner paying a counterparty 200
// times, hashing final balances, both mirrors, the acked count, summed
// payment latencies, and the final virtual time. The value was recorded
// BEFORE the replication log refactor (PR 4), so it pins the invariant
// that refactor promised: the simulator's immediate-mode committee
// chains — and with them RunFigure4/RunTable3's committee metrics —
// stay bit-identical. Re-pinned for the durability PR: balances,
// mirrors, and the acked count are unchanged (verified by hand:
// 99206/50794, 200 acked, mirrors identical), but the gob type
// descriptors of Attest (Resume field), ChannelState (cumulative
// payment counters and the Resuming reconciliation flag), and
// ReplAttach (the Seq cursor members seed their mirror from) grew,
// shifting the simulator's size-derived message timing and with it
// latsum/now. Re-pinned again for the routing PR on the same
// invariant: balances, mirrors, and the acked count verified
// unchanged by hand, while the MhLock/MultihopState fee schedule and
// the gossip wire messages grew the descriptors and moved latsum/now
// once more. Re-pinned for the routed-payment performance PR: the
// digest covers State.Multihop only through the size of the gob
// snapshot in ReplAttach — MultihopState lost its Done field (finished
// payments now leave the map), the descriptor shrank, and the final
// virtual time moved 480 ns earlier (75987525000 → 75987524520).
// Balances, mirrors, the acked count and latsum verified unchanged by
// hand (99206/50794, 200, 64026635984).
const replicatedDeploymentDigest = "badeba2e60597047913f464aaada7b33"

// TestReplicatedDeploymentDigest replays the replicated deployment and
// compares against the pinned digest.
func TestReplicatedDeploymentDigest(t *testing.T) {
	d, err := NewDeployment()
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := d.AddNode("owner", SiteUK, core.NodeConfig{})
	r1, _ := d.AddNode("r1", SiteUS, core.NodeConfig{})
	r2, _ := d.AddNode("r2", SiteIL, core.NodeConfig{})
	bob, _ := d.AddNode("bob", SiteUS, core.NodeConfig{})
	for _, pair := range [][2]*core.Node{{owner, r1}, {owner, r2}, {r1, r2}, {owner, bob}} {
		if err := d.Connect(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
		d.Sim.Run()
	}
	if err := d.FormCommittee(owner, []*core.Node{r1, r2}, 2); err != nil {
		t.Fatal(err)
	}
	d.Sim.Run()
	ch, err := d.OpenChannel(owner, bob, 100_000, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	var latSum time.Duration
	for i := 0; i < 200; i++ {
		if err := owner.Pay(ch, chain.Amount(1+i%7), func(ok bool, lat time.Duration, _ string) {
			if ok {
				latSum += lat
			}
		}); err != nil {
			t.Fatal(err)
		}
		d.Sim.Run()
	}
	h := sha256.New()
	st := owner.Enclave().State().Channels[ch]
	fmt.Fprintf(h, "bal=%d/%d acked=%d latsum=%d now=%d",
		st.MyBal, st.RemoteBal, owner.PaymentsAcked, latSum, time.Duration(d.Sim.Now()))
	for _, m := range []*core.Node{r1, r2} {
		mirror, ok := m.Enclave().MirrorState(owner.Enclave().ChainID())
		if !ok {
			t.Fatalf("%s has no mirror", m.ID)
		}
		mc := mirror.Channels[ch]
		fmt.Fprintf(h, "|mirror=%d/%d", mc.MyBal, mc.RemoteBal)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)[:16]); got != replicatedDeploymentDigest {
		t.Fatalf("replicated deployment digest drifted:\n got  %s\n want %s\n"+
			"(the simulator's immediate-mode replication behavior changed)", got, replicatedDeploymentDigest)
	}
}
