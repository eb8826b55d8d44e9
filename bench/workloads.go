package main

import (
	"fmt"
	"os"
	"runtime"

	"teechain/internal/api/client"
	"teechain/internal/chain"
	"teechain/internal/harness"
	"teechain/internal/transport"
	"teechain/internal/wire"
)

// deposit funds every channel. 2^40 base units cannot run dry in a run
// of any length a later, faster commit could reach.
const deposit = chain.Amount(1) << 40

// The routed topology is fixed, not drawn from -seed: path length and
// fee structure decide routed latency, so a topology per seed would
// make every seed a different workload. The seed draws the requests.
const (
	topoSeed   = 11
	topoNodes  = 16
	topoChords = 12
)

// workload is one closed-loop traffic mix. A workload has a lane
// stream (batch > 0), a routed stream (callers != 0), or both.
type workload struct {
	name string
	why  string
	// batch is the number of payments per lane request (64 =
	// PayBatchAsync, 1 = PayAsync); window is lane requests in flight.
	batch, window int
	// committee is the number of members in the lane sender's
	// committee chain (threshold 2).
	committee int
	// durable gives the lane sender a DataDir under bench/out/.
	durable bool
	// callers is the number of routed callers over the 16-node
	// topology, each with one PayRouted in flight; allCores means one
	// per processor.
	callers int
}

const allCores = -1

func (w workload) routedCallers() int {
	if w.callers == allCores {
		return runtime.GOMAXPROCS(0)
	}
	return w.callers
}

// workloads lists the seven workloads in the order they run. The names
// are fixed: later issues cite them.
var workloads = []workload{
	{name: "lane_batch", batch: 64, window: 4,
		why: "throughput headline: enclave apply and codec amortised 64x; the no-change control for replication, WAL and routing work"},
	{name: "lane_serial", batch: 1, window: 1,
		why: "unloaded latency floor: one payment in flight, so layer self-times must add up to it; exposes added hand-offs or coalescing delays"},
	{name: "committee2_batch", batch: 64, window: 4, committee: 2,
		why: "replication log, flusher, ReplBatch, mirror apply and cumulative ack at many ops per flush; should move with replication changes only"},
	{name: "committee2_serial", batch: 1, window: 1, committee: 2,
		why: "replicated-channel latency (paper Table 1): flusher kick and chain round trip unamortised, one op per flush"},
	// 64 batches in flight, not 4: with 4, every number is the latency
	// of one fsync on the sandbox's virtual disk, which drifts by 30 %
	// within minutes; with 64, group commit covers ~25 batches per fsync
	// and the run is bound by the processor, as the others are.
	{name: "durable_batch", batch: 64, window: 64, durable: true,
		why: "WAL append, seal and group commit with fsync on the repository's filesystem; 64 batches in flight, so the group commit, not one fsync's latency, sets the pace"},
	{name: "routed", callers: allCores,
		why: "path-find plus every multihop stage on every hop under the wide lock, one PayRouted per caller in flight; lanes idle"},
	{name: "routed_mixed", batch: 64, window: 4, callers: 1,
		why: "one transport host used two ways at once: a lane_batch loop on a leaf channel of n00 beside one routed caller"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bed is one running cluster, set up for one workload.
type bed struct {
	c     *harness.Cluster
	names []string // every node of the cluster

	// Lane stream: lane is the sender's own SDK connection.
	sender, receiver string
	ch               wire.ChannelID
	lane             *client.Conn
	// sent is every lane payment completed since set-up, warm-up
	// included: what the conservation check expects to have moved.
	sent laneTotals

	// Routed stream: the topology and its channel ids, in net.Channels
	// order. nodes are the routable endpoints (the leaf is not one).
	net   harness.RoutedNet
	chans []wire.ChannelID
	nodes []string

	dataDir string
}

type laneTotals struct {
	payments uint64
	amount   chain.Amount
}

func (b *bed) close() {
	if b.lane != nil {
		b.lane.Close()
	}
	if b.c != nil {
		b.c.Close()
	}
	if b.dataDir != "" {
		os.RemoveAll(b.dataDir)
	}
}

// setUp brings a workload's cluster to the state its first request
// needs: nodes listening, peers attested, committee formed, channels
// funded, and (routed) every node's gossip graph converged.
func setUp(w workload, outDir string) (*bed, error) {
	b := &bed{}
	ok := false
	defer func() {
		if !ok {
			b.close()
		}
	}()
	if w.callers != 0 {
		if err := b.setUpRouted(w); err != nil {
			return nil, err
		}
	} else if err := b.setUpLane(w, outDir); err != nil {
		return nil, err
	}
	if w.batch > 0 {
		cc, err := client.Dial(b.c.ControlAddr(b.sender))
		if err != nil {
			return nil, err
		}
		cc.SetTimeout(harness.ClusterTimeout)
		b.lane = cc
	}
	ok = true
	return b, nil
}

func (b *bed) setUpLane(w workload, outDir string) error {
	b.sender, b.receiver = "s0", "r0"
	names := []string{b.sender, b.receiver}
	var members []string
	for i := 1; i <= w.committee; i++ {
		members = append(members, fmt.Sprintf("m%d", i))
	}
	names = append(names, members...)
	b.names = names
	var mut func(*transport.Config)
	if w.durable {
		// Under bench/out/, never $TMPDIR: that may be tmpfs, where an
		// fsync costs nothing.
		dir, err := os.MkdirTemp(outDir, "data-")
		if err != nil {
			return err
		}
		b.dataDir = dir
		mut = func(cfg *transport.Config) {
			if cfg.Name == b.sender {
				cfg.DataDir = dir
			}
		}
	}
	c, err := harness.NewClusterWith(mut, names...)
	if err != nil {
		return err
	}
	b.c = c
	if err := c.Connect(b.sender, b.receiver); err != nil {
		return err
	}
	if len(members) > 0 {
		if err := c.FormCommittee(b.sender, members, 2); err != nil {
			return err
		}
	}
	id, err := c.OpenChannel(b.sender, b.receiver, deposit)
	if err != nil {
		return err
	}
	b.ch = wire.ChannelID(id)
	return nil
}

func (b *bed) setUpRouted(w workload) error {
	rn := harness.BuildRoutedNet(topoSeed, topoNodes, topoChords, deposit)
	b.nodes = rn.Nodes
	if w.batch > 0 {
		// The lane runs on a leaf: no route crosses its channel, so a
		// refused batch is a failure of the host, not the protocol rule
		// that a multi-hop lock refuses lane payments.
		b.sender, b.receiver = rn.Nodes[0], "leaf"
		rn.Nodes = append(append([]string(nil), rn.Nodes...), b.receiver)
		rn.Channels = append(rn.Channels, [2]string{b.sender, b.receiver})
	}
	b.net, b.names = rn, rn.Nodes
	fees := rn.FeePolicies()
	c, err := harness.NewClusterWith(func(cfg *transport.Config) {
		fee := fees[cfg.Name]
		cfg.FeeBase = fee.Base
		cfg.FeeRatePPM = fee.RatePPM
	}, rn.Nodes...)
	if err != nil {
		return err
	}
	b.c = c
	if b.chans, err = rn.Deploy(c); err != nil {
		return err
	}
	if w.batch > 0 {
		b.ch = b.chans[len(b.chans)-1]
	}
	return rn.AwaitGraphs(c, harness.ClusterTimeout)
}
