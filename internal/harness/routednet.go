package harness

// Random routed-network deployments: a seeded topology builder whose
// graphs are strongly connected by construction (a Hamiltonian funding
// cycle over the shuffled nodes, so every src→dst pair is routable)
// plus random chord channels for path diversity. Shared by the 50-node
// routing test and the routing benchmark.

import (
	"fmt"
	"math/rand"
	"time"

	"teechain/internal/chain"
	"teechain/internal/route"
	"teechain/internal/wire"
)

// RoutedNet is a seeded random deployment for routed-payment runs.
// Every channel is a directed funding edge — the opener deposits, so
// pathfinding capacity initially flows only in funding direction — and
// the cycle guarantees some path between every ordered node pair.
type RoutedNet struct {
	Seed     int64
	Nodes    []string
	Channels [][2]string // funding direction: [payer, payee]
	Deposit  chain.Amount
}

// BuildRoutedNet derives a deployment from seed: n nodes on a shuffled
// funding cycle plus extra distinct chord channels.
func BuildRoutedNet(seed int64, n, extra int, deposit chain.Amount) RoutedNet {
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("n%02d", i)
	}
	seen := make(map[[2]string]bool)
	var chans [][2]string
	add := func(a, b string) {
		pair := [2]string{a, b}
		if a == b || seen[pair] {
			return
		}
		seen[pair] = true
		chans = append(chans, pair)
	}
	order := rng.Perm(n)
	for i := range order {
		add(nodes[order[i]], nodes[order[(i+1)%n]])
	}
	for len(chans) < n+extra {
		add(nodes[rng.Intn(n)], nodes[rng.Intn(n)])
	}
	return RoutedNet{Seed: seed, Nodes: nodes, Channels: chans, Deposit: deposit}
}

// FeePolicies assigns each node a deterministic forwarding fee policy
// derived from the seed: roughly a third forward free, the rest charge
// a small base fee, a proportional fee, or both — enough variety that
// the pathfinder's fee minimization has real choices to make.
func (rn RoutedNet) FeePolicies() map[string]route.FeePolicy {
	rng := rand.New(rand.NewSource(rn.Seed + 1))
	out := make(map[string]route.FeePolicy, len(rn.Nodes))
	for _, name := range rn.Nodes {
		var fee route.FeePolicy
		switch rng.Intn(3) {
		case 1:
			fee = route.FeePolicy{Base: chain.Amount(1 + rng.Intn(3))}
		case 2:
			fee = route.FeePolicy{
				Base:    chain.Amount(rng.Intn(2)),
				RatePPM: uint32(1+rng.Intn(20)) * 1000,
			}
		}
		out[name] = fee
	}
	return out
}

// Deploy connects, opens, and funds every channel of the deployment on
// c (already started with the net's nodes), waiting until both
// endpoints see each funding. It returns the channel ids in Channels
// order.
func (rn RoutedNet) Deploy(c *Cluster) ([]wire.ChannelID, error) {
	ids := make([]wire.ChannelID, len(rn.Channels))
	for i, pair := range rn.Channels {
		if err := c.Connect(pair[0], pair[1]); err != nil {
			return nil, fmt.Errorf("connect %s->%s: %w", pair[0], pair[1], err)
		}
		id, err := c.OpenChannel(pair[0], pair[1], rn.Deposit)
		if err != nil {
			return nil, fmt.Errorf("channel %s->%s: %w", pair[0], pair[1], err)
		}
		ids[i] = wire.ChannelID(id)
		if err := awaitChannelBal(c, pair[1], ids[i], 0, rn.Deposit); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// AwaitGraphs blocks until every node's gossip graph has converged on
// the freshly-deployed network: all 2·channels directed edges present
// (both endpoints announce their side) and the total announced
// capacity equal to what the deposits announce (each one's
// route.HintCapacity) — i.e. every funding re-announcement has arrived,
// not just the capacity-0 open-time ones.
func (rn RoutedNet) AwaitGraphs(c *Cluster, timeout time.Duration) error {
	wantEdges := 2 * len(rn.Channels)
	wantCap := chain.Amount(len(rn.Channels)) * route.HintCapacity(rn.Deposit)
	deadline := time.Now().Add(timeout)
	for _, name := range rn.Nodes {
		g := c.Host(name).RouteGraph()
		for {
			var total chain.Amount
			for _, d := range g.Digest() {
				if e, ok := g.Edge(route.EdgeKey{Channel: d.Channel, From: d.From}); ok && !e.Closed {
					total += e.Capacity
				}
			}
			if g.Open() == wantEdges && total == wantCap {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s graph stuck at %d/%d edges, capacity %d/%d",
					name, g.Open(), wantEdges, total, wantCap)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}
