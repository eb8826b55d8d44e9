package harness

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"time"

	"teechain/internal/chain"
	"teechain/internal/core"
	"teechain/internal/netsim"
	"teechain/internal/sim"
	"teechain/internal/wire"
	"teechain/internal/workload"
)

// Table 3 and Figure 7: the hub-and-spoke topology (Fig. 5). Three
// connectivity tiers with 100 ms inter-node links; multi-hop payments
// compete for channel locks, so throughput collapses relative to the
// complete graph; dynamic routing trades contention for longer paths;
// temporary channels (§5.2) recover concurrency.

// hubSpokeTopology instantiates Fig. 5: tier-1 hubs fully
// interconnected, each tier-2 node attached to two hubs, each tier-3
// node to one tier-2 node. The paper does not give exact counts; this
// instantiation (3/7/20 = 30 machines) is our own choice, recorded only
// here (DESIGN.md §4 lists the runner).
type hubSpoke struct {
	d     *Deployment
	nodes []*core.Node
	// edges[i] lists (peer, channelID) for node i.
	channels map[[2]int]wire.ChannelID
	tiers    []workload.TierSpec
}

const (
	hsTier1 = 3
	hsTier2 = 7
	hsTier3 = 20
)

// hubSpokeRTT is the emulated wide-area latency between machines
// (§7.4: "We emulate wide-area network links by adding 100 ms latency").
const hubSpokeRTT = 100 * time.Millisecond

func buildHubSpoke(committee int, tempChannels int) (*hubSpoke, error) {
	d, err := NewDeployment()
	if err != nil {
		return nil, err
	}
	total := hsTier1 + hsTier2 + hsTier3
	hs := &hubSpoke{d: d, channels: make(map[[2]int]wire.ChannelID)}
	hs.tiers = workload.PaperTiers(hsTier1, hsTier2, hsTier3)
	// The paper retries failed payments until they succeed (§7.4), with
	// a randomized 100-200 ms backoff.
	cfg := core.NodeConfig{
		MaxRetries: 1_000_000,
		RetryMin:   100 * time.Millisecond,
		RetryMax:   200 * time.Millisecond,
	}
	for i := 0; i < total; i++ {
		n, err := d.AddNode(fmt.Sprintf("m%02d", i), SiteUK, cfg)
		if err != nil {
			return nil, err
		}
		hs.nodes = append(hs.nodes, n)
	}
	// Override every pair with the 100 ms emulated WAN link.
	for i := 0; i < total; i++ {
		for j := i + 1; j < total; j++ {
			d.Net.SetLink(netsim.NodeID(fmt.Sprintf("m%02d", i)),
				netsim.NodeID(fmt.Sprintf("m%02d", j)), netsim.RTT(hubSpokeRTT, 1000))
		}
	}
	if committee > 1 {
		for i, n := range hs.nodes {
			members := make([]*core.Node, committee-1)
			for r := range members {
				members[r] = hs.nodes[(i+1+r)%total]
			}
			if err := d.FormCommittee(n, members, min(2, committee)); err != nil {
				return nil, err
			}
		}
	}

	edge := func(i, j int) error {
		id, err := d.OpenChannel(hs.nodes[i], hs.nodes[j], 1_000_000_000, 1_000_000_000)
		if err != nil {
			return err
		}
		hs.channels[[2]int{i, j}] = id
		return nil
	}
	// Tier 1: complete among hubs.
	for i := 0; i < hsTier1; i++ {
		for j := i + 1; j < hsTier1; j++ {
			if err := edge(i, j); err != nil {
				return nil, err
			}
		}
	}
	// Tier 2: each node connects to two hubs.
	for k := 0; k < hsTier2; k++ {
		i := hsTier1 + k
		if err := edge(k%hsTier1, i); err != nil {
			return nil, err
		}
		if err := edge((k+1)%hsTier1, i); err != nil {
			return nil, err
		}
	}
	// Tier 3: each leaf connects to one tier-2 node.
	for k := 0; k < hsTier3; k++ {
		i := hsTier1 + hsTier2 + k
		if err := edge(hsTier1+k%hsTier2, i); err != nil {
			return nil, err
		}
	}

	// Temporary channels on tier-1/tier-2 edges (Fig. 7; tier-3 users
	// are unlikely to post extra deposits, §7.4).
	if tempChannels > 0 {
		pairs := slices.SortedFunc(maps.Keys(hs.channels), func(a, b [2]int) int {
			return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
		})
		for _, pair := range pairs {
			if pair[1] >= hsTier1+hsTier2 {
				continue
			}
			a := hs.nodes[pair[0]]
			b := hs.nodes[pair[1]]
			if _, err := a.CreateTempChannels(b, tempChannels, 1_000_000_000); err != nil {
				return nil, err
			}
			d.Sim.Run()
			if err := a.FinishTempChannels(); err != nil {
				return nil, err
			}
			d.Sim.Run()
			if err := a.AssociateTempDeposits(); err != nil {
				return nil, err
			}
			d.Sim.Run()
		}
	}
	return hs, nil
}

// Table3Row is one hub-and-spoke configuration's measurement.
type Table3Row struct {
	Approach   string
	Throughput float64
	AvgLatency time.Duration
	AvgHops    float64
}

// Fig7Point is one temporary-channel measurement.
type Fig7Point struct {
	TempChannels int
	Committee    int
	Throughput   float64
}

// RunTable3 measures the four Table 3 rows (independent deployments,
// swept across the worker pool).
func RunTable3(paymentsPerMachine int) ([]Table3Row, error) {
	specs := []struct {
		name    string
		n       int
		dynamic bool
	}{
		{"No fault tolerance", 1, false},
		{"One replica", 2, false},
		{"Dynamic routing (No FT)", 1, true},
		{"Dynamic routing (One replica)", 2, true},
	}
	rows := make([]Table3Row, len(specs))
	err := forEachConfig(len(specs), func(i int) error {
		spec := specs[i]
		tput, lat, hops, err := runHubSpoke(spec.n, spec.dynamic, 0, paymentsPerMachine)
		if err != nil {
			return fmt.Errorf("table3 %q: %w", spec.name, err)
		}
		rows[i] = Table3Row{
			Approach:   spec.name,
			Throughput: tput,
			AvgLatency: lat,
			AvgHops:    hops,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RunFigure7 measures throughput as tier-1/2 nodes add G temporary
// channels, for committee sizes 1 and 2.
func RunFigure7(gs []int, paymentsPerMachine int) ([]Fig7Point, error) {
	committees := []int{1, 2}
	points := make([]Fig7Point, len(committees)*len(gs))
	err := forEachConfig(len(points), func(i int) error {
		n := committees[i/len(gs)]
		g := gs[i%len(gs)]
		tput, _, _, err := runHubSpoke(n, false, g, paymentsPerMachine)
		if err != nil {
			return fmt.Errorf("fig7 g=%d n=%d: %w", g, n, err)
		}
		points[i] = Fig7Point{TempChannels: g, Committee: n, Throughput: tput}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

func runHubSpoke(committee int, dynamic bool, tempChannels, paymentsPerMachine int) (float64, time.Duration, float64, error) {
	hs, err := buildHubSpoke(committee, tempChannels)
	if err != nil {
		return 0, 0, 0, err
	}
	d := hs.d
	total := len(hs.nodes) * paymentsPerMachine

	addresses := len(hs.nodes) * 40
	gen, err := workload.NewGenerator(workload.DefaultConfig(addresses, 13))
	if err != nil {
		return 0, 0, 0, err
	}
	assign := workload.AssignTiered(addresses, hs.tiers, 5)

	pathCount := 1
	extra := 0
	if dynamic {
		pathCount, extra = 4, 2
	}

	acked := 0
	issued := 0
	warmup := total / 10
	// Throughput is measured to the 95th-percentile completion: the
	// flooded workload leaves a long retry tail whose stragglers would
	// otherwise dominate a fixed-size run (the paper amortises the tail
	// over a 150-million-payment replay).
	target := total * 95 / 100
	var tWarm, tEnd sim.Time
	var stats LatencyStats
	totalHops := 0
	hopSamples := 0

	directChannel := func(a, b int) (wire.ChannelID, bool) {
		if a > b {
			a, b = b, a
		}
		id, ok := hs.channels[[2]int{a, b}]
		return id, ok
	}

	var pump func(k int)
	pump = func(k int) {
		for i := 0; i < k && issued < total; i++ {
			issued++
			p := gen.Next()
			src := assign.Machine(p.Src)
			dst := assign.Machine(p.Dst)
			if src == dst {
				acked++
				continue
			}
			record := func(hops int) core.PayDone {
				return func(ok bool, lat time.Duration, _ string) {
					acked++
					if acked == warmup {
						tWarm = d.Sim.Now()
					}
					if acked >= warmup && ok {
						stats.Record(lat)
						totalHops += hops
						hopSamples++
					}
					if acked == target {
						tEnd = d.Sim.Now()
					}
					pump(1)
				}
			}
			var err error
			amount := chain.Amount(p.Amount)
			if id, ok := directChannel(src, dst); ok {
				hs.nodes[src].PayRetry(id, amount, record(1))
			} else {
				paths := d.Paths(hs.nodes[src].Identity(), hs.nodes[dst].Identity(), pathCount, extra)
				if len(paths) == 0 {
					acked++
					pump(1)
					continue
				}
				hops := len(paths[0]) - 1
				err = hs.nodes[src].PayMultihop(paths, amount, 1, record(hops))
			}
			if err != nil {
				acked++
				pump(1)
			}
		}
	}
	// Sustained per-machine windows: direct payments keep flowing while
	// contended multi-hop payments cycle through retries. The window is
	// kept small relative to the edge count so multi-hop payments are
	// not permanently starved by lock contention (head-of-line
	// blocking). The window is this runner's own choice; DESIGN.md §5
	// covers only the shared cost calibration.
	window := 2 * len(hs.nodes)
	if window > total {
		window = total
	}
	pump(window)
	if err := d.Until(func() bool { return acked >= target }); err != nil {
		// Under extreme lock contention a residue of crossing payments
		// can wedge; like the paper's replay, the measurement covers
		// the completed share.
		if acked <= warmup {
			return 0, 0, 0, err
		}
		target = acked
		tEnd = d.Sim.Now()
	}
	elapsed := tEnd.Sub(tWarm)
	if elapsed <= 0 {
		return 0, 0, 0, nil
	}
	tput := float64(target-warmup) / elapsed.Seconds()
	avgHops := 0.0
	if hopSamples > 0 {
		avgHops = float64(totalHops) / float64(hopSamples)
	}
	return tput, stats.Avg(), avgHops, nil
}
