package harness

import (
	"fmt"
	"time"

	"teechain/internal/core"
	"teechain/internal/cryptoutil"
	"teechain/internal/lightning"
)

// Figure 4 (and the §7.3 throughput discussion): multi-hop payment
// latency as the path grows from 2 to 11 transatlantic channels, for LN
// and Teechain under increasing fault tolerance. Throughput is batch
// size over latency, since neither system pipelines multi-hop payments.

// Fig4Config names a line in the figure.
type Fig4Config string

// Figure 4 lines.
const (
	Fig4LN          Fig4Config = "Lightning Network"
	Fig4NoFT        Fig4Config = "No fault tolerance"
	Fig4Stable      Fig4Config = "Stable storage"
	Fig4OneReplica  Fig4Config = "Single replica"
	Fig4TwoReplicas Fig4Config = "Two replicas"
)

// Fig4Point is one (config, hops) measurement.
type Fig4Point struct {
	Config  Fig4Config
	Hops    int
	Latency time.Duration
	// Throughput is batch-size/latency (§7.3); batch is 135,000 for
	// Teechain and 1,000 for LN, as in the paper.
	Throughput float64
}

// fig4Sites cycles nodes across the testbed so every channel crosses an
// ocean, as in the paper's UK→US→IL→UK chain.
func fig4Sites(n int) []Site {
	cycle := []Site{SiteUK, SiteUS, SiteIL}
	sites := make([]Site, n)
	for i := range sites {
		sites[i] = cycle[i%len(cycle)]
	}
	return sites
}

// avgPathRTT is the mean link RTT of the transatlantic cycle, used for
// the analytic LN line.
func avgPathRTT() time.Duration {
	total := lookupLink(SiteUK, SiteUS).rtt + lookupLink(SiteUS, SiteIL).rtt + lookupLink(SiteIL, SiteUK).rtt
	return total / 3
}

// RunFigure4 measures latency for hops in [2,11] for every line.
// maxHops can be reduced for quick runs.
func RunFigure4(maxHops int) ([]Fig4Point, error) {
	if maxHops < 2 {
		maxHops = 2
	}
	if maxHops > 11 {
		maxHops = 11
	}
	var points []Fig4Point
	for hops := 2; hops <= maxHops; hops++ {
		points = append(points, Fig4Point{
			Config:     Fig4LN,
			Hops:       hops,
			Latency:    lightning.MultihopLatency(hops, avgPathRTT()),
			Throughput: lightning.MultihopThroughput(hops, avgPathRTT(), 1000),
		})
	}
	configs := []struct {
		name     Fig4Config
		replicas int
		stable   bool
	}{
		{Fig4NoFT, 0, false},
		{Fig4Stable, 0, true},
		{Fig4OneReplica, 1, false},
		{Fig4TwoReplicas, 2, false},
	}
	// Every (configuration, hop count) point is an independent
	// deployment; sweep them across the worker pool.
	hopCount := maxHops - 1
	measured := make([]Fig4Point, len(configs)*hopCount)
	err := forEachConfig(len(measured), func(i int) error {
		cfg := configs[i/hopCount]
		hops := 2 + i%hopCount
		lat, err := measureMultihopLatency(hops, cfg.replicas, cfg.stable)
		if err != nil {
			return fmt.Errorf("fig4 %s hops=%d: %w", cfg.name, hops, err)
		}
		measured[i] = Fig4Point{
			Config:     cfg.name,
			Hops:       hops,
			Latency:    lat,
			Throughput: 135_000 / lat.Seconds(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return append(points, measured...), nil
}

// replicaSitesFor places a node's committee members in failure domains
// other than its own (§7.3: "Committee members are deployed in
// different failure domains").
func replicaSitesFor(own Site, count int) []Site {
	others := []Site{}
	for _, s := range []Site{SiteUK, SiteUS, SiteIL} {
		if s != own {
			others = append(others, s)
		}
	}
	sites := make([]Site, count)
	for i := range sites {
		sites[i] = others[i%len(others)]
	}
	return sites
}

// measureMultihopLatency builds a chain of hops channels and times one
// multi-hop payment end to end.
func measureMultihopLatency(hops, replicas int, stable bool) (time.Duration, error) {
	d, err := NewDeployment()
	if err != nil {
		return 0, err
	}
	sites := fig4Sites(hops + 1)
	nodes := make([]*core.Node, hops+1)
	cfg := core.NodeConfig{StableStorage: stable}
	for i := range nodes {
		n, err := d.AddNode(fmt.Sprintf("n%02d-%s", i, sites[i]), sites[i], cfg)
		if err != nil {
			return 0, err
		}
		nodes[i] = n
	}
	for i, n := range nodes {
		if replicas > 0 {
			members := make([]*core.Node, replicas)
			for r := 0; r < replicas; r++ {
				site := replicaSitesFor(sites[i], replicas)[r]
				m, err := d.AddNode(fmt.Sprintf("n%02d-r%d-%s", i, r, site), site, core.NodeConfig{})
				if err != nil {
					return 0, err
				}
				members[r] = m
			}
			if err := d.FormCommittee(n, members, min(2, replicas+1)); err != nil {
				return 0, err
			}
		}
	}
	for i := 0; i+1 < len(nodes); i++ {
		if _, err := d.OpenChannel(nodes[i], nodes[i+1], 1_000_000_000, 0); err != nil {
			return 0, err
		}
	}
	path := make([]cryptoutil.PublicKey, len(nodes))
	for i, n := range nodes {
		path[i] = n.Identity()
	}
	start := d.Sim.Now()
	done := false
	err = nodes[0].PayMultihop([][]cryptoutil.PublicKey{path}, 1, 1,
		func(ok bool, _ time.Duration, reason string) {
			if !ok {
				err = fmt.Errorf("multi-hop payment failed: %s", reason)
			}
			done = true
		})
	if err != nil {
		return 0, err
	}
	if uErr := d.Until(func() bool { return done }); uErr != nil {
		return 0, uErr
	}
	if err != nil {
		return 0, err
	}
	return d.Sim.Now().Sub(start), nil
}
