package harness

import (
	"fmt"
	"time"

	"teechain/internal/core"
	"teechain/internal/lightning"
)

// Table 1: performance of a single payment channel between US and UK1
// under the fault-tolerance spectrum, plus the Lightning baseline.

// Table1Row is one configuration's measurement.
type Table1Row struct {
	Name       string
	Throughput float64 // tx/s
	AvgLatency time.Duration
	P99Latency time.Duration
}

// table1Spec describes one Teechain configuration of Table 1.
type table1Spec struct {
	name string
	// replicaSitesA/B are the committee member sites for each party, in
	// chain order (empty = no fault tolerance).
	replicaSitesA []Site
	replicaSitesB []Site
	stable        bool
	batch         bool
	outsourced    bool
	// payments is the measurement length; offered is the open-loop load
	// (tx/s), set comfortably above the configuration's expected
	// capacity so the measurement reads capacity, not offered load.
	payments int
	offered  float64
}

func table1Specs() []table1Spec {
	return []table1Spec{
		{name: "No fault tolerance", payments: 400_000, offered: 200_000},
		{name: "One replica (IL)",
			replicaSitesA: []Site{SiteIL}, replicaSitesB: []Site{SiteIL},
			payments: 150_000, offered: 36_000},
		{name: "Two replicas (IL & UK)",
			replicaSitesA: []Site{SiteIL, SiteUK}, replicaSitesB: []Site{SiteIL, SiteUK},
			payments: 150_000, offered: 36_000},
		{name: "Three replicas (IL, US & UK)",
			replicaSitesA: []Site{SiteIL, SiteUK, SiteUS}, replicaSitesB: []Site{SiteIL, SiteUS, SiteUK},
			payments: 150_000, offered: 36_000},
		{name: "Outsourced channel, two replicas",
			replicaSitesA: []Site{SiteIL, SiteUK}, replicaSitesB: []Site{SiteIL, SiteUK},
			outsourced: true, payments: 150_000, offered: 36_000},
		{name: "Stable storage", stable: true, payments: 50},
		{name: "Batching (no fault tolerance)", batch: true, payments: 400_000, offered: 170_000},
		{name: "Batching (two replicas)",
			replicaSitesA: []Site{SiteIL, SiteUK}, replicaSitesB: []Site{SiteIL, SiteUK},
			batch: true, payments: 400_000, offered: 150_000},
		{name: "Batching (stable storage)", stable: true, batch: true, payments: 400_000, offered: 160_000},
	}
}

// RunTable1 measures every row. The Lightning row comes from the
// baseline's calibrated timing model (LND measurements, see
// internal/lightning/timing.go).
func RunTable1() ([]Table1Row, error) {
	rtt := lookupLink(SiteUS, SiteUK).rtt
	rows := []Table1Row{{
		Name:       "Lightning Network (LN)",
		Throughput: lightning.MaxChannelThroughput,
		AvgLatency: lightning.PaymentLatency(rtt),
		P99Latency: lightning.PaymentLatency(rtt) + 33*time.Millisecond,
	}}
	specs := table1Specs()
	measured := make([]Table1Row, len(specs))
	err := forEachConfig(len(specs), func(i int) error {
		row, err := runTable1Spec(specs[i])
		if err != nil {
			return fmt.Errorf("table1 %q: %w", specs[i].name, err)
		}
		measured[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return append(rows, measured...), nil
}

func runTable1Spec(spec table1Spec) (Table1Row, error) {
	d, err := NewDeployment()
	if err != nil {
		return Table1Row{}, err
	}
	cfg := core.NodeConfig{StableStorage: spec.stable}
	if spec.batch {
		cfg.BatchWindow = core.DefaultBatchWindow
	}
	if spec.outsourced {
		cfg.Enclave.AllowOutsource = true
	}
	us, err := d.AddNode("US", SiteUS, cfg)
	if err != nil {
		return Table1Row{}, err
	}
	uk, err := d.AddNode("UK1", SiteUK, cfg)
	if err != nil {
		return Table1Row{}, err
	}
	if err := buildCommittee(d, us, "US", spec.replicaSitesA); err != nil {
		return Table1Row{}, err
	}
	if err := buildCommittee(d, uk, "UK1", spec.replicaSitesB); err != nil {
		return Table1Row{}, err
	}
	id, err := d.OpenChannel(us, uk, 1_000_000_000, 0)
	if err != nil {
		return Table1Row{}, err
	}

	var issue func(done core.PayDone) error
	if spec.outsourced {
		// Table 1's outsourced row: a TEE-less client in Israel drives
		// the US enclave's channel (§3).
		client, err := d.AddClient("IL1-client", SiteIL)
		if err != nil {
			return Table1Row{}, err
		}
		if err := client.Attach(us); err != nil {
			return Table1Row{}, err
		}
		if err := d.Until(client.Attached); err != nil {
			return Table1Row{}, err
		}
		issue = func(done core.PayDone) error { return client.Pay(id, 1, 1, done) }
	} else {
		issue = func(done core.PayDone) error { return us.Pay(id, 1, done) }
	}

	// Latency: unloaded, sequential probe (what the paper's latency
	// column reports). For batching rows this includes the full batch
	// window wait.
	probeCount := 16
	if spec.stable && !spec.batch {
		probeCount = 8
	}
	stats, err := latencyProbe(d, probeCount, issue)
	if err != nil {
		return Table1Row{}, err
	}

	// Throughput: open-loop load at the configuration's knee (as one
	// tunes offered load when benchmarking a real deployment — far past
	// the knee, replication acknowledgements starve behind update
	// queues and goodput degrades). The unbatched stable-storage row is
	// closed-loop: at 10 tx/s its sender-side counter serialises
	// everything anyway.
	var tput float64
	if spec.stable && !spec.batch {
		w := newWindowDriver(d, spec.payments, issue)
		tput, _, err = w.run(4)
	} else {
		tput, err = openLoop(d, spec.offered, spec.payments, issue)
	}
	if err != nil {
		return Table1Row{}, err
	}
	return Table1Row{
		Name:       spec.name,
		Throughput: tput,
		AvgLatency: stats.Avg(),
		P99Latency: stats.Percentile(99),
	}, nil
}

// buildCommittee adds committee member nodes at the given sites and
// forms the owner's chain (m = n for full Byzantine protection; the
// paper notes m does not affect throughput).
func buildCommittee(d *Deployment, owner *core.Node, prefix string, sites []Site) error {
	if len(sites) == 0 {
		return nil
	}
	members := make([]*core.Node, len(sites))
	for i, site := range sites {
		m, err := d.AddNode(fmt.Sprintf("%s-r%d-%s", prefix, i+1, site), site, core.NodeConfig{})
		if err != nil {
			return err
		}
		members[i] = m
	}
	return d.FormCommittee(owner, members, min(2, len(members)+1))
}
