package harness

import (
	"testing"
	"time"

	"teechain/internal/core"
)

// Ablation: dynamic deposit assignment (contribution C2). Teechain
// decouples deposit creation from channel establishment; this test
// quantifies what the decoupling buys by comparing channel-ready times
// with deposits created in advance (the Teechain design) versus funded
// on demand with on-chain confirmation (what coupled designs pay).
func TestAblationDepositDecoupling(t *testing.T) {
	d, err := NewDeployment()
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.AddNode("a", SiteUK, core.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.AddNode("b", SiteUS, core.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(a, b); err != nil {
		t.Fatal(err)
	}

	// Decoupled (Teechain): the deposit already exists on chain.
	start := d.Sim.Now()
	if _, err := d.OpenChannel(a, b, 1000, 0); err != nil {
		t.Fatal(err)
	}
	decoupled := d.Sim.Now().Sub(start)

	// Coupled (funding on the critical path): one block interval per
	// confirmation at Bitcoin's 10-minute cadence dominates everything.
	coupled := decoupled + 6*10*time.Minute

	if decoupled > 5*time.Second {
		t.Fatalf("decoupled channel setup %v, want seconds", decoupled)
	}
	if ratio := float64(coupled) / float64(decoupled); ratio < 500 {
		t.Fatalf("decoupling advantage %.0fx, expected orders of magnitude", ratio)
	}
}

// Ablation: client-side batching (§7.2). Throughput gain and latency
// cost of the 100 ms batching window on a single channel.
func TestAblationBatching(t *testing.T) {
	measure := func(batch bool) (float64, time.Duration) {
		d, err := NewDeployment()
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.NodeConfig{}
		if batch {
			cfg.BatchWindow = core.DefaultBatchWindow
		}
		a, err := d.AddNode("a", SiteUK, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.AddNode("b", SiteUK, cfg)
		if err != nil {
			t.Fatal(err)
		}
		id, err := d.OpenChannel(a, b, 1_000_000_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		issue := func(done core.PayDone) error { return a.Pay(id, 1, done) }
		stats, err := latencyProbe(d, 8, issue)
		if err != nil {
			t.Fatal(err)
		}
		tput, err := openLoop(d, 200_000, 100_000, issue)
		if err != nil {
			t.Fatal(err)
		}
		return tput, stats.Avg()
	}
	plainTput, plainLat := measure(false)
	batchTput, batchLat := measure(true)

	// Batching buys throughput at a latency cost (Table 1's last three
	// rows versus the first).
	if batchTput <= plainTput {
		t.Fatalf("batching did not increase throughput: %.0f vs %.0f", batchTput, plainTput)
	}
	if batchLat <= plainLat {
		t.Fatalf("batching has no latency cost: %v vs %v", batchLat, plainLat)
	}
	if batchLat < plainLat+50*time.Millisecond {
		t.Fatalf("batching latency cost %v implausibly small", batchLat-plainLat)
	}
}

// Ablation: committee chain length (C3). Latency grows with members
// while the throughput knee stays flat beyond the first replica — the
// paper's "additional committee members only increase latency" claim.
func TestAblationCommitteeLength(t *testing.T) {
	lat := map[int]time.Duration{}
	for _, members := range []int{0, 1, 2} {
		d, err := NewDeployment()
		if err != nil {
			t.Fatal(err)
		}
		a, err := d.AddNode("a", SiteUS, core.NodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.AddNode("b", SiteUK, core.NodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		sites := []Site{SiteIL, SiteUK}
		if err := buildCommittee(d, a, "a", sites[:members]); err != nil {
			t.Fatal(err)
		}
		if err := buildCommittee(d, b, "b", sites[:members]); err != nil {
			t.Fatal(err)
		}
		id, err := d.OpenChannel(a, b, 1_000_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := latencyProbe(d, 6, func(done core.PayDone) error { return a.Pay(id, 1, done) })
		if err != nil {
			t.Fatal(err)
		}
		lat[members] = stats.Avg()
	}
	if !(lat[0] < lat[1] && lat[1] < lat[2]) {
		t.Fatalf("latency not increasing with members: %v", lat)
	}
	// Each member adds roughly its replication round trips, not an
	// order of magnitude.
	if lat[2] > 4*lat[1] {
		t.Fatalf("second member cost disproportionate: %v vs %v", lat[2], lat[1])
	}
}
