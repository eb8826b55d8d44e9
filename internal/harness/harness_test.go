package harness

import (
	"os"
	"strings"
	"testing"
	"time"

	"teechain/internal/lightning"
)

// The harness tests verify experiment *shape* against the paper with
// scaled-down measurement lengths; the full-size runs live in the
// top-level benchmarks and cmd/teechain-bench.

func TestTable2Shape(t *testing.T) {
	rows, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	byOp := map[string]Table2Row{}
	for _, r := range rows {
		byOp[r.Operation] = r
	}
	ln := byOp["LN channel creation"].Local
	tc := byOp["Teechain channel creation"]
	if ln != time.Hour {
		t.Fatalf("LN channel creation %v, want 1h", ln)
	}
	// Teechain channel creation is seconds, not minutes (Table 2:
	// 2.81 s), and three orders of magnitude below LN.
	if tc.Local < time.Second || tc.Local > 6*time.Second {
		t.Fatalf("Teechain channel creation %v, want ~2.8s", tc.Local)
	}
	if tc.Outsourced <= tc.Local {
		t.Fatalf("outsourced creation %v not above local %v", tc.Outsourced, tc.Local)
	}
	// Replica creation resembles channel creation (attestation-bound).
	rep := byOp["Replica creation"].Local
	if rep < time.Second || rep > 6*time.Second {
		t.Fatalf("replica creation %v, want ~2.8s", rep)
	}
	// Associate latency grows with backups and stable storage exceeds
	// no-FT (Table 2 column ordering).
	noFT := byOp["Associate/dissociate (no fault tolerance)"].Local
	one := byOp["Associate/dissociate (one backup, IL)"].Local
	two := byOp["Associate/dissociate (two backups, IL & UK)"].Local
	three := byOp["Associate/dissociate (three backups, IL, US & UK)"].Local
	stable := byOp["Associate/dissociate (stable storage)"].Local
	if !(noFT < one && one < two && two < three) {
		t.Fatalf("associate latencies not increasing: %v %v %v %v", noFT, one, two, three)
	}
	if noFT > 200*time.Millisecond {
		t.Fatalf("no-FT associate %v, want ~100ms", noFT)
	}
	if stable <= noFT {
		t.Fatalf("stable associate %v not above no-FT %v", stable, noFT)
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "Teechain channel creation") {
		t.Fatal("formatter dropped rows")
	}
}

func TestFigure4Shape(t *testing.T) {
	points, err := RunFigure4(5)
	if err != nil {
		t.Fatal(err)
	}
	series := map[Fig4Config]map[int]time.Duration{}
	for _, p := range points {
		if series[p.Config] == nil {
			series[p.Config] = map[int]time.Duration{}
		}
		series[p.Config][p.Hops] = p.Latency
	}
	// Latency increases with hops for every configuration.
	for cfg, s := range series {
		if s[5] <= s[2] {
			t.Fatalf("%s latency not increasing: 2 hops %v, 5 hops %v", cfg, s[2], s[5])
		}
	}
	// Ordering at 5 hops: LN < no FT < stable < one replica < two
	// replicas (Fig. 4's line ordering).
	at5 := []time.Duration{
		series[Fig4LN][5],
		series[Fig4NoFT][5],
		series[Fig4Stable][5],
		series[Fig4OneReplica][5],
		series[Fig4TwoReplicas][5],
	}
	for i := 1; i < len(at5); i++ {
		if at5[i] <= at5[i-1] {
			t.Fatalf("5-hop latency ordering violated at %d: %v", i, at5)
		}
	}
	// Teechain no-FT is roughly 2x LN (§7.3: "about 2x that of LN").
	ratio := series[Fig4NoFT][5].Seconds() / series[Fig4LN][5].Seconds()
	if ratio < 1.3 || ratio > 3.2 {
		t.Fatalf("no-FT/LN latency ratio %.2f, want ~2", ratio)
	}
	// Teechain's batched throughput beats LN's at every hop count
	// (§7.3: 16x-26x).
	var lnTp, tcTp map[int]float64
	lnTp, tcTp = map[int]float64{}, map[int]float64{}
	for _, p := range points {
		if p.Config == Fig4LN {
			lnTp[p.Hops] = p.Throughput
		}
		if p.Config == Fig4TwoReplicas {
			tcTp[p.Hops] = p.Throughput
		}
	}
	for hops, lt := range lnTp {
		if tcTp[hops] < 4*lt {
			t.Fatalf("at %d hops Teechain throughput %.0f not well above LN %.0f", hops, tcTp[hops], lt)
		}
	}
	_ = FormatFigure4(points)
}

func TestFigure6Shape(t *testing.T) {
	points, err := RunFigure6([]int{5, 10}, []int{1, 2}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	get := func(m, n int) float64 {
		for _, p := range points {
			if p.Machines == m && p.Committee == n {
				return p.Throughput
			}
		}
		t.Fatalf("missing point machines=%d n=%d", m, n)
		return 0
	}
	// Throughput scales with machines for both configurations.
	if get(10, 1) <= get(5, 1)*1.3 {
		t.Fatalf("n=1 not scaling: 5->%0.f 10->%0.f", get(5, 1), get(10, 1))
	}
	if get(10, 2) <= get(5, 2)*1.3 {
		t.Fatalf("n=2 not scaling: 5->%0.f 10->%0.f", get(5, 2), get(10, 2))
	}
	// Fault tolerance costs throughput (Fig. 6: n=1 well above n=2).
	if get(10, 1) <= get(10, 2) {
		t.Fatalf("n=1 (%0.f) not above n=2 (%0.f)", get(10, 1), get(10, 2))
	}
	_ = FormatFigure6(points)
}

func TestTable3AndFigure7Shape(t *testing.T) {
	// The hub-and-spoke experiments grind through minutes of simulated
	// retry traffic; they run in cmd/teechain-bench and the top-level
	// benchmarks. Set TEECHAIN_LONG_TESTS=1 to include them here.
	if os.Getenv("TEECHAIN_LONG_TESTS") == "" {
		t.Skip("long-running contention experiment; set TEECHAIN_LONG_TESTS=1")
	}
	// Small measurement slices are noisy under lock contention (every
	// experiment shares the one cost calibration of DESIGN.md §5, tuned
	// on Table 1 and Table 2, not on Fig. 4 or Table 3), so the
	// ordering checks carry tolerance margins; the full-size run in
	// cmd/teechain-bench is the reference.
	rows, err := RunTable3(25)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table3Row{}
	for _, r := range rows {
		byName[r.Approach] = r
		if r.Throughput <= 0 {
			t.Fatalf("%s measured no throughput", r.Approach)
		}
	}
	noFT := byName["No fault tolerance"]
	oneRep := byName["One replica"]
	dynNoFT := byName["Dynamic routing (No FT)"]
	// Fault tolerance does not improve throughput (Table 3: 671 -> 210).
	if oneRep.Throughput > noFT.Throughput*1.5 {
		t.Fatalf("one replica (%0.f) well above no FT (%0.f)", oneRep.Throughput, noFT.Throughput)
	}
	// Dynamic routing never shortens paths (Table 3: 3.2 -> 5.4 hops;
	// at reduced contention the rotation may not trigger, so the check
	// is non-strict).
	if dynNoFT.AvgHops < noFT.AvgHops-0.5 {
		t.Fatalf("dynamic routing hops %.1f below static %.1f", dynNoFT.AvgHops, noFT.AvgHops)
	}
	// Hub-and-spoke throughput is orders of magnitude below the
	// complete graph (§7.4 topology comparison).
	if noFT.Throughput > 50_000 {
		t.Fatalf("hub-and-spoke throughput %.0f implausibly high", noFT.Throughput)
	}
	_ = FormatTable3(rows)

	points, err := RunFigure7([]int{0, 2}, 25)
	if err != nil {
		t.Fatal(err)
	}
	get := func(g, n int) float64 {
		for _, p := range points {
			if p.TempChannels == g && p.Committee == n {
				return p.Throughput
			}
		}
		t.Fatalf("missing point g=%d n=%d", g, n)
		return 0
	}
	// Temporary channels do not hurt, and typically help (Fig. 7).
	if get(2, 1) < get(0, 1)*0.8 {
		t.Fatalf("G=2 (%0.f) well below G=0 (%0.f) at n=1", get(2, 1), get(0, 1))
	}
	_ = FormatFigure7(points)
}

// TestTable3CreditsTheCompletingPath: a dynamic-routing payment that
// retries completes on a longer alternate path, and Table 3 credits
// that path's hops, so the dynamic rows read more hops than the static
// ones (Table 3: 3.2 -> 5.4). Crediting the first path's length made
// all four rows equal. The run is deterministic
// (TestHubSpokeDeterminism), so the strict check is stable.
func TestTable3CreditsTheCompletingPath(t *testing.T) {
	rows, err := RunTable3(25)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table3Row{}
	for _, r := range rows {
		byName[r.Approach] = r
	}
	for static, dynamic := range map[string]string{
		"No fault tolerance": "Dynamic routing (No FT)",
		"One replica":        "Dynamic routing (One replica)",
	} {
		if s, d := byName[static].AvgHops, byName[dynamic].AvgHops; d <= s {
			t.Errorf("%s averages %v hops, not above %s's %v", dynamic, d, static, s)
		}
	}
}

func TestTable1LNRowMatchesModel(t *testing.T) {
	rtt := lookupLink(SiteUS, SiteUK).rtt
	if got := lightning.PaymentLatency(rtt); got < 380*time.Millisecond || got > 400*time.Millisecond {
		t.Fatalf("LN latency model %v", got)
	}
}

func TestFormatTable4(t *testing.T) {
	out := FormatTable4()
	for _, want := range []string{"LN", "DMC", "SFMC", "Teechain", "75% fewer txs", "50% more expensive"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 4 output missing %q:\n%s", want, out)
		}
	}
}
