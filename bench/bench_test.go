package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/route"
)

// benchmarkFile is all of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json and the
// program's own lists in step, and both within the schema's limits.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range bf.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the program", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	sameDefs := func(kind string, spec []specMetric, defs []metricDef, bounded bool) {
		t.Helper()
		if len(spec) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(spec), len(defs))
		}
		for i, s := range spec {
			unique(s.Name)
			d := defs[i]
			if s.Name != d.name || s.Unit != d.unit || s.Better != d.better {
				t.Errorf("%s metric %d is %s [%s, %s] in BENCHMARK.json, %s [%s, %s] in the program", kind, i, s.Name, s.Unit, s.Better, d.name, d.unit, d.better)
			}
			if !unitRE.MatchString(s.Unit) {
				t.Errorf("%s: unit %q does not match %v", s.Name, s.Unit, unitRE)
			}
			if s.Better != "lower" && s.Better != "higher" {
				t.Errorf("%s: better is %q", s.Name, s.Better)
			}
			if bounded != (s.Bound != nil) {
				t.Errorf("%s: bound present %v, want %v", s.Name, s.Bound != nil, bounded)
			}
			if s.Bound != nil && (*s.Bound <= 0 || *s.Bound > 0.25) {
				t.Errorf("%s: bound %v, want in (0, 0.25]", s.Name, *s.Bound)
			}
		}
	}
	sameDefs("end-to-end", bf.EndToEnd, endToEndDefs, true)
	sameDefs("per-layer", bf.PerLayer, perLayerDefs, false)
	if s := bf.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better")
	}
}

func testConfig(t *testing.T) runConfig {
	outDir, err := filepath.Abs("out")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	return runConfig{seed: 11, warmUp: 50 * time.Millisecond, measured: 300 * time.Millisecond, traced: 300 * time.Millisecond,
		setUps: 1, probes: probeConfig{core: 30 * time.Millisecond, micro: 5 * time.Millisecond}, outDir: outDir}
}

// TestWorkloadsEmitEveryMetric runs each workload briefly, correctness
// checks included, and verifies that both driver lines carry exactly
// the declared metrics with their units, that the printed table names
// each metric once, and that the breakdown of a serial payment sums to
// its latency.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	cfg := testConfig(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.callers != 0 {
				t.Skip("the routed topology is skipped under -short")
			}
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct %v, %d of %d requests failed: %v", res.Correct, res.Failed, res.Attempted, res.Errors)
			}
			for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
				var out bytes.Buffer
				if err := printDriverLine(&out, res, defs); err != nil {
					t.Fatal(err)
				}
				var line struct {
					Correct   *bool
					Attempted *uint64
					Failed    *uint64
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				dec := json.NewDecoder(&out)
				dec.DisallowUnknownFields()
				if err := dec.Decode(&line); err != nil {
					t.Fatalf("driver line: %v", err)
				}
				if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
					t.Errorf("driver line lacks one of correct, attempted, failed")
				}
				if len(line.Metrics) != len(defs) {
					t.Errorf("driver line has %d metrics, want %d", len(line.Metrics), len(defs))
				}
				for _, d := range defs {
					got, ok := line.Metrics[d.name]
					if !ok || got.Value == nil || got.Unit != d.unit {
						t.Errorf("%s: missing from the driver line or not in %s", d.name, d.unit)
					}
				}
			}
			for _, d := range endToEndDefs {
				if v, ok := res.Metrics[d.name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must be measured and never 0", d.name, v)
				}
			}
			var table bytes.Buffer
			printResult(&table, res)
			for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
				for _, d := range defs {
					if _, measured := res.Metrics[d.name]; !measured {
						continue
					}
					if n := strings.Count(table.String(), "   "+d.name+" "); n != 1 {
						t.Errorf("%s is printed %d times, want once", d.name, n)
					}
				}
			}
			if w.window == 1 {
				var sum float64
				for _, row := range breakdownRows {
					if _, ok := res.Metrics[row]; !ok {
						t.Errorf("%s is not reported", row)
					}
					sum += res.Metrics[row]
				}
				if total := res.Metrics["pay_p50_us"]; math.Abs(sum-total) > 1e-6 {
					t.Errorf("breakdown rows sum to %v, pay_p50_us is %v", sum, total)
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace_"+w.name+".jsonl")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}

// TestConservationCheckerCatchesWrongBalance hands the lane checker the
// true totals, then totals off by one unit and by one payment.
func TestConservationCheckerCatchesWrongBalance(t *testing.T) {
	cfg := testConfig(t)
	w, _ := findWorkload("lane_batch")
	b, err := setUp(w, cfg.outDir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	drive(b, w, cfg.seed, 100*time.Millisecond, false, nil)
	if b.sent.payments == 0 {
		t.Fatal("no payment completed")
	}
	if errs := checkLane(b, b.sent); len(errs) != 0 {
		t.Fatalf("true totals rejected: %v", errs)
	}
	if errs := checkLane(b, laneTotals{payments: b.sent.payments, amount: b.sent.amount + 1}); len(errs) == 0 {
		t.Error("an expected balance off by one unit was accepted")
	}
	if errs := checkLane(b, laneTotals{payments: b.sent.payments + 1, amount: b.sent.amount}); len(errs) == 0 {
		t.Error("an expected payment count off by one was accepted")
	}
}

// TestRouteCheck verifies the per-route fee check.
func TestRouteCheck(t *testing.T) {
	good := route.Route{Hops: make([]cryptoutil.PublicKey, 3), Fees: []chain.Amount{0, 2, 0}, Amount: 5, Send: 7}
	if err := checkRoute(good, 5); err != nil {
		t.Errorf("consistent route rejected: %v", err)
	}
	if err := checkRoute(good, 4); err == nil {
		t.Error("a route delivering other than the asked amount was accepted")
	}
	bad := good
	bad.Send = 8
	if err := checkRoute(bad, 5); err == nil {
		t.Error("a route debiting more than amount plus fees was accepted")
	}
}

// TestSelfTimes verifies that a span's self time is its duration less
// its children's, through a trace file and back.
func TestSelfTimes(t *testing.T) {
	tr := newTracer(8, 1)
	root := tr.reserve()
	tr.add(span{Name: "client.PayAsync", Start: 10, End: 30, Req: 1, Parent: root})
	tr.add(span{Name: "client.Pending.Wait", Start: 40, End: 90, Req: 1, Parent: root})
	tr.set(root, span{Name: "sdk.request", Start: 0, End: 100, Req: 1})
	spans, dropped := tr.recorded()
	if dropped != 0 {
		t.Fatalf("%d spans dropped", dropped)
	}
	for _, lt := range selfTimes(spans) {
		want := map[string]int64{"sdk.request": 30, "client.PayAsync": 20, "client.Pending.Wait": 50}[lt.Name]
		if lt.SelfNs != want {
			t.Errorf("%s: self time %d, want %d", lt.Name, lt.SelfNs, want)
		}
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := summarize(path, &out); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`sdk\.request\s+1\s+0\.10\s+0\.03`).MatchString(out.String()) {
		t.Errorf("summary lacks the root's 0.10 us total and 0.03 us self time:\n%s", out.String())
	}
}

// TestCompareRefusesOtherProcessorCounts verifies that two result
// files are compared only when nproc and GOMAXPROCS agree.
func TestCompareRefusesOtherProcessorCounts(t *testing.T) {
	dir := t.TempDir()
	results := []*result{{Workload: "lane_batch", Metrics: map[string]float64{"tx_per_s": 100, "pay_p50_us": 10}}}
	write := func(name string, h header, scale float64) string {
		scaled := []*result{{Workload: "lane_batch", Metrics: map[string]float64{}}}
		for k, v := range results[0].Metrics {
			scaled[0].Metrics[k] = v * scale
		}
		path := filepath.Join(dir, name)
		if err := writeResults(path, h, scaled); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bounds := map[string]float64{"tx_per_s": 0.1, "pay_p50_us": 0.1}
	two := header{NProc: 2, GOMAXPROCS: 2}
	base := write("base.json", two, 1)
	if err := compare(base, write("same.json", two, 1.05), bounds, &bytes.Buffer{}); err != nil {
		t.Errorf("a result within the bounds was rejected: %v", err)
	}
	if err := compare(base, write("slow.json", two, 0.5), bounds, &bytes.Buffer{}); err == nil {
		t.Error("half the throughput was not reported as a regression")
	}
	err := compare(base, write("four.json", header{NProc: 4, GOMAXPROCS: 4}, 1), bounds, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "not comparable") {
		t.Errorf("results from 2 and 4 processors were compared: %v", err)
	}
}
