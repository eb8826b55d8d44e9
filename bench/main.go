// Command bench is the repository's one benchmark of the whole payment
// path: seven closed-loop workloads over in-process clusters on
// loopback TCP, every end-to-end and per-layer metric by name, and a
// traced breakdown of one serial payment. README.md has the load model,
// the metric tables and what each layer metric should move.
//
//	go -C bench run .                      # every workload, tables + out/result.json
//	go -C bench run . -workload lane_serial,routed
//	go -C bench run . -repeat 5            # spreads against the bounds in BENCHMARK.json
//	go -C bench run . -summarize out/trace_lane_serial.jsonl
//	go -C bench run . -compare old.json,new.json
//
// With -trace 0 or -trace 1 it runs one workload the way BENCHMARK.json
// declares and ends its output with one JSON object.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// options are the command's flags.
type options struct {
	workloads string
	seed      int64
	seconds   int
	trace     string
	repeat    int
	summarize string
	compare   string
}

func main() {
	var o options
	flag.StringVar(&o.workloads, "workload", "", "comma-separated workloads to run (default: all seven)")
	flag.Int64Var(&o.seed, "seed", 11, "seed of the generated requests")
	flag.IntVar(&o.seconds, "seconds", 8, "length of the measured interval; the traced interval is half of it")
	flag.StringVar(&o.trace, "trace", "", "0: one workload, end-to-end metrics as one JSON line; 1: the same for per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 1, "run the set this many times and report each metric's spread")
	flag.StringVar(&o.summarize, "summarize", "", "print the self time per layer of a trace file and exit")
	flag.StringVar(&o.compare, "compare", "", "old.json,new.json: compare two result files and exit")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.summarize != "" {
		return summarize(o.summarize, os.Stdout)
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	bounds, err := readBounds(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if o.compare != "" {
		old, fresh, ok := strings.Cut(o.compare, ",")
		if !ok {
			return fmt.Errorf("-compare wants old.json,new.json")
		}
		return compare(old, fresh, bounds, os.Stdout)
	}

	selected := workloads
	if o.workloads != "" {
		selected = nil
		for _, name := range strings.Split(o.workloads, ",") {
			w, ok := findWorkload(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown workload %q", name)
			}
			selected = append(selected, w)
		}
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	cfg := runConfig{seed: o.seed, outDir: outDir, probes: fullProbes, warmUp: time.Second,
		measured: time.Duration(o.seconds) * time.Second, traced: time.Duration(o.seconds) * time.Second / 2}

	// With -trace the declared run length covers the whole run: when
	// tracing, half of it is the untraced interval that the counters and
	// the tracing overhead are read against.
	var driverDefs []metricDef
	switch o.trace {
	case "":
	case "0":
		driverDefs, cfg.traced, cfg.probes = endToEndDefs, 0, shortProbes
	case "1":
		cfg.measured /= 2
		driverDefs, cfg.traced, cfg.probes = perLayerDefs, cfg.measured, shortProbes
	default:
		return fmt.Errorf("-trace wants 0 or 1")
	}
	if driverDefs != nil && (len(selected) != 1 || o.repeat != 1) {
		return fmt.Errorf("-trace %s runs exactly one workload once", o.trace)
	}

	hdr := newHeader(root, cfg)
	printHeader(os.Stdout, hdr)
	var sets [][]*result
	failed := false
	for i := 0; i < o.repeat; i++ {
		var set []*result
		for _, w := range selected {
			res, err := runWorkload(w, cfg)
			if err != nil {
				return err
			}
			printResult(os.Stdout, res)
			failed = failed || !res.Correct
			set = append(set, res)
		}
		sets = append(sets, set)
	}
	if driverDefs != nil {
		if err := printDriverLine(os.Stdout, sets[0][0], driverDefs); err != nil {
			return err
		}
	} else {
		path := filepath.Join(outDir, "result.json")
		if err := writeResults(path, hdr, sets[len(sets)-1]); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	if o.repeat > 1 && !printSpreads(os.Stdout, sets, bounds) {
		return fmt.Errorf("an end-to-end metric's spread over %d runs exceeds its bound", o.repeat)
	}
	if failed {
		return fmt.Errorf("correctness checks failed")
	}
	return nil
}

// repoRoot finds the checkout: the benchmark runs from its own
// directory (go -C bench run .) or from the root.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found: run from the repository root or from bench/")
}
