package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// header is the environment a result was measured in. Two results are
// comparable only when NProc and GOMAXPROCS agree.
type header struct {
	GoVersion       string  `json:"go_version"`
	NProc           int     `json:"nproc"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	CPUModel        string  `json:"cpu_model"`
	Kernel          string  `json:"kernel"`
	GitCommit       string  `json:"git_commit"`
	Seed            int64   `json:"seed"`
	WarmUpSeconds   float64 `json:"warm_up_s"`
	MeasuredSeconds float64 `json:"measured_s"`
	TracedSeconds   float64 `json:"traced_s"`
}

func newHeader(root string, cfg runConfig) header {
	h := header{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", Kernel: "unknown", GitCommit: "unknown", Seed: cfg.seed,
		WarmUpSeconds: cfg.warmUp.Seconds(), MeasuredSeconds: cfg.measured.Seconds(), TracedSeconds: cfg.traced.Seconds(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	// A checkout that is not a git repository reports "unknown".
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	return h
}

func printHeader(w io.Writer, h header) {
	fmt.Fprintf(w, "# %s, nproc %d, GOMAXPROCS %d, %s, kernel %s, commit %s\n",
		h.GoVersion, h.NProc, h.GOMAXPROCS, h.CPUModel, h.Kernel, h.GitCommit)
	fmt.Fprintf(w, "# seed %d, warm-up %gs, measured %gs, traced %gs; closed loop, cluster in-process over loopback TCP\n",
		h.Seed, h.WarmUpSeconds, h.MeasuredSeconds, h.TracedSeconds)
}

// printResult prints every metric the run produced, by name, with its
// unit: end-to-end first, then per layer.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "\n== %s: %d requests attempted, %d failed, correct %v\n", res.Workload, res.Attempted, res.Failed, res.Correct)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "   ERROR %s\n", e)
	}
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			v, ok := res.Metrics[d.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "   %-32s %16.4f %s\n", d.name, v, d.unit)
		}
	}
}

// printDriverLine ends a -trace run's output with the one JSON object
// BENCHMARK.json's contract asks for: every metric of defs, a per-layer
// metric that does not apply to the workload as 0.
func printDriverLine(w io.Writer, res *result, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.name] = value{res.Metrics[d.name], d.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// resultFile is bench/out/result.json.
type resultFile struct {
	Header  header    `json:"header"`
	Results []*result `json:"results"`
}

func writeResults(path string, h header, results []*result) error {
	data, err := json.MarshalIndent(resultFile{h, results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchSpec is the part of BENCHMARK.json the command reads back: the
// regression bound of each end-to-end metric.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, e := range spec.EndToEnd {
		bounds[e.Name] = e.Bound
	}
	return bounds, nil
}

// printSpreads reports, per workload and metric, the median, lowest and
// highest value over the runs and their spread (max-min)/median. It
// returns false when an end-to-end metric's spread exceeds its bound.
func printSpreads(w io.Writer, sets [][]*result, bounds map[string]float64) bool {
	ok := true
	fmt.Fprintf(w, "\n== spread over %d runs\n", len(sets))
	fmt.Fprintf(w, "   %-18s %-30s %14s %14s %14s %8s %6s\n", "workload", "metric", "median", "min", "max", "spread", "bound")
	for i, first := range sets[0] {
		for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
			for _, d := range defs {
				var v []float64
				for _, set := range sets {
					if x, have := set[i].Metrics[d.name]; have {
						v = append(v, x)
					}
				}
				if len(v) == 0 {
					continue
				}
				mid := median(v)
				spread := ratio(v[len(v)-1]-v[0], mid)
				verdict := ""
				if bound, bounded := bounds[d.name]; bounded {
					verdict = fmt.Sprintf("%6.2f", bound)
					if spread > bound {
						verdict += " EXCEEDED"
						ok = false
					}
				}
				fmt.Fprintf(w, "   %-18s %-30s %14.4f %14.4f %14.4f %8.3f %s\n", first.Workload, d.name, mid, v[0], v[len(v)-1], spread, verdict)
			}
		}
	}
	return ok
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compare prints, per workload and end-to-end metric, how far the new
// result file is from the old one and whether that is a regression
// beyond the metric's bound. Results measured on a different number of
// processors are not comparable, and it says so instead.
func compare(oldPath, newPath string, bounds map[string]float64, w io.Writer) error {
	old, err := readResults(oldPath)
	if err != nil {
		return err
	}
	fresh, err := readResults(newPath)
	if err != nil {
		return err
	}
	if old.Header.NProc != fresh.Header.NProc || old.Header.GOMAXPROCS != fresh.Header.GOMAXPROCS {
		return fmt.Errorf("not comparable: %s ran with nproc %d GOMAXPROCS %d, %s with nproc %d GOMAXPROCS %d",
			oldPath, old.Header.NProc, old.Header.GOMAXPROCS, newPath, fresh.Header.NProc, fresh.Header.GOMAXPROCS)
	}
	byName := map[string]*result{}
	for _, r := range old.Results {
		byName[r.Workload] = r
	}
	regressed := false
	fmt.Fprintf(w, "%-18s %-18s %14s %14s %9s %6s\n", "workload", "metric", "old", "new", "worse", "bound")
	for _, r := range fresh.Results {
		o := byName[r.Workload]
		if o == nil {
			continue
		}
		for _, d := range endToEndDefs {
			a, b := o.Metrics[d.name], r.Metrics[d.name]
			worse := ratio(b-a, a)
			if d.better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > bounds[d.name] {
				verdict = " REGRESSED"
				regressed = true
			}
			fmt.Fprintf(w, "%-18s %-18s %14.4f %14.4f %+8.1f%% %6.2f%s\n", r.Workload, d.name, a, b, 100*worse, bounds[d.name], verdict)
		}
	}
	if regressed {
		return fmt.Errorf("%s is worse than %s beyond a bound", newPath, oldPath)
	}
	return nil
}
