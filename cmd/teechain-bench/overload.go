package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"teechain/internal/api/client"
	"teechain/internal/chain"
	"teechain/internal/harness"
	"teechain/internal/transport"
	"teechain/internal/wire"
)

// The overload benchmark measures graceful degradation on the
// deployment path: one real-TCP sender→receiver pair whose host runs
// with a deliberately small admission budget, first driven by a
// self-clocked load that fits inside the budget (the baseline), then by
// an open-loop flood offering `overdrive` times that load. Every shed
// request is retried through the SDK's typed predicates
// (client.IsOverloaded / client.RetryAfter), so the run measures what a
// well-behaved client experiences during overload: admitted throughput
// and admitted-batch latency, plus how often it was pushed back.
//
// The committed BENCH_overload.json is the CI gate baseline (see
// compareOverloadBaseline). The gate enforces the two properties that
// make admission control worth having:
//
//   - flat p99: admitted-batch p99 latency under overdrive stays within
//     3x the baseline p99 — shedding keeps the queue short instead of
//     letting latency grow with offered load;
//   - sustained goodput: admitted tx/s under overdrive may not fall
//     more than 25% below the committed baseline's overdrive figure.

// Budget and load shape. The baseline's closed loop keeps exactly the
// per-channel budget in flight (overloadBaseWorkers × the 64-payment
// batch = overloadBudgetPerChannel) — the load the operator sized the
// budget for. Overdrive multiplies the worker count, so the offered
// in-flight volume far exceeds the budget and admission genuinely
// sheds, while the ADMITTED queue stays pinned at the same engineered
// depth as the baseline — which is precisely why p99 should stay flat.
const (
	overloadBudgetPerChannel = 512
	overloadBudgetTotal      = 4096
	overloadBaseWorkers      = 8

	// overloadTimeout bounds each SDK call; far above any admitted
	// batch's latency, so only a wedged cluster hits it.
	overloadTimeout = 120 * time.Second
)

// overloadResult is the measurement for one load level.
type overloadResult struct {
	Workers          int     `json:"workers"`
	Payments         int     `json:"payments"`
	AdmittedTxPerSec float64 `json:"admitted_tx_per_s"`
	P50Us            float64 `json:"p50_us"`
	P99Us            float64 `json:"p99_us"`
	Rejects          uint64  `json:"rejects"`
	RejectRate       float64 `json:"reject_rate"`
}

// overloadSnapshot is the full overload-bench record tracked across
// PRs: the baseline and overdrive runs of the winning repetition, as a
// coherent pair.
type overloadSnapshot struct {
	GoMaxProcs       int            `json:"go_max_procs"`
	Batch            int            `json:"batch"`
	PerRun           int            `json:"payments_per_run"`
	Overdrive        int            `json:"overdrive"`
	BudgetPerChannel int            `json:"budget_per_channel"`
	Base             overloadResult `json:"base"`
	Over             overloadResult `json:"over"`
	P99Ratio         float64        `json:"p99_ratio"`
}

// runOverloadBench drives one fresh two-node TCP cluster with `workers`
// concurrent closed loops, each issuing one batch at a time and
// retrying shed batches until admitted. Latency samples cover admitted
// batches only, stamped from the attempt that was admitted — a shed
// attempt costs a reject counter and a backoff sleep, not a latency
// outlier.
func runOverloadBench(payments, batch, workers int) (overloadResult, error) {
	res := overloadResult{Workers: workers, Payments: payments}
	c, err := harness.NewClusterWith(func(cfg *transport.Config) {
		cfg.MaxInflightPerChannel = overloadBudgetPerChannel
		cfg.MaxInflightTotal = overloadBudgetTotal
	}, "s0", "r0")
	if err != nil {
		return res, err
	}
	defer c.Close()
	if err := c.Connect("s0", "r0"); err != nil {
		return res, err
	}
	id, err := c.OpenChannel("s0", "r0", chain.Amount(payments)+1)
	if err != nil {
		return res, err
	}
	chID := wire.ChannelID(id)
	sender := c.Client("s0")
	sender.SetTimeout(overloadTimeout)

	// Workers claim payments from a shared counter so the total is
	// exact no matter how the schedule interleaves them.
	var next int64
	claim := func() int {
		n := atomic.AddInt64(&next, int64(batch))
		over := n - int64(payments)
		if over >= int64(batch) {
			return 0
		}
		if over > 0 {
			return batch - int(over)
		}
		return batch
	}

	var rejects atomic.Uint64
	var batches atomic.Uint64
	latCh := make(chan []time.Duration, workers)
	errCh := make(chan error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		go func() {
			var lats []time.Duration
			warmup := true
			amounts := make([]chain.Amount, batch)
			for i := range amounts {
				amounts[i] = 1
			}
			// The SDK retrier sleeps the server's RetryAfterMillis hint
			// with jitter, so shed workers don't re-flood in lockstep.
			// Attempts is effectively unbounded: the bench retries until
			// admitted, and rejection-before-debit makes that exact.
			retry := client.Retrier{Attempts: 1 << 20}
			for {
				n := claim()
				if n == 0 {
					break
				}
				var t0 time.Time
				err := retry.Do(func() error {
					t0 = time.Now()
					h, err := sender.PayBatchAsync(chID, amounts[:n])
					if err == nil {
						err = h.Wait()
					}
					if client.IsOverloaded(err) {
						rejects.Add(1)
					}
					return err
				})
				if err != nil {
					errCh <- err
					latCh <- lats
					return
				}
				// Each worker's first admitted batch pays one-time costs
				// (lane warmup, the acker ramping from target 1) that
				// would otherwise own the baseline tail. The recorded
				// latency spans only the admitted attempt: a shed attempt
				// costs a reject counter and a backoff sleep, not a
				// latency outlier.
				if warmup {
					warmup = false
				} else {
					lats = append(lats, time.Since(t0))
				}
				batches.Add(1)
			}
			latCh <- lats
		}()
	}

	var lats []time.Duration
	for w := 0; w < workers; w++ {
		lats = append(lats, <-latCh...)
	}
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return res, err
	default:
	}
	res.AdmittedTxPerSec = float64(payments) / elapsed.Seconds()
	res.Rejects = rejects.Load()
	if attempts := res.Rejects + batches.Load(); attempts > 0 {
		res.RejectRate = float64(res.Rejects) / float64(attempts)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) > 0 {
		res.P50Us = float64(lats[len(lats)/2].Microseconds())
		res.P99Us = float64(lats[len(lats)*99/100].Microseconds())
	}
	return res, nil
}

// runOverloadSuite measures a baseline/overdrive pair per repetition.
// Each gate criterion keeps its own best-of-reps value — the standard
// defense against one OS scheduling stall poisoning a measurement on a
// loaded machine: Base/Over record the repetition with the best
// overdrive admitted tx/s, and P99Ratio is the minimum across
// repetitions, where each repetition's ratio compares its own baseline
// against its own overdrive run (the two halves of a rep run
// back-to-back under the same machine-load regime, so the ratio is
// internally coherent even when absolute latencies drift between reps).
func runOverloadSuite(payments, batch, overdrive, reps int) (*overloadSnapshot, error) {
	if overdrive < 2 {
		return nil, fmt.Errorf("overdrive must be >= 2 (got %d)", overdrive)
	}
	if reps < 1 {
		reps = 1
	}
	snap := &overloadSnapshot{
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		Batch:            batch,
		PerRun:           payments,
		Overdrive:        overdrive,
		BudgetPerChannel: overloadBudgetPerChannel,
	}
	fmt.Printf("overload bench: GOMAXPROCS=%d, %d payments/run, batch=%d, budget=%d/channel, overdrive=%dx, best of %d\n",
		snap.GoMaxProcs, payments, batch, overloadBudgetPerChannel, overdrive, reps)
	fmt.Printf("%-10s %8s %12s %10s %10s %10s %8s\n",
		"load", "workers", "adm tx/s", "p50(us)", "p99(us)", "rejects", "shed%")
	show := func(load string, r overloadResult) {
		fmt.Printf("%-10s %8d %12.0f %10.0f %10.0f %10d %7.1f%%\n",
			load, r.Workers, r.AdmittedTxPerSec, r.P50Us, r.P99Us, r.Rejects, 100*r.RejectRate)
	}
	bestTx := -1.0
	bestRatio := math.MaxFloat64
	for rep := 0; rep < reps; rep++ {
		base, err := runOverloadBench(payments, batch, overloadBaseWorkers)
		if err != nil {
			return nil, fmt.Errorf("overload baseline: %w", err)
		}
		over, err := runOverloadBench(payments, batch, overloadBaseWorkers*overdrive)
		if err != nil {
			return nil, fmt.Errorf("overload %dx: %w", overdrive, err)
		}
		if over.Rejects == 0 {
			return nil, fmt.Errorf("overload %dx run shed nothing: the offered load never tripped the %d-payment budget, so the measurement says nothing about degradation",
				overdrive, overloadBudgetPerChannel)
		}
		if over.AdmittedTxPerSec > bestTx {
			bestTx = over.AdmittedTxPerSec
			snap.Base, snap.Over = base, over
		}
		if base.P99Us > 0 {
			if ratio := over.P99Us / base.P99Us; ratio < bestRatio {
				bestRatio = ratio
			}
		}
	}
	show("1x", snap.Base)
	show(fmt.Sprintf("%dx", overdrive), snap.Over)
	if bestRatio < math.MaxFloat64 {
		snap.P99Ratio = bestRatio
	}
	fmt.Printf("p99 ratio %dx/1x: %.2f (flat-p99 criterion: <= 3.0)\n", overdrive, snap.P99Ratio)
	return snap, nil
}

func writeOverloadJSON(path string, snap *overloadSnapshot) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// compareOverloadBaseline is the CI gate for graceful degradation:
// the fresh run must keep p99 flat (admitted-batch p99 under overdrive
// within 3x of its own baseline) and may not regress overdrive
// admitted tx/s by more than 25% against the committed baseline.
func compareOverloadBaseline(path string, fresh *overloadSnapshot) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading overload baseline: %w", err)
	}
	var base overloadSnapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing overload baseline %s: %w", path, err)
	}
	if fresh.P99Ratio > 3.0 {
		return fmt.Errorf("flat-p99 violation: admitted p99 at %dx offered load is %.2fx the baseline p99 (max 3.0) — shedding is no longer bounding the queue",
			fresh.Overdrive, fresh.P99Ratio)
	}
	floor := base.Over.AdmittedTxPerSec * 0.75
	if fresh.Over.AdmittedTxPerSec < floor {
		return fmt.Errorf("overload perf regression: %.0f admitted tx/s at %dx is more than 25%% below baseline %.0f (floor %.0f)",
			fresh.Over.AdmittedTxPerSec, fresh.Overdrive, base.Over.AdmittedTxPerSec, floor)
	}
	fmt.Printf("overload gate: p99 ratio %.2f <= 3.0, admitted %.0f tx/s >= floor %.0f (baseline %.0f)\n",
		fresh.P99Ratio, fresh.Over.AdmittedTxPerSec, floor, base.Over.AdmittedTxPerSec)
	fmt.Println("overload gate passed")
	return nil
}
