package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"teechain/internal/transport"
)

// counters is what the program's public counters read at one instant:
// the lane sender's host (or node n00 on `routed`), and the multihop
// outcomes of every host.
type counters struct {
	host      transport.Stats
	committee transport.CommitteeStats
	wal       transport.WalStats
	mhOK      uint64
	mhFailed  uint64
}

func readCounters(b *bed) counters {
	h := b.c.Host(b.counterHost())
	var c counters
	c.host = h.Stats()
	c.committee, _ = h.CommitteeStats()
	c.wal, _ = h.WalStats()
	for _, name := range b.names {
		st := b.c.Host(name).Stats()
		c.mhOK += st.MultihopsOK
		c.mhFailed += st.MultihopsFailed
	}
	return c
}

func (b *bed) counterHost() string {
	if b.sender != "" {
		return b.sender
	}
	return b.nodes[0]
}

// procStats is the process's resource use at one instant. Every node of
// the cluster lives in this process, so this is the deployment's bill.
type procStats struct {
	cpuNs      int64
	maxRSSKiB  int64
	mallocs    uint64
	allocBytes uint64
	gcPauseNs  uint64
}

func readProc() procStats {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStats{
		cpuNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		maxRSSKiB:  peakRSSKiB(ru.Maxrss),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcPauseNs:  ms.PauseTotalNs,
	}
}

// resetPeakRSS makes the kernel's peak-resident-set mark start again
// from the current resident set, so that a workload run after others in
// one process reports its own peak. Where the kernel has no such reset,
// the peak stays the process's.
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // best effort, see above
}

// peakRSSKiB reads the mark resetPeakRSS resets (VmHWM), falling back to
// the lifetime peak getrusage reported.
func peakRSSKiB(lifetime int64) int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return lifetime
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if kib, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 10, 64); err == nil {
				return kib
			}
		}
	}
	return lifetime
}

// interval is one timed stretch of a workload's traffic.
type interval struct {
	dur          time.Duration
	lane, routed *recorder // nil when the workload has no such stream
	before       counters
	after        counters
	procBefore   procStats
	procAfter    procStats
	goroutines   int
}

// payments is every payment of either stream completed in the interval.
func (iv *interval) payments() uint64 {
	var n uint64
	if iv.lane != nil {
		n += iv.lane.payments
	}
	if iv.routed != nil {
		n += iv.routed.payments
	}
	return n
}

func (iv *interval) each(fn func(*recorder)) {
	if iv.lane != nil {
		fn(iv.lane)
	}
	if iv.routed != nil {
		fn(iv.routed)
	}
}

// drive runs the workload's streams concurrently for dur and returns
// once every request has completed. direct enters at the transport
// hosts; otherwise requests go through SDK connections. With a tracer,
// spans are recorded, and in the SDK loop the sender's channel is
// sampled every 10 ms.
func drive(b *bed, w workload, seed int64, dur time.Duration, direct bool, tr *tracer) *interval {
	iv := &interval{dur: dur, before: readCounters(b), procBefore: readProc()}
	var wg sync.WaitGroup
	if w.batch > 0 {
		ops := sdkOps(b, w)
		if direct {
			ops = directOps(b, w)
		}
		iv.lane = newRecorder(dur, tr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			laneLoop(b, w, ops, seed, iv.lane)
		}()
	}
	callers := make([]*recorder, w.routedCallers())
	for i := range callers {
		callers[i] = newRecorder(dur, tr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			routedLoop(b, direct, seed, i, callers[i])
		}()
	}
	stopSampler := func() {}
	if tr != nil && !direct && w.batch > 0 {
		stopSampler = sampleChannel(b, tr)
	}
	wg.Wait()
	stopSampler()
	iv.goroutines = runtime.NumGoroutine()
	iv.procAfter = readProc()
	iv.after = readCounters(b)
	if len(callers) > 0 {
		iv.routed = callers[0]
		for _, r := range callers[1:] {
			iv.routed.merge(r)
		}
	}
	return iv
}

// sampleChannel reads the sender's ChannelStats every 10 ms until the
// returned stop function is called.
func sampleChannel(b *bed, tr *tracer) (stop func()) {
	h := b.c.Host(b.sender)
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				cs := h.ChannelStats()[b.ch]
				at := now()
				tr.readings = append(tr.readings,
					sample{"transport.outbox_depth", at, float64(cs.QueueDepth)},
					sample{"transport.inflight", at, float64(cs.InFlight)})
			}
		}
	}()
	return func() { close(quit); <-done }
}

// sampleP50 is the median of the named counter samples of a trace.
func sampleP50(tr *tracer, name string) float64 {
	var v []float64
	for _, s := range tr.readings {
		if s.Name == name {
			v = append(v, s.Value)
		}
	}
	return median(v)
}

// runConfig is how long a workload's phases last. With traced zero the
// traced loops and the probes are skipped, and so are their metrics.
type runConfig struct {
	seed     int64
	warmUp   time.Duration // untimed traffic before the measured interval
	measured time.Duration // tracing off: every end-to-end metric
	traced   time.Duration // split evenly between the SDK loop and the direct loop
	setUps   int           // set-ups timed for setup_s, the last one used (0: 9, or 3 on the routed topology)
	probes   probeConfig
	outDir   string
}

// result is one workload's outcome.
type result struct {
	Workload  string             `json:"workload"`
	Metrics   map[string]float64 `json:"metrics"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Correct   bool               `json:"correct"`
	Errors    []string           `json:"errors,omitempty"`
}

func (r *result) errorf(format string, args ...any) {
	r.Correct = false
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// runWorkload runs one workload from set-up to the correctness checks.
func runWorkload(w workload, cfg runConfig) (*result, error) {
	res := &result{Workload: w.name, Metrics: map[string]float64{}, Correct: true}
	m := res.Metrics

	// Set-up, timed several times: a single bring-up of a small
	// cluster is a few tens of milliseconds and wanders with the
	// machine; the median of several is what later changes are held to.
	resetPeakRSS()
	setUps := cfg.setUps
	if setUps == 0 {
		setUps = 9
		if w.callers != 0 {
			setUps = 3 // the 16-node topology takes 30 times longer to deploy
		}
	}
	var b *bed
	setUpSec := make([]float64, 0, setUps)
	for i := 0; i < setUps; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		if b, err = setUp(w, cfg.outDir); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setUpSec = append(setUpSec, time.Since(t0).Seconds())
	}
	defer b.close()
	m["setup_s"] = median(setUpSec)

	drive(b, w, cfg.seed, cfg.warmUp, false, nil)
	runtime.GC() // so that every run's measured interval starts from a collected heap

	measured := drive(b, w, cfg.seed+1, cfg.measured, false, nil)
	endToEnd(m, measured)
	measured.each(func(r *recorder) {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.firstErr != nil {
			res.errorf("%d of %d requests failed, first: %v", r.failed, r.attempted, r.firstErr)
		}
	})

	if cfg.traced > 0 {
		probeWorkload(m, b, w, cfg.probes)
		probeLayers(m, cfg.probes, cfg.outDir)
		half := cfg.traced / 2
		tr := newTracer(spanCapacity, sampleEvery(measured, half))
		sdk := drive(b, w, cfg.seed+2, half, false, tr)
		direct := drive(b, w, cfg.seed+3, half, true, tr)
		perLayer(m, w, measured, sdk, direct, tr)
		for _, iv := range []*interval{sdk, direct} {
			iv.each(func(r *recorder) {
				if r.firstErr != nil {
					res.errorf("traced run: %d of %d requests failed, first: %v", r.failed, r.attempted, r.firstErr)
				}
			})
		}
		if err := tr.write(fmt.Sprintf("%s/trace_%s.jsonl", cfg.outDir, w.name)); err != nil {
			return nil, err
		}
	}

	for _, err := range check(b, w) {
		res.errorf("%v", err)
	}
	return res, nil
}

// spanCapacity is the size of a workload's span buffer; it fills a trace
// file of some 50 MB.
const spanCapacity = 1 << 19

// sampleEvery chooses how many requests share one traced request, from
// the rate the untraced interval reached: over the two traced loops of
// dur each, three spans per request, and a direct loop up to twice as
// fast as the SDK loop.
func sampleEvery(measured *interval, dur time.Duration) uint64 {
	var requests uint64
	measured.each(func(r *recorder) { requests += r.attempted })
	spans := float64(requests) / measured.dur.Seconds() * dur.Seconds() * 3 * (1 + 2)
	return uint64(spans/spanCapacity) + 1
}
