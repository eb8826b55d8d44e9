package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"teechain/internal/api"
	"teechain/internal/api/client"
	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/harness"
	"teechain/internal/route"
	"teechain/internal/transport"
)

// segments is the number of equal consecutive parts of an interval
// whose median rate is the interval's throughput: one scheduling stall
// on a shared machine then moves one segment, not the result.
const segments = 5

// recorder collects one stream's results over one interval. Each field
// is written by one goroutine of the loop and read after it returned.
type recorder struct {
	start, end int64 // the interval, in ns since epoch
	tr         *tracer

	lat         []int64 // issue call -> completion, per request
	issue, wait []int64 // traced only: inside the issue call; issue return -> completion
	seg         [segments]uint64
	payments    uint64 // completed within the interval
	attempted   uint64 // requests
	failed      uint64
	blocked     int64 // ns the generator had nothing it was allowed to issue
	firstErr    error

	// Routed streams only.
	hops    uint64 // over successful payments
	findNs  int64  // direct loop: inside Host.FindRoute
	routeNs int64  // direct loop: inside Host.PayRouted
}

func newRecorder(dur time.Duration, tr *tracer) *recorder {
	start := now()
	return &recorder{start: start, end: start + int64(dur), tr: tr}
}

// complete books one request that ended at t2 having moved n payments.
func (r *recorder) complete(t0, t1, t2 int64, n uint64, err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
		return
	}
	r.lat = append(r.lat, t2-t0)
	if r.tr != nil {
		r.issue = append(r.issue, t1-t0)
		r.wait = append(r.wait, t2-t1)
	}
	if t2 < r.end {
		r.payments += n
		r.seg[(t2-r.start)*segments/(r.end-r.start)] += n
	}
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// rate returns the median, lowest and highest payments per second of
// the interval's segments.
func (r *recorder) rate() (mid, lo, hi float64) {
	segSec := float64(r.end-r.start) / segments / 1e9
	rates := make([]float64, segments)
	for i, n := range r.seg {
		rates[i] = float64(n) / segSec
	}
	return median(rates), rates[0], rates[segments-1]
}

// merge folds another caller's recorder of the same interval into r.
func (r *recorder) merge(o *recorder) {
	r.lat = append(r.lat, o.lat...)
	for i := range r.seg {
		r.seg[i] += o.seg[i]
	}
	r.payments += o.payments
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.hops += o.hops
	r.findNs += o.findNs
	r.routeNs += o.routeNs
}

// percentile returns the p-th percentile of v by nearest rank, 0 for no
// samples. It sorts v.
func percentile(v []int64, p int) int64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	return v[len(v)*p/100]
}

// median returns the middle value of v, 0 for none. It sorts v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	return v[len(v)/2]
}

// --- Lane stream ---

// ticket is what an issue call returned and the matching wait needs:
// an SDK completion handle or a host settle cursor.
type ticket struct {
	pending *client.Pending
	mark    transport.PayMark
}

// laneOps is one way into the lane: through the SDK and the api server,
// or directly at the sender's transport host.
type laneOps struct {
	issueSpan, waitSpan, rootSpan string
	issue                         func(amounts []chain.Amount) (ticket, error)
	wait                          func(ticket) error
}

func sdkOps(b *bed, w workload) laneOps {
	ops := laneOps{rootSpan: "sdk.request", waitSpan: "client.Pending.Wait",
		wait: func(t ticket) error { return t.pending.Wait() }}
	if w.batch == 1 {
		ops.issueSpan = "client.PayAsync"
		ops.issue = func(a []chain.Amount) (ticket, error) {
			p, err := b.lane.PayAsync(b.ch, a[0], 1)
			return ticket{pending: p}, err
		}
	} else {
		ops.issueSpan = "client.PayBatchAsync"
		ops.issue = func(a []chain.Amount) (ticket, error) {
			p, err := b.lane.PayBatchAsync(b.ch, a)
			return ticket{pending: p}, err
		}
	}
	return ops
}

func directOps(b *bed, w workload) laneOps {
	h := b.c.Host(b.sender)
	ops := laneOps{rootSpan: "direct.request", waitSpan: "transport.AwaitChannelSettled",
		wait: func(t ticket) error {
			nacked, err := h.AwaitChannelSettled(b.ch, t.mark.Target, harness.ClusterTimeout)
			if err == nil && nacked > t.mark.NackedBefore {
				err = fmt.Errorf("payment nacked on %s", b.ch)
			}
			return err
		}}
	if w.batch == 1 {
		ops.issueSpan = "transport.PayTracked"
		ops.issue = func(a []chain.Amount) (ticket, error) {
			m, err := h.PayTracked(b.ch, a[0])
			return ticket{mark: m}, err
		}
	} else {
		ops.issueSpan = "transport.PayBatchTracked"
		ops.issue = func(a []chain.Amount) (ticket, error) {
			m, err := h.PayBatchTracked(b.ch, a)
			return ticket{mark: m}, err
		}
	}
	return ops
}

// amountPool draws the lane stream's requests from the seed: a ring of
// requests of w.batch amounts, each 1 to 5, and each request's total.
func amountPool(w workload, seed int64) (pool [][]chain.Amount, sums []chain.Amount) {
	rng := rand.New(rand.NewSource(seed))
	const ring = 1024
	pool = make([][]chain.Amount, ring)
	sums = make([]chain.Amount, ring)
	for i := range pool {
		pool[i] = make([]chain.Amount, w.batch)
		for j := range pool[i] {
			a := chain.Amount(1 + rng.Intn(5))
			pool[i][j] = a
			sums[i] += a
		}
	}
	return pool, sums
}

// inflight is one issued lane request on its way to the reaper.
type inflight struct {
	t      ticket
	t0, t1 int64
	req    uint64 // request number; req modulo the pool's size chose its amounts
	root   int32  // root span, 0 when the request is not traced
}

// laneLoop drives the lane closed-loop until rec.end, then drains what
// is in flight. Every completed payment, drained ones included, is
// added to b.sent.
func laneLoop(b *bed, w workload, ops laneOps, seed int64, rec *recorder) {
	pool, sums := amountPool(w, seed)
	tr := rec.tr
	n := uint64(w.batch)
	done := func(f inflight, tw, t2 int64, err error) {
		rec.complete(f.t0, f.t1, t2, n, err)
		if err == nil {
			b.sent.payments += n
			b.sent.amount += sums[f.req%uint64(len(sums))]
		}
		if f.root != 0 {
			tr.add(span{Name: ops.waitSpan, Start: tw, End: t2, Req: f.req, Parent: f.root})
			tr.set(f.root, span{Name: ops.rootSpan, Start: f.t0, End: t2, Req: f.req})
		}
	}
	issue := func(req uint64) (inflight, error) {
		f := inflight{req: req}
		if tr.samples(req) {
			f.root = tr.reserve()
		}
		f.t0 = now()
		t, err := ops.issue(pool[req%uint64(len(pool))])
		f.t, f.t1 = t, now()
		if f.root != 0 {
			tr.add(span{Name: ops.issueSpan, Start: f.t0, End: f.t1, Req: req, Parent: f.root})
		}
		return f, err
	}

	if w.window == 1 {
		// One goroutine issues and waits: a reaper would put two
		// goroutine hand-offs of the benchmark's own into the latency.
		for req := uint64(0); now() < rec.end; req++ {
			f, err := issue(req)
			if err == nil {
				err = ops.wait(f.t)
			}
			t2 := now()
			rec.blocked += t2 - f.t1
			done(f, f.t1, t2, err)
		}
		return
	}

	// The window is the benchmark's, taken before the request is timed:
	// waiting for it is gen.blocked_share, not latency.
	window := make(chan struct{}, w.window)
	queue := make(chan inflight, w.window)
	var reaper sync.WaitGroup
	reaper.Add(1)
	go func() {
		defer reaper.Done()
		// Completions resolve in issue order per channel.
		for f := range queue {
			tw := now()
			err := ops.wait(f.t)
			t2 := now()
			<-window
			done(f, tw, t2, err)
		}
	}()
	for req := uint64(0); ; req++ {
		b0 := now()
		window <- struct{}{}
		b1 := now()
		if b1 >= rec.end {
			break
		}
		rec.blocked += b1 - b0
		f, err := issue(req)
		if err != nil {
			<-window
			done(f, f.t1, f.t1, err)
			continue
		}
		queue <- f
	}
	close(queue)
	reaper.Wait()
}

// --- Routed stream ---

// routedLoop is one caller: until rec.end it pays a random other node
// an amount of 1 to 5 and waits for the outcome, retries inside
// PayRouted included. It checks every returned route's fee schedule.
// The payment goes through the SDK and the api server of the source
// node, or (direct) straight to its transport host, after a timed
// Host.FindRoute that route.find_share is computed from.
func routedLoop(b *bed, direct bool, seed int64, caller int, rec *recorder) {
	rng := rand.New(rand.NewSource(seed + 1000*int64(caller+1)))
	tr := rec.tr
	ids := make([]cryptoutil.PublicKey, len(b.nodes))
	hexIDs := make([]string, len(b.nodes))
	for i, name := range b.nodes {
		ids[i] = b.c.Identity(name)
		hexIDs[i] = api.FormatIdentity(ids[i])
	}
	for i := uint64(0); now() < rec.end; i++ {
		src, dst, amount := drawRouted(rng, len(b.nodes))
		req := uint64(caller)<<48 | i
		var root int32
		if tr.samples(i) {
			root = tr.reserve()
		}
		var paid route.Route
		var err error
		t0 := now()
		t1 := t0
		if direct {
			h := b.c.Host(b.nodes[src])
			_, ferr := h.FindRoute(ids[dst], amount)
			t1 = now()
			if ferr != nil {
				err = ferr
			} else {
				paid, err = h.PayRouted(ids[dst], amount, harness.ClusterTimeout)
			}
		} else {
			r, perr := b.c.Client(b.nodes[src]).PayRouted(hexIDs[dst], amount)
			paid, err = route.Route(r), perr
		}
		t2 := now()
		if err == nil {
			err = checkRoute(paid, amount)
		}
		rec.complete(t0, t1, t2, 1, err)
		if err == nil {
			rec.hops += uint64(len(paid.Hops) - 1)
		}
		if direct {
			rec.findNs += t1 - t0
			rec.routeNs += t2 - t1
		}
		if root != 0 {
			if direct {
				tr.add(span{Name: "transport.FindRoute", Start: t0, End: t1, Req: req, Parent: root})
				tr.add(span{Name: "transport.PayRouted", Start: t1, End: t2, Req: req, Parent: root})
				tr.set(root, span{Name: "direct.routed", Start: t0, End: t2, Req: req})
			} else {
				tr.set(root, span{Name: "client.PayRouted", Start: t0, End: t2, Req: req})
			}
		}
	}
}

// drawRouted draws one routed request: two distinct nodes of n and an
// amount of 1 to 5.
func drawRouted(rng *rand.Rand, n int) (src, dst int, amount chain.Amount) {
	src = rng.Intn(n)
	dst = rng.Intn(n - 1)
	if dst >= src {
		dst++
	}
	return src, dst, chain.Amount(1 + rng.Intn(5))
}

// checkRoute verifies the route a routed payment reports having taken
// against the request: the target received what was asked, and the
// sender was debited that plus exactly the fees the route lists.
func checkRoute(r route.Route, asked chain.Amount) error {
	var fees chain.Amount
	for _, f := range r.Fees {
		fees += f
	}
	switch {
	case len(r.Hops) < 2:
		return fmt.Errorf("routed payment reported a %d-node route", len(r.Hops))
	case r.Amount != asked:
		return fmt.Errorf("routed payment delivered %d, asked %d", r.Amount, asked)
	case r.Send-r.Amount != fees:
		return fmt.Errorf("routed payment debited %d for %d delivered, but its fees sum to %d", r.Send, r.Amount, fees)
	}
	return nil
}
