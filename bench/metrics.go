package main

// metricDef names one metric. BENCHMARK.json repeats these lists with
// the regression bounds; bench_test.go holds the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are what a payer or an operator feels. Every workload
// reports every one of them, measured with tracing off. The workload's
// primary stream is its lane stream, or its routed stream on `routed`.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},            // median time of one cluster set-up, up to the first request being possible
	{"tx_per_s", "pay/s", "higher"},      // primary stream: acknowledged payments per second, median of 5 segments
	{"pay_p50_us", "us", "lower"},        // primary stream: issue call -> completion of one request, median
	{"pay_p99_us", "us", "lower"},        // the same, 99th percentile: every workload has over ten samples beyond it
	{"cpu_us_per_pay", "us", "lower"},    // process user+system CPU over the interval / payments completed
	{"allocs_per_pay", "count", "lower"}, // heap allocations over the interval / payments completed
	{"peak_rss_mb", "MiB", "lower"},      // peak resident set at the end of the interval
}

// perLayerDefs are metrics of single layers, named layer.metric. A
// workload reports 0 for one that does not apply to it.
var perLayerDefs = []metricDef{
	// End-to-end figures that cannot carry a bound: always 0 at HEAD, or
	// present on two workloads only.
	{"pay_samples", "count", "higher"},
	{"tx_per_s_min", "pay/s", "higher"},
	{"tx_per_s_max", "pay/s", "higher"},
	{"failed_share", "ratio", "lower"},
	{"routed.tx_per_s", "pay/s", "higher"},
	{"routed.p50_ms", "ms", "lower"},
	{"routed.p99_ms", "ms", "lower"},
	{"routed.samples", "count", "higher"},

	{"client.issue_us", "us", "lower"},
	{"client.wait_us", "us", "lower"},
	{"gen.blocked_share", "ratio", "higher"},

	{"api.rtt_us", "us", "lower"},
	{"api.self_us", "us", "lower"},

	{"transport.direct_p50_us", "us", "lower"},
	{"transport.direct_tx_per_s", "pay/s", "higher"},
	{"transport.issue_us", "us", "lower"},
	{"transport.frames_out_per_req", "count", "lower"},
	{"transport.frames_in_per_req", "count", "lower"},
	{"transport.wide_share", "ratio", "lower"},
	{"transport.admit_rejects", "count", "lower"},
	{"transport.drops", "count", "lower"},
	{"transport.reconnects", "count", "lower"},
	{"transport.outbox_depth_p50", "count", "lower"},
	{"transport.inflight_p50", "count", "lower"},
	{"transport.repl_ops_per_frame", "count", "higher"},
	{"transport.repl_frames_per_req", "count", "lower"},
	{"transport.repl_stalls", "count", "lower"},
	{"transport.wal_ops_per_fsync", "count", "higher"},
	{"transport.wal_fsyncs_per_s", "1/s", "lower"},
	{"transport.wal_lag_max", "count", "lower"},

	{"core.pay_ns", "ns", "lower"},
	{"core.pay_allocs", "count", "lower"},
	{"core.pay_committee2_ns", "ns", "lower"},
	{"core.mh_aborts_per_ok", "ratio", "lower"},

	{"wire.pay_codec_ns", "ns", "lower"},
	{"wire.paybatch64_codec_ns", "ns", "lower"},
	{"wire.replbatch64_codec_ns", "ns", "lower"},
	{"wire.pay_frame_bytes", "B", "lower"},
	{"wire.paybatch64_frame_bytes", "B", "lower"},
	{"wire.codec_allocs", "count", "lower"},

	{"cryptoutil.token_ns", "ns", "lower"},

	{"route.find_p50_us", "us", "lower"},
	{"route.find_k3_p50_us", "us", "lower"},
	{"route.mean_hops", "count", "lower"},
	{"route.find_share", "ratio", "lower"},

	{"env.loopback_rtt_us", "us", "lower"},
	{"env.fsync_us", "us", "lower"},
	{"proc.bytes_per_pay", "B", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.goroutines", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.sample_every", "count", "lower"},
	{"trace.dropped_spans", "count", "lower"},

	{"breakdown.client_api_us", "us", "lower"},
	{"breakdown.transport_us", "us", "lower"},
	{"breakdown.tcp_us", "us", "lower"},
	{"breakdown.wire_us", "us", "lower"},
	{"breakdown.cryptoutil_us", "us", "lower"},
	{"breakdown.core_us", "us", "lower"},
	{"breakdown.unattributed_us", "us", "lower"},
}

// breakdownRows are the rows that sum to pay_p50_us on the serial
// workloads.
var breakdownRows = []string{
	"breakdown.client_api_us", "breakdown.transport_us", "breakdown.tcp_us", "breakdown.wire_us",
	"breakdown.cryptoutil_us", "breakdown.core_us", "breakdown.unattributed_us",
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// primary is the stream the workload's end-to-end latency and
// throughput describe.
func (iv *interval) primary() *recorder {
	if iv.lane != nil {
		return iv.lane
	}
	return iv.routed
}

// endToEnd fills in the end-to-end metrics of the untraced interval,
// and the per-layer metrics that are read off the same interval.
func endToEnd(m map[string]float64, iv *interval) {
	p := iv.primary()
	rate, lo, hi := p.rate()
	m["tx_per_s"], m["tx_per_s_min"], m["tx_per_s_max"] = rate, lo, hi
	m["pay_p50_us"] = us(percentile(p.lat, 50))
	m["pay_p99_us"] = us(percentile(p.lat, 99))
	m["pay_samples"] = float64(len(p.lat))

	pays := float64(iv.payments())
	m["cpu_us_per_pay"] = ratio(float64(iv.procAfter.cpuNs-iv.procBefore.cpuNs)/1e3, pays)
	m["allocs_per_pay"] = ratio(float64(iv.procAfter.mallocs-iv.procBefore.mallocs), pays)
	m["peak_rss_mb"] = float64(iv.procAfter.maxRSSKiB) / 1024
	m["proc.bytes_per_pay"] = ratio(float64(iv.procAfter.allocBytes-iv.procBefore.allocBytes), pays)
	m["proc.gc_pause_ms"] = float64(iv.procAfter.gcPauseNs-iv.procBefore.gcPauseNs) / 1e6
	m["proc.goroutines"] = float64(iv.goroutines)

	var attempted, failed uint64
	iv.each(func(r *recorder) { attempted += r.attempted; failed += r.failed })
	m["failed_share"] = ratio(float64(failed), float64(attempted))

	if r := iv.routed; r != nil {
		m["routed.tx_per_s"], _, _ = r.rate()
		m["routed.p50_ms"] = float64(percentile(r.lat, 50)) / 1e6
		m["routed.p99_ms"] = float64(percentile(r.lat, 99)) / 1e6
		m["routed.samples"] = float64(len(r.lat))
		m["route.mean_hops"] = ratio(float64(r.hops), float64(len(r.lat)))
	}

	// Counter deltas of the lane sender (node n00 on `routed`).
	requests := float64(p.attempted)
	d0, d1 := iv.before, iv.after
	m["transport.frames_out_per_req"] = ratio(float64(d1.host.FramesOut-d0.host.FramesOut), requests)
	m["transport.frames_in_per_req"] = ratio(float64(d1.host.FramesIn-d0.host.FramesIn), requests)
	m["transport.wide_share"] = ratio(float64(d1.host.PaymentsWide-d0.host.PaymentsWide), float64(d1.host.PaymentsSent-d0.host.PaymentsSent))
	m["transport.admit_rejects"] = float64(d1.host.PaymentsRejected - d0.host.PaymentsRejected)
	m["transport.drops"] = float64(d1.host.Drops - d0.host.Drops)
	m["transport.reconnects"] = float64(d1.host.Reconnects - d0.host.Reconnects)
	replFrames := float64(d1.committee.BatchesOut - d0.committee.BatchesOut)
	m["transport.repl_ops_per_frame"] = ratio(float64(d1.committee.OpsOut-d0.committee.OpsOut), replFrames)
	m["transport.repl_frames_per_req"] = ratio(replFrames, requests)
	m["transport.repl_stalls"] = float64(d1.committee.Stalls - d0.committee.Stalls)
	fsyncs := float64(d1.wal.Fsyncs - d0.wal.Fsyncs)
	m["transport.wal_ops_per_fsync"] = ratio(float64(d1.wal.OpsLogged-d0.wal.OpsLogged), fsyncs)
	m["transport.wal_fsyncs_per_s"] = fsyncs / iv.dur.Seconds()
	m["transport.wal_lag_max"] = float64(d1.wal.FsyncLagMax)
	m["core.mh_aborts_per_ok"] = ratio(float64(d1.mhFailed-d0.mhFailed), float64(d1.mhOK-d0.mhOK))
	if iv.lane != nil {
		m["gen.blocked_share"] = float64(iv.lane.blocked) / float64(iv.dur)
	}
}

// handOffs is the number of frames, each one TCP hand-off, one token
// and one codec pass, on the path of one serial payment: Pay and
// PayAck, and with a committee the ReplBatch down the chain and the
// cumulative ack back up it.
func handOffs(w workload) float64 { return float64(2 + 2*w.committee) }

// perLayer fills in the metrics that need the traced loops: sdk through
// the SDK connections, direct at the transport hosts. untraced is the
// measured interval before them.
func perLayer(m map[string]float64, w workload, untraced, sdk, direct *interval, tr *tracer) {
	rate, _, _ := untraced.primary().rate()
	traced, _, _ := sdk.primary().rate()
	m["trace.overhead_pct"] = 100 * ratio(rate-traced, rate)
	m["trace.sample_every"] = float64(tr.every)
	_, dropped := tr.recorded()
	m["trace.dropped_spans"] = float64(dropped)
	dp := direct.primary()
	m["transport.direct_p50_us"] = us(percentile(dp.lat, 50))
	m["transport.direct_tx_per_s"], _, _ = dp.rate()
	if r := direct.routed; r != nil {
		m["route.find_share"] = ratio(float64(r.findNs), float64(r.routeNs))
	}
	if w.batch == 0 {
		return
	}
	m["client.issue_us"] = us(percentile(sdk.lane.issue, 50))
	m["client.wait_us"] = us(percentile(sdk.lane.wait, 50))
	m["transport.issue_us"] = us(percentile(direct.lane.issue, 50))
	m["transport.outbox_depth_p50"] = sampleP50(tr, "transport.outbox_depth")
	m["transport.inflight_p50"] = sampleP50(tr, "transport.inflight")

	// The SDK loop minus the identical loop entered at the host is what
	// client, api server and control connection add.
	total := m["pay_p50_us"]
	m["api.self_us"] = total - m["transport.direct_p50_us"]
	if w.window != 1 {
		return
	}

	// The breakdown of one serial payment. Probe figures are per frame;
	// the host's own row is the time inside its issue call less the
	// lower layers' work there, taken as an even share: one of handOffs
	// frames, and of that frame the producing half.
	n := handOffs(w)
	coreNs := m["core.pay_ns"]
	if w.committee > 0 {
		coreNs = m["core.pay_committee2_ns"]
	}
	m["breakdown.client_api_us"] = m["api.self_us"]
	m["breakdown.tcp_us"] = n * m["env.loopback_rtt_us"] / 2
	m["breakdown.wire_us"] = n * m["wire.pay_codec_ns"] / 1e3
	m["breakdown.cryptoutil_us"] = n * m["cryptoutil.token_ns"] / 1e3
	// The core probe seals and opens the same tokens; they are the
	// cryptoutil row's.
	m["breakdown.core_us"] = coreNs/1e3 - m["breakdown.cryptoutil_us"]
	lower := m["breakdown.wire_us"] + m["breakdown.cryptoutil_us"] + m["breakdown.core_us"]
	m["breakdown.transport_us"] = m["transport.issue_us"] - lower/(2*n)
	m["breakdown.unattributed_us"] = 0
	var sum float64
	for _, row := range breakdownRows {
		sum += m[row]
	}
	m["breakdown.unattributed_us"] = total - sum
}
