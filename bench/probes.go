package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"time"

	"teechain"
	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// probeConfig is how long the probes run: core for the two payment
// probes through the simulated network, micro for each of the others.
type probeConfig struct {
	core, micro time.Duration
}

var (
	fullProbes  = probeConfig{core: 2 * time.Second, micro: 300 * time.Millisecond}
	shortProbes = probeConfig{core: 600 * time.Millisecond, micro: 100 * time.Millisecond}
)

// timeLoop calls op until d has passed and returns the mean time and
// heap allocations of one call.
func timeLoop(d time.Duration, op func()) (ns, allocs float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	n := 0
	for elapsed := time.Duration(0); elapsed < d; elapsed = time.Since(start) {
		for i := 0; i < 256; i++ {
			op()
		}
		n += 256
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	return float64(elapsed) / float64(n), float64(ms.Mallocs-mallocs) / float64(n)
}

// timeEach calls op until d has passed and returns the median time of
// one call, for operations long enough to time singly.
func timeEach(d time.Duration, op func() error) (float64, error) {
	var lat []int64
	for start := time.Now(); time.Since(start) < d; {
		t0 := now()
		if err := op(); err != nil {
			return 0, err
		}
		lat = append(lat, now()-t0)
	}
	return float64(percentile(lat, 50)), nil
}

// probeLayers times the layers below the transport from outside, each
// through its public functions. The figures do not depend on the
// workload; a failed probe reports 0 and says why on standard error.
func probeLayers(m map[string]float64, cfg probeConfig, outDir string) {
	probeWire(m, cfg)
	probeToken(m, cfg)
	if ns, allocs, err := probeCorePay(cfg.core, 0); err != nil {
		fmt.Fprintf(os.Stderr, "probe core.pay_ns: %v\n", err)
	} else {
		m["core.pay_ns"], m["core.pay_allocs"] = ns, allocs
	}
	if ns, _, err := probeCorePay(cfg.core, 2); err != nil {
		fmt.Fprintf(os.Stderr, "probe core.pay_committee2_ns: %v\n", err)
	} else {
		m["core.pay_committee2_ns"] = ns
	}
	if rtt, err := probeLoopback(cfg.micro); err != nil {
		fmt.Fprintf(os.Stderr, "probe env.loopback_rtt_us: %v\n", err)
	} else {
		m["env.loopback_rtt_us"] = rtt / 1e3
	}
	if ns, err := probeFsync(cfg.micro, outDir); err != nil {
		fmt.Fprintf(os.Stderr, "probe env.fsync_us: %v\n", err)
	} else {
		m["env.fsync_us"] = ns / 1e3
	}
}

// probeWire times one frame through AppendFrame and DecodeFrame, for
// the three frames the payment paths send most.
func probeWire(m map[string]float64, cfg probeConfig) {
	var from cryptoutil.PublicKey
	token := make([]byte, 25) // the size of a bound token: counter, one byte, GCM tag
	const ch = wire.ChannelID("s0:r0:0000000000000001")
	amounts := make([]chain.Amount, 64)
	ops := make([]wire.ReplBatchOp, 64)
	for i := range amounts {
		amounts[i] = chain.Amount(1 + i%5)
		ops[i] = wire.ReplBatchOp{Kind: wire.ReplOpPaySend, Channel: ch, Amount: amounts[i], Count: 1}
	}
	frames := []struct {
		metric, bytes string
		msg           wire.Message
	}{
		{"wire.pay_codec_ns", "wire.pay_frame_bytes", &wire.Pay{Channel: ch, Amount: 3, Count: 1}},
		{"wire.paybatch64_codec_ns", "wire.paybatch64_frame_bytes", &wire.PayBatch{Channel: ch, Amounts: amounts}},
		{"wire.replbatch64_codec_ns", "", &wire.ReplBatch{Chain: "s0-chain", FirstSeq: 1, Ops: ops}},
	}
	var buf []byte
	for _, f := range frames {
		var failed error
		ns, allocs := timeLoop(cfg.micro, func() {
			var err error
			if buf, err = wire.AppendFrame(buf[:0], from, token, f.msg); err == nil {
				_, err = wire.DecodeFrame(buf[4:])
			}
			if err != nil {
				failed = err
			}
		})
		if failed != nil {
			fmt.Fprintf(os.Stderr, "probe %s: %v\n", f.metric, failed)
			continue
		}
		m[f.metric] = ns
		if f.bytes != "" {
			m[f.bytes] = float64(len(buf))
		}
		if f.metric == "wire.pay_codec_ns" {
			m["wire.codec_allocs"] = allocs
		}
	}
}

// probeToken times one freshness token sealed and opened, bound to a
// payload the size of a Pay.
func probeToken(m map[string]float64, cfg probeConfig) {
	var key [32]byte
	key[0] = 1
	tx, err1 := cryptoutil.NewSession(key)
	rx, err2 := cryptoutil.NewSession(key)
	if err1 != nil || err2 != nil {
		fmt.Fprintf(os.Stderr, "probe cryptoutil.token_ns: %v %v\n", err1, err2)
		return
	}
	payload := make([]byte, 40)
	var token []byte
	var failed error
	ns, _ := timeLoop(cfg.micro, func() {
		token = tx.SealAppendBound(token[:0], 7, payload)
		if _, err := rx.OpenBound(token, payload); err != nil {
			failed = err
		}
	})
	if failed != nil {
		fmt.Fprintf(os.Stderr, "probe cryptoutil.token_ns: %v\n", failed)
		return
	}
	m["cryptoutil.token_ns"] = ns
}

// probeCorePay times one payment through two enclaves, tokens
// included, over the simulated network of the public teechain package
// (the BENCH_payment figure), optionally with the payer owning a
// committee chain of the given size.
func probeCorePay(d time.Duration, committee int) (ns, allocs float64, err error) {
	net, err := teechain.NewNetwork()
	if err != nil {
		return 0, 0, err
	}
	add := func(name string) (*teechain.Node, error) {
		return net.AddNode(name, teechain.SiteUK, teechain.NodeOptions{})
	}
	alice, err := add("alice")
	if err != nil {
		return 0, 0, err
	}
	bob, err := add("bob")
	if err != nil {
		return 0, 0, err
	}
	var members []*teechain.Node
	for i := 0; i < committee; i++ {
		member, err := add(fmt.Sprintf("member%d", i+1))
		if err != nil {
			return 0, 0, err
		}
		members = append(members, member)
	}
	if len(members) > 0 {
		if err := net.FormCommittee(alice, members, 2); err != nil {
			return 0, 0, err
		}
	}
	ch, err := net.OpenChannel(alice, bob, deposit, 0)
	if err != nil {
		return 0, 0, err
	}
	issued, acked := 0, 0
	done := func(ok bool, _ time.Duration, _ string) {
		if ok {
			acked++
		}
	}
	ns, allocs = timeLoop(d, func() {
		if perr := alice.Pay(ch, 1, done); perr != nil {
			err = perr
		}
		issued++
		net.Run()
	})
	if err == nil && acked != issued {
		err = fmt.Errorf("%d of %d payments acknowledged", acked, issued)
	}
	return ns, allocs, err
}

// probeLoopback times a 64-byte TCP ping-pong between two goroutines:
// the price of two hand-offs through the kernel and the Go netpoller on
// this machine.
func probeLoopback(d time.Duration) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(conn, buf); err != nil {
				echoed <- nil // the prober hung up
				return
			}
			if _, err := conn.Write(buf); err != nil {
				echoed <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 64)
	rtt, err := timeEach(d, func() error {
		if _, err := conn.Write(buf); err != nil {
			return err
		}
		_, err := io.ReadFull(conn, buf)
		return err
	})
	conn.Close()
	if eerr := <-echoed; err == nil {
		err = eerr
	}
	return rtt, err
}

// probeFsync times a 4 KiB write plus fsync in the benchmark's output
// directory, the filesystem the durable workload logs to.
func probeFsync(d time.Duration, outDir string) (float64, error) {
	f, err := os.CreateTemp(outDir, "fsync-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	return timeEach(d, func() error {
		if _, err := f.Write(block); err != nil {
			return err
		}
		return f.Sync()
	})
}

// probeWorkload times what needs the workload's own cluster: the
// cheapest request on a control connection, and on the routed topology
// the pathfinder over the converged graph.
func probeWorkload(m map[string]float64, b *bed, w workload, cfg probeConfig) {
	cc := b.lane
	if cc == nil {
		cc = b.c.Client(b.nodes[0])
	}
	if ns, err := timeEach(cfg.micro, func() error { _, err := cc.Peers(); return err }); err != nil {
		fmt.Fprintf(os.Stderr, "probe api.rtt_us: %v\n", err)
	} else {
		m["api.rtt_us"] = ns / 1e3
	}
	if w.callers == 0 {
		return
	}
	g := b.c.Host(b.nodes[0]).RouteGraph()
	// k = 1 is Graph.FindRoute; k = 3 is what PayRouted asks each round.
	for _, f := range []struct {
		metric string
		k      int
	}{{"route.find_p50_us", 1}, {"route.find_k3_p50_us", 3}} {
		rng := rand.New(rand.NewSource(topoSeed))
		ns, err := timeEach(cfg.micro, func() error {
			src, dst, amount := drawRouted(rng, len(b.nodes))
			_, err := g.FindRoutes(b.c.Identity(b.nodes[src]), b.c.Identity(b.nodes[dst]), amount, f.k, 0)
			return err
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "probe %s: %v\n", f.metric, err)
			continue
		}
		m[f.metric] = ns / 1e3
	}
}
