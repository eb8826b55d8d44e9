// Package faultnet is a deterministic, seeded fault-injection layer
// for the socket transport. It wraps outbound peer connections (via
// transport.Config.Dial) with frame-aware pipelines that drop, delay,
// duplicate, reorder, truncate, or blackhole individual wire frames,
// and models network partitions by killing live connections and
// failing subsequent dials.
//
// Faults are per-link and directional: SetRule("a", "b", r) shapes
// only frames flowing from node a to node b. Each direction of each
// connection owns a rand.Rand seeded from hash(networkSeed, from, to,
// connection#), so a schedule is reproducible from the single seed the
// chaos harness prints on failure.
//
// Only registered peer addresses are wrapped; dials to unregistered
// addresses (control plane, chain RPC) pass through untouched, so a
// chaos cluster keeps an honest control path while its data path
// burns.
package faultnet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"teechain/internal/wire"
)

// Rule describes the faults injected on one link direction. The zero
// Rule forwards faithfully.
type Rule struct {
	// Drop is the probability a frame is silently discarded.
	Drop float64
	// Dup is the probability a frame is delivered twice back-to-back.
	Dup float64
	// DelayMin/DelayMax bound a per-frame head-of-line delay, sampled
	// uniformly. Zero DelayMax disables delays.
	DelayMin, DelayMax time.Duration
	// Reorder is the probability a frame is held back and delivered
	// only after 1..ReorderDepth subsequent frames (or after
	// ReorderHold elapses, whichever comes first — the time backstop
	// keeps a held frame from stalling forever on an idle link).
	Reorder float64
	// ReorderDepth caps how many later frames overtake a held frame.
	// Depths beyond the session anti-replay window (64) turn reordering
	// into frame loss at the receiver — deliberately reachable, that is
	// what the window is for. Default 4.
	ReorderDepth int
	// ReorderHold is the time backstop for held frames. Default 200ms.
	ReorderHold time.Duration
	// Truncate is the probability a frame is cut mid-bytes and the
	// connection killed — a peer dying with a write half-flushed.
	Truncate float64
	// Blackhole discards every frame in this direction while leaving
	// the connection up: the one-way failure TCP cannot see.
	Blackhole bool
}

// Stats counts faults injected across the whole network.
type Stats struct {
	Forwarded  uint64
	Dropped    uint64
	Duplicated uint64
	Reordered  uint64
	Delayed    uint64
	Truncated  uint64
	Blackholed uint64
	Killed     uint64 // connections killed by Partition
}

const (
	defaultReorderDepth = 4
	defaultReorderHold  = 200 * time.Millisecond
	// maxHeld caps concurrently held frames per direction so a
	// high-Reorder rule cannot swallow a whole stream.
	maxHeld = 8
)

type linkKey struct{ from, to string }

// pairKey is an unordered node pair (partitions are symmetric).
func pairKey(a, b string) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// Network is one fault-injected network: node registrations, per-link
// rules, partitions, and the live wrapped connections.
type Network struct {
	seed int64
	logf func(string, ...any)

	mu    sync.Mutex
	nodes map[string]string // listen addr → node name
	rules map[linkKey]Rule
	parts map[linkKey]bool
	conns map[*faultConn]struct{}
	seq   map[linkKey]int64 // connection counter per directed link

	forwarded, dropped, duplicated, reordered atomic.Uint64
	delayed, truncated, blackholed, killed    atomic.Uint64
}

// New builds a Network. All randomness derives from seed; logf (may be
// nil) receives fault events for schedule debugging.
func New(seed int64, logf func(string, ...any)) *Network {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Network{
		seed:  seed,
		logf:  logf,
		nodes: make(map[string]string),
		rules: make(map[linkKey]Rule),
		parts: make(map[linkKey]bool),
		conns: make(map[*faultConn]struct{}),
		seq:   make(map[linkKey]int64),
	}
}

// Seed returns the seed the network was built with — the harness
// prints it on failure so a run can be replayed.
func (n *Network) Seed() int64 { return n.seed }

// RegisterNode maps a peer listen address to a node name. Dials to
// that address are wrapped; the mapping survives listener bounces as
// long as the address is re-registered (or unchanged).
func (n *Network) RegisterNode(name, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[addr] = name
}

// SetRule installs the fault rule for frames flowing from → to. It
// applies to live connections from the next frame on.
func (n *Network) SetRule(from, to string, r Rule) {
	if r.ReorderDepth <= 0 {
		r.ReorderDepth = defaultReorderDepth
	}
	if r.ReorderHold <= 0 {
		r.ReorderHold = defaultReorderHold
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rules[linkKey{from, to}] = r
}

// SetRuleBoth installs r on both directions of a link.
func (n *Network) SetRuleBoth(a, b string, r Rule) {
	n.SetRule(a, b, r)
	n.SetRule(b, a, r)
}

// ClearRules removes every rule; live connections forward faithfully
// from the next frame on.
func (n *Network) ClearRules() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rules = make(map[linkKey]Rule)
}

// Partition cuts a and b apart: live connections between them die and
// new dials fail until Heal.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	n.parts[pairKey(a, b)] = true
	var doomed []*faultConn
	for c := range n.conns {
		if pairKey(c.local, c.remote) == pairKey(a, b) {
			doomed = append(doomed, c)
		}
	}
	n.mu.Unlock()
	for _, c := range doomed {
		n.killed.Add(1)
		c.abort()
	}
	n.logf("faultnet: partition %s | %s (%d conns killed)", a, b, len(doomed))
}

// Heal removes the partition between a and b.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.parts, pairKey(a, b))
}

// HealAll removes every partition.
func (n *Network) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.parts = make(map[linkKey]bool)
}

// Stats snapshots the fault counters.
func (n *Network) Stats() Stats {
	return Stats{
		Forwarded:  n.forwarded.Load(),
		Dropped:    n.dropped.Load(),
		Duplicated: n.duplicated.Load(),
		Reordered:  n.reordered.Load(),
		Delayed:    n.delayed.Load(),
		Truncated:  n.truncated.Load(),
		Blackholed: n.blackholed.Load(),
		Killed:     n.killed.Load(),
	}
}

// CloseAll kills every live wrapped connection.
func (n *Network) CloseAll() {
	n.mu.Lock()
	doomed := make([]*faultConn, 0, len(n.conns))
	for c := range n.conns {
		doomed = append(doomed, c)
	}
	n.mu.Unlock()
	for _, c := range doomed {
		c.abort()
	}
}

// Dialer returns the transport.Config.Dial hook for the named node:
// dials to registered peer addresses come back fault-wrapped (or fail
// while partitioned); everything else is a plain TCP dial.
func (n *Network) Dialer(node string) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		n.mu.Lock()
		remote, wrapped := n.nodes[addr]
		partitioned := wrapped && n.parts[pairKey(node, remote)]
		n.mu.Unlock()
		if !wrapped {
			return net.Dial("tcp", addr)
		}
		if partitioned {
			return nil, fmt.Errorf("faultnet: %s and %s are partitioned", node, remote)
		}
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return n.wrap(raw, node, remote), nil
	}
}

func (n *Network) ruleFor(k linkKey) Rule {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rules[k]
}

// newRNG derives the deterministic per-direction, per-connection RNG.
func (n *Network) newRNG(from, to string) *rand.Rand {
	n.mu.Lock()
	k := linkKey{from, to}
	n.seq[k]++
	seq := n.seq[k]
	n.mu.Unlock()
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(n.seed))
	h.Write(b[:])
	h.Write([]byte(from))
	h.Write([]byte{0})
	h.Write([]byte(to))
	binary.BigEndian.PutUint64(b[:], uint64(seq))
	h.Write(b[:])
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// wrap builds the fault-injecting conn around raw for the link
// local↔remote, pumping both directions through fault pipelines.
func (n *Network) wrap(raw net.Conn, local, remote string) net.Conn {
	c := &faultConn{Conn: raw, fn: n, local: local, remote: remote}
	c.q = newReadQueue()
	pr, pw := io.Pipe()
	c.pw = pw

	kill := func() { raw.Close() }
	out := &direction{
		n: n, key: linkKey{local, remote}, rng: n.newRNG(local, remote),
		dst: rawWriter{raw}, kill: kill,
	}
	in := &direction{
		n: n, key: linkKey{remote, local}, rng: n.newRNG(remote, local),
		dst: queueWriter{c.q}, kill: kill,
	}
	go func() {
		out.pump(pr)
		pr.Close()
	}()
	go in.pump(raw)

	n.mu.Lock()
	n.conns[c] = struct{}{}
	n.mu.Unlock()
	return c
}

// --- the fault-injecting conn ---

type faultConn struct {
	net.Conn // the raw conn: addresses and write deadlines delegate
	fn       *Network
	local    string
	remote   string
	q        *readQueue
	pw       *io.PipeWriter
	once     sync.Once
}

func (c *faultConn) Read(p []byte) (int, error)  { return c.q.Read(p) }
func (c *faultConn) Write(p []byte) (int, error) { return c.pw.Write(p) }

// Close is the owner-side close: the outbound pump drains queued
// frames (including held reordered ones) before the raw conn closes,
// with a failsafe timer in case the pump is wedged on a dead peer.
func (c *faultConn) Close() error {
	c.once.Do(func() {
		c.fn.mu.Lock()
		delete(c.fn.conns, c)
		c.fn.mu.Unlock()
		c.pw.Close() // out pump drains, flushes held frames, closes raw
		c.q.hardClose()
		time.AfterFunc(2*time.Second, func() { c.Conn.Close() })
	})
	return nil
}

// abort cuts the conn NOW — in-flight frames are lost. Partitions and
// network teardown use it; a graceful drain would defeat the fault.
func (c *faultConn) abort() {
	c.once.Do(func() {
		c.fn.mu.Lock()
		delete(c.fn.conns, c)
		c.fn.mu.Unlock()
		c.pw.CloseWithError(net.ErrClosed)
		c.q.hardClose()
		c.Conn.Close()
	})
}

func (c *faultConn) SetReadDeadline(t time.Time) error { c.q.setDeadline(t); return nil }

func (c *faultConn) SetDeadline(t time.Time) error {
	c.q.setDeadline(t)
	return c.Conn.SetWriteDeadline(t)
}

// --- one direction's fault pipeline ---

type direction struct {
	n    *Network
	key  linkKey
	rng  *rand.Rand // owned by the pump goroutine
	kill func()

	mu   sync.Mutex // serializes dst writes and held access
	dst  io.WriteCloser
	held []heldFrame
}

type heldFrame struct {
	frame    []byte
	after    int // deliveries remaining before release
	deadline time.Time
}

// pump reads wire frames from src and forwards them through the fault
// rule until src fails. Non-frame byte streams (a length prefix that
// cannot be a frame) degrade to opaque passthrough.
func (d *direction) pump(src io.Reader) {
	done := make(chan struct{})
	defer close(done)
	go d.watchdog(done)
	defer func() {
		d.mu.Lock()
		d.flushHeldLocked()
		d.dst.Close()
		d.mu.Unlock()
	}()

	var hdr [4]byte
	for {
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return
		}
		size := int(binary.BigEndian.Uint32(hdr[:]))
		if size > wire.MaxFrameSize || size < 4 {
			// Not the frame protocol: stop interpreting, just relay.
			d.mu.Lock()
			d.flushHeldLocked()
			_, err := d.dst.Write(hdr[:])
			d.mu.Unlock()
			if err != nil {
				return
			}
			d.copyThrough(src)
			return
		}
		frame := make([]byte, 4+size)
		copy(frame, hdr[:])
		if _, err := io.ReadFull(src, frame[4:]); err != nil {
			return
		}
		rule := d.n.ruleFor(d.key)
		switch {
		case rule.Blackhole:
			d.n.blackholed.Add(1)
			continue
		case rule.Drop > 0 && d.rng.Float64() < rule.Drop:
			d.n.dropped.Add(1)
			d.n.logf("faultnet: %s→%s drop %dB", d.key.from, d.key.to, len(frame))
			continue
		case rule.Truncate > 0 && d.rng.Float64() < rule.Truncate:
			d.n.truncated.Add(1)
			d.n.logf("faultnet: %s→%s truncate %dB at %d", d.key.from, d.key.to, len(frame), len(frame)/2)
			d.mu.Lock()
			d.dst.Write(frame[:len(frame)/2])
			d.mu.Unlock()
			d.kill()
			return
		case rule.Reorder > 0 && d.rng.Float64() < rule.Reorder:
			d.mu.Lock()
			if len(d.held) < maxHeld {
				d.n.reordered.Add(1)
				d.held = append(d.held, heldFrame{
					frame:    frame,
					after:    1 + d.rng.Intn(rule.ReorderDepth),
					deadline: time.Now().Add(rule.ReorderHold),
				})
				d.mu.Unlock()
				continue
			}
			d.mu.Unlock()
		}
		if rule.DelayMax > 0 {
			delay := rule.DelayMin
			if span := rule.DelayMax - rule.DelayMin; span > 0 {
				delay += time.Duration(d.rng.Int63n(int64(span)))
			}
			d.n.delayed.Add(1)
			time.Sleep(delay)
		}
		dup := rule.Dup > 0 && d.rng.Float64() < rule.Dup
		if err := d.deliver(frame, dup); err != nil {
			return
		}
	}
}

// deliver writes a frame (twice when dup), then releases any held
// frames whose overtake budget is exhausted.
func (d *direction) deliver(frame []byte, dup bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Count before writing: a reader that has the frame must see it
	// counted.
	d.n.forwarded.Add(1)
	if _, err := d.dst.Write(frame); err != nil {
		d.n.forwarded.Add(^uint64(0))
		return err
	}
	if dup {
		d.n.duplicated.Add(1)
		if _, err := d.dst.Write(frame); err != nil {
			return err
		}
	}
	for i := range d.held {
		d.held[i].after--
	}
	return d.releaseLocked(func(h heldFrame) bool { return h.after <= 0 })
}

// watchdog releases held frames whose time backstop expired, so a
// reordered frame on a link that goes quiet still arrives.
func (d *direction) watchdog(done <-chan struct{}) {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case now := <-tick.C:
			d.mu.Lock()
			d.releaseLocked(func(h heldFrame) bool { return now.After(h.deadline) })
			d.mu.Unlock()
		}
	}
}

// releaseLocked delivers held frames matching expired, preserving
// their hold order. Caller holds d.mu.
func (d *direction) releaseLocked(expired func(heldFrame) bool) error {
	kept := d.held[:0]
	var err error
	for _, h := range d.held {
		if err == nil && expired(h) {
			d.n.forwarded.Add(1)
			if _, werr := d.dst.Write(h.frame); werr != nil {
				d.n.forwarded.Add(^uint64(0))
				err = werr
			}
		} else {
			kept = append(kept, h)
		}
	}
	d.held = kept
	return err
}

// flushHeldLocked delivers every held frame. Caller holds d.mu.
func (d *direction) flushHeldLocked() {
	d.releaseLocked(func(heldFrame) bool { return true })
}

// copyThrough relays src opaquely (passthrough fallback), honoring the
// write mutex so a late watchdog tick cannot interleave.
func (d *direction) copyThrough(src io.Reader) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			d.mu.Lock()
			_, werr := d.dst.Write(buf[:n])
			d.mu.Unlock()
			if werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// rawWriter adapts the raw conn as the outbound pump's sink.
type rawWriter struct{ conn net.Conn }

func (w rawWriter) Write(p []byte) (int, error) { return w.conn.Write(p) }
func (w rawWriter) Close() error                { return w.conn.Close() }

// --- inbound delivery queue (the wrapped conn's Read side) ---

// readQueue delivers pump output to Read with net.Conn deadline
// semantics. The pump goroutine is the only sender and the only one to
// close ch; hardClose (conn Close) unblocks readers out of band.
type readQueue struct {
	ch     chan []byte
	closed chan struct{}
	once   sync.Once

	readMu sync.Mutex // one reader at a time
	buf    []byte

	dlMu     sync.Mutex
	deadline time.Time
}

func newReadQueue() *readQueue {
	return &readQueue{ch: make(chan []byte, 256), closed: make(chan struct{})}
}

func (q *readQueue) setDeadline(t time.Time) {
	q.dlMu.Lock()
	q.deadline = t
	q.dlMu.Unlock()
}

func (q *readQueue) hardClose() { q.once.Do(func() { close(q.closed) }) }

func (q *readQueue) Read(p []byte) (int, error) {
	q.readMu.Lock()
	defer q.readMu.Unlock()
	if len(q.buf) == 0 {
		var timeout <-chan time.Time
		q.dlMu.Lock()
		dl := q.deadline
		q.dlMu.Unlock()
		if !dl.IsZero() {
			d := time.Until(dl)
			if d <= 0 {
				return 0, os.ErrDeadlineExceeded
			}
			t := time.NewTimer(d)
			defer t.Stop()
			timeout = t.C
		}
		select {
		case b, ok := <-q.ch:
			if !ok {
				return 0, io.EOF
			}
			q.buf = b
		case <-q.closed:
			// Drain anything already queued before reporting EOF.
			select {
			case b, ok := <-q.ch:
				if !ok {
					return 0, io.EOF
				}
				q.buf = b
			default:
				return 0, io.EOF
			}
		case <-timeout:
			return 0, os.ErrDeadlineExceeded
		}
	}
	n := copy(p, q.buf)
	q.buf = q.buf[n:]
	return n, nil
}

// queueWriter adapts a readQueue as the inbound pump's sink.
type queueWriter struct{ q *readQueue }

func (w queueWriter) Write(p []byte) (int, error) {
	b := make([]byte, len(p))
	copy(b, p)
	select {
	case w.q.ch <- b:
		return len(p), nil
	case <-w.q.closed:
		return 0, net.ErrClosed
	}
}

func (w queueWriter) Close() error {
	// Safe: the pump goroutine is the only sender and closes exactly once.
	close(w.q.ch)
	return nil
}
