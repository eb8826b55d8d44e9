// Package netsim simulates the wide-area network Teechain nodes
// communicate over: point-to-point links with configurable propagation
// latency and bandwidth, per-node serial processing, partitions, and
// message accounting.
//
// Combined with internal/sim, it reproduces the paper's Fig. 3 testbed
// in virtual time: a payment crossing the US–UK link arrives ~45 ms
// later and queues behind the receiving enclave's processor, so both
// latency distributions and throughput ceilings emerge from the
// topology and the cost model rather than from hard-coded results.
//
// Node names (NodeID strings) exist only at the API boundary: AddNode
// interns each node to a dense integer handle, endpoints reference
// links by handle-indexed slices, and the per-message fast path
// (SendEp) never hashes a string. Message deliveries are pooled Action
// objects, so a send-deliver round trip allocates nothing in steady
// state (DESIGN.md §6).
package netsim

import (
	"errors"
	"fmt"
	"time"

	"teechain/internal/sim"
)

// NodeID names a machine in the simulated network.
type NodeID string

// Handler consumes messages delivered to an endpoint after the
// endpoint's processor has spent the modelled processing cost.
type Handler func(from NodeID, payload any)

// CostModel maps a message to (cpu, delay): cpu occupies the receiving
// node's serial processor (setting throughput ceilings), while delay
// postpones delivery without occupying it (I/O waits and pipeline
// stalls that overlap across concurrent requests).
type CostModel func(payload any) (cpu, delay time.Duration)

// ZeroCost charges no processing time.
func ZeroCost(any) (time.Duration, time.Duration) { return 0, 0 }

// LinkSpec describes one direction of a link.
type LinkSpec struct {
	// Latency is the one-way propagation delay (half the RTT).
	Latency time.Duration
	// BitsPerSecond is the link bandwidth; zero means unlimited.
	BitsPerSecond int64
}

// RTT is a convenience constructor: a symmetric link with the given
// round-trip time and bandwidth in megabits per second (0 = unlimited).
func RTT(rtt time.Duration, mbps int64) LinkSpec {
	return LinkSpec{Latency: rtt / 2, BitsPerSecond: mbps * 1_000_000}
}

type link struct {
	spec LinkSpec
	// tx serializes transmissions: a 1 MB message on a 100 Mb/s link
	// occupies it for 80 ms before propagation begins.
	tx   *sim.Processor
	down bool

	messages uint64
	bytes    uint64
}

// Endpoint is one node's attachment to the network.
type Endpoint struct {
	id      NodeID
	handle  int
	net     *Network
	proc    *sim.Processor
	handler Handler
	cost    CostModel

	// out holds the directed links from this endpoint, indexed by the
	// destination's handle (nil until first use).
	out []*link
	// onHeal, when set, runs whenever a partitioned link of this
	// endpoint is restored.
	onHeal func()

	received uint64
}

// ID returns the endpoint's node ID.
func (e *Endpoint) ID() NodeID { return e.id }

// Processor exposes the endpoint's serial processor so hosts can charge
// local (non-message) work such as attestation verification.
func (e *Endpoint) Processor() *sim.Processor { return e.proc }

// OnHeal installs fn to run whenever a partitioned link between this
// endpoint and a peer is restored (SetPartitioned with down false on a
// link that was down), so a host can re-offer what the partition
// refused without polling. Fault-free runs never call it.
func (e *Endpoint) OnHeal(fn func()) { e.onHeal = fn }

// Received returns the number of messages delivered so far.
func (e *Endpoint) Received() uint64 { return e.received }

// Network is the simulated network fabric.
type Network struct {
	sim         *sim.Simulator
	byName      map[NodeID]*Endpoint
	eps         []*Endpoint // indexed by handle
	defaultLink LinkSpec

	sent    uint64
	dropped uint64

	// free is the delivery pool. A Network belongs to one simulator
	// driven by one goroutine, so a plain freelist suffices.
	free []*delivery
}

// New creates an empty network on the given simulator with an unlimited
// zero-latency default link (overridable per pair or via
// SetDefaultLink).
func New(s *sim.Simulator) *Network {
	return &Network{
		sim:    s,
		byName: make(map[NodeID]*Endpoint),
	}
}

// Sim returns the underlying simulator.
func (n *Network) Sim() *sim.Simulator { return n.sim }

// SetDefaultLink sets the spec used for node pairs without an explicit
// link.
func (n *Network) SetDefaultLink(spec LinkSpec) { n.defaultLink = spec }

// AddNode attaches a node. The handler runs after the node's serial
// processor has spent the cost model's processing time for each
// message. Adding a duplicate ID panics: topologies are static in every
// experiment, so this is a programming error.
func (n *Network) AddNode(id NodeID, handler Handler, cost CostModel) *Endpoint {
	if _, ok := n.byName[id]; ok {
		panic(fmt.Sprintf("netsim: duplicate node %q", id))
	}
	if cost == nil {
		cost = ZeroCost
	}
	ep := &Endpoint{
		id:      id,
		handle:  len(n.eps),
		net:     n,
		proc:    sim.NewProcessor(n.sim),
		handler: handler,
		cost:    cost,
	}
	n.byName[id] = ep
	n.eps = append(n.eps, ep)
	return ep
}

// SetHandler replaces a node's handler (used when wiring hosts after
// topology construction).
func (n *Network) SetHandler(id NodeID, handler Handler, cost CostModel) {
	ep, ok := n.byName[id]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown node %q", id))
	}
	ep.handler = handler
	if cost != nil {
		ep.cost = cost
	}
}

// SetLink configures the link between a and b in both directions.
func (n *Network) SetLink(a, b NodeID, spec LinkSpec) {
	n.direction(a, b).spec = spec
	n.direction(b, a).spec = spec
}

// SetPartitioned makes the a<->b link drop all traffic (both
// directions) when down is true, and restores it when false. Restoring
// a link that was down notifies both endpoints (OnHeal).
func (n *Network) SetPartitioned(a, b NodeID, down bool) {
	ab, ba := n.direction(a, b), n.direction(b, a)
	healed := !down && (ab.down || ba.down)
	ab.down, ba.down = down, down
	if !healed {
		return
	}
	for _, id := range [2]NodeID{a, b} {
		if ep := n.byName[id]; ep.onHeal != nil {
			ep.onHeal()
		}
	}
}

func (n *Network) direction(from, to NodeID) *link {
	src, ok := n.byName[from]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown node %q", from))
	}
	dst, ok := n.byName[to]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown node %q", to))
	}
	return n.linkTo(src, dst)
}

// linkTo returns (creating on first use) the directed link src->dst.
func (n *Network) linkTo(src, dst *Endpoint) *link {
	if dst.handle < len(src.out) {
		if l := src.out[dst.handle]; l != nil {
			return l
		}
	} else {
		grown := make([]*link, len(n.eps))
		copy(grown, src.out)
		src.out = grown
	}
	l := &link{spec: n.defaultLink, tx: sim.NewProcessor(n.sim)}
	src.out[dst.handle] = l
	return l
}

// peek returns the directed link src->dst without creating it.
func (n *Network) peek(from, to NodeID) *link {
	src, ok := n.byName[from]
	if !ok {
		return nil
	}
	dst, ok := n.byName[to]
	if !ok || dst.handle >= len(src.out) {
		return nil
	}
	return src.out[dst.handle]
}

// Errors returned by Send.
var (
	ErrUnknownNode = errors.New("netsim: unknown node")
	ErrPartitioned = errors.New("netsim: link partitioned")
)

// delivery carries one message through its two scheduling stages: link
// serialization, then processor-charged delivery. It implements
// sim.Action so the whole journey reuses a single pooled object instead
// of allocating two closures per message.
type delivery struct {
	net      *Network
	dst      *Endpoint
	from     NodeID
	payload  any
	latency  time.Duration
	deferred bool // true once serialization finished
}

func (d *delivery) RunAction() {
	if !d.deferred {
		// Serialization done: charge the receiver and propagate.
		d.deferred = true
		cpu, delay := d.dst.cost(d.payload)
		arrival := d.net.sim.Now().Add(d.latency + delay)
		d.dst.proc.DoAtAction(arrival, cpu, d)
		return
	}
	dst, from, payload := d.dst, d.from, d.payload
	d.net.release(d)
	dst.received++
	dst.handler(from, payload)
}

func (n *Network) acquire() *delivery {
	if len(n.free) == 0 {
		return &delivery{net: n}
	}
	d := n.free[len(n.free)-1]
	n.free = n.free[:len(n.free)-1]
	return d
}

func (n *Network) release(d *delivery) {
	d.dst = nil
	d.payload = nil
	d.from = ""
	d.deferred = false
	n.free = append(n.free, d)
}

// Send transmits payload of the given wire size from one node to
// another. Delivery is scheduled after link serialization, propagation
// latency, and the receiver's processing cost. Send returns immediately
// (asynchronous), with an error only for unknown nodes or partitioned
// links — callers model retransmission/timeout themselves.
func (n *Network) Send(from, to NodeID, payload any, size int) error {
	src, ok := n.byName[from]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, from)
	}
	dst, ok := n.byName[to]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	return n.SendEp(src, dst, payload, size)
}

// SendEp is Send addressed by endpoint, the allocation-free fast path
// for hosts that cache their peers' endpoints.
func (n *Network) SendEp(src, dst *Endpoint, payload any, size int) error {
	l := n.linkTo(src, dst)
	if l.down {
		n.dropped++
		return fmt.Errorf("%w: %s -> %s", ErrPartitioned, src.id, dst.id)
	}
	n.sent++
	l.messages++
	l.bytes += uint64(size)

	var txTime time.Duration
	if l.spec.BitsPerSecond > 0 {
		txTime = time.Duration(int64(size) * 8 * int64(time.Second) / l.spec.BitsPerSecond)
	}
	// Serialize on the link, then propagate, then queue on the
	// receiver's processor (delivery's second stage).
	d := n.acquire()
	d.dst = dst
	d.from = src.id
	d.payload = payload
	d.latency = l.spec.Latency
	l.tx.DoAction(txTime, d)
	return nil
}

// SendLocal delivers a payload from a node to itself with processing
// cost but no network traversal (operator commands entering a host).
func (n *Network) SendLocal(id NodeID, payload any) error {
	dst, ok := n.byName[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	cpu, delay := dst.cost(payload)
	d := n.acquire()
	d.dst = dst
	d.from = id
	d.payload = payload
	d.deferred = true
	dst.proc.DoAtAction(n.sim.Now().Add(delay), cpu, d)
	return nil
}

// Sent returns the total messages accepted for transmission.
func (n *Network) Sent() uint64 { return n.sent }

// Dropped returns the total messages dropped at partitioned links.
func (n *Network) Dropped() uint64 { return n.dropped }

// LinkStats returns messages and bytes carried from a to b.
func (n *Network) LinkStats(from, to NodeID) (messages, bytes uint64) {
	if l := n.peek(from, to); l != nil {
		return l.messages, l.bytes
	}
	return 0, 0
}

// Endpoint returns a node's endpoint (nil if unknown), exposing its
// processor for utilisation metrics.
func (n *Network) Endpoint(id NodeID) *Endpoint { return n.byName[id] }
