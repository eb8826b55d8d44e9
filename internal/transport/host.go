// Package transport deploys the transport-agnostic Teechain protocol
// engine (internal/core.Enclave) as a long-lived socket host: real TCP
// connections, length-prefixed binary frames (internal/wire framing),
// per-peer writer goroutines with bounded outbound queues, and
// automatic reconnection with backoff. It is the deployment half the
// paper evaluates — enclaves exchanging messages over real networks
// while treating the blockchain asynchronously — next to the
// discrete-event simulation used for the controlled experiments (see
// DESIGN.md, "Two deployment modes").
//
// A Host is the untrusted machine owner of one enclave: it moves bytes,
// answers the enclave's approval events against the blockchain, and
// exposes operator entry points (attest, open channel, fund, pay,
// settle).
//
// Concurrency model (DESIGN.md, "Concurrency model"): enclave access is
// two-tier. Cold operations — session setup, channel lifecycle,
// deposits, multi-hop, replication, settlement, state inspection — hold
// the host's wide lock exclusively, as in a single-threaded host. The
// payment fast path (Pay/PayAck/PayNack/PayBatch/PayBatchAck frames and
// the Pay/PayBatch entry points) holds the wide lock in READ mode plus
// the per-peer lane lock of the one peer involved, so payments on
// channels with different peers proceed in parallel across cores while
// payments sharing a peer stay serialized (their session freshness
// counters demand it). Lanes are the only way a Host pays: NewHost
// establishes what they need (core.Enclave.EnableConcurrentHost), so no
// message asks whether it may take one. Stats are per-channel/per-peer
// atomics, so neither counting nor Stats() serializes the lanes.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"teechain/internal/api"
	"teechain/internal/chain"
	"teechain/internal/core"
	"teechain/internal/cryptoutil"
	"teechain/internal/route"
	"teechain/internal/tee"
	"teechain/internal/wire"
)

// Sentinel errors, exported so the control plane can classify
// failures into structured codes (internal/api).
var (
	// ErrTimeout wraps every blocking-operation timeout.
	ErrTimeout = errors.New("transport: timed out")
	// ErrClosed reports an operation on a closing host.
	ErrClosed = errors.New("transport: host closed")
	// ErrUnknownChannel reports an operation on a channel this host
	// does not know.
	ErrUnknownChannel = errors.New("transport: unknown channel")
	// ErrUnknownPeer reports a name that resolves to no attested peer.
	ErrUnknownPeer = errors.New("transport: unknown peer")
)

// Config configures a Host.
type Config struct {
	// Name is the operator-chosen node name, announced in the hello
	// handshake. Required, and unique within a deployment.
	Name string
	// Authority is the shared attestation authority; every node of a
	// deployment derives it from the same seed. Required.
	Authority *tee.Authority
	// Chain is the host's blockchain access. Required.
	Chain ChainAccess
	// WalletSeed derives the host's cold payout key; defaults to Name.
	WalletSeed string
	// MinConfirmations is the deposit approval policy (default 1).
	MinConfirmations uint64
	// RedialJitter spreads each backoff sleep uniformly over
	// [(1-j)·d, d], so peers cut off by the same event (a partition
	// healing, a hub restarting) do not redial in lockstep. 0 means the
	// default (0.5); negative disables jitter, giving the deterministic
	// schedule some tests rely on. Values above 1 are clamped to 1.
	RedialJitter float64
	// Dial, when set, replaces net.Dial("tcp", addr) for outbound peer
	// connections. The fault-injection layer (internal/faultnet) hooks
	// here; production hosts leave it nil.
	Dial func(addr string) (net.Conn, error)
	// ReadIdleTimeout, when positive, bounds how long a peer connection
	// may go without delivering a frame before the host drops it and
	// lets the redial path rebuild it. This recovers links wedged by a
	// one-way blackhole (our outbound direction works, the inbound one
	// is silently dead), at the cost of churning idle-but-healthy
	// connections on quiet links. Off by default; the chaos harness
	// enables it.
	ReadIdleTimeout time.Duration
	// DataDir, when set, makes the host durable: committed state is
	// group-committed to a write-ahead log in this directory, sealed
	// snapshots bound to a persistent monotonic counter replace it
	// periodically, and a restarted host recovers through
	// snapshot-restore + WAL replay + peer reconciliation (see wal.go).
	// Empty means in-memory only (the default, and the pre-durability
	// behavior).
	DataDir string
	// MaxInflightPerChannel bounds issued-but-unsettled payments per
	// channel; issues beyond it are rejected with ErrOverloaded before
	// any balance moves (default 65536; negative disables).
	MaxInflightPerChannel int
	// MaxInflightTotal bounds issued-but-unsettled payments across the
	// whole host. The ceiling is shared fairly between registered
	// PayIssuers (one per typed API connection), so a single greedy
	// connection cannot starve the rest (default 262144; negative
	// disables).
	MaxInflightTotal int
	// ReplStallTicks is how many consecutive flusher ticks the committee
	// ack cursor may sit still with ops queued or in flight before the
	// watchdog declares the chain stalled — emitting EvReplStalled,
	// raising CommitteeStats.Stalled, and on durable hosts kicking
	// ReplResync to self-heal (default 250 ticks ≈ 500 ms at the 2 ms
	// flush tick; negative disables the watchdog).
	ReplStallTicks int
	// FeeBase and FeeRatePPM set the node's forwarding fee policy: Base
	// plus amount*RatePPM/1_000_000 (truncated) per multihop payment
	// this node forwards as an intermediary. The policy is announced in
	// channel gossip and enforced by the enclave — a lock whose fee
	// schedule undercuts it aborts Transient. Zero values mean free
	// forwarding (the default and the legacy behavior).
	FeeBase    chain.Amount
	FeeRatePPM uint32
	// Logf, when set, receives host diagnostics.
	Logf func(format string, args ...any)
}

// Stats counts host activity. Each value is an atomic snapshot; the set
// is not guaranteed mutually consistent while traffic is in flight.
type Stats struct {
	PaymentsSent     uint64
	PaymentsAcked    uint64
	PaymentsNacked   uint64
	PaymentsReceived uint64
	MultihopsOK      uint64
	MultihopsFailed  uint64
	FramesIn         uint64
	FramesOut        uint64
	Drops            uint64
	Reconnects       uint64
	// FramesRejected counts inbound frames the enclave refused: failed
	// token authentication or binding, replayed counters (including the
	// routine duplicates of post-reconnect tail re-sends), and messages
	// from peers without a session.
	FramesRejected uint64
	// PaymentsWide is always zero: a Host has no wide-lock payment
	// path. The field exists only because the benchmark program reads
	// it (bench/metrics.go, transport.wide_share), and goes when the
	// benchmark drops that metric.
	PaymentsWide uint64
	// PaymentsRejected counts payments refused at admission
	// (ErrOverloaded). Rejected payments never touched a balance.
	PaymentsRejected uint64
	// PaymentsInflight is the admitted-but-unsettled gauge the global
	// ceiling bounds (clamped at zero for display).
	PaymentsInflight uint64
	// ShedStarts counts transitions into shedding (admission pressure
	// episodes, not individual rejects).
	ShedStarts uint64
	// Shedding reports whether the host is currently shedding
	// admissions (set on the first reject, cleared once the in-flight
	// gauge drains to half the ceiling).
	Shedding bool
}

// ChannelStats is one channel's payment counters (the sharded hot-path
// counting: every field is maintained with atomics by the channel's
// lane, so reading them never blocks payments).
type ChannelStats struct {
	Sent     uint64 // payments issued by this host on the channel
	Acked    uint64 // payments acknowledged by the peer
	Nacked   uint64 // payments rejected and reversed
	Received uint64 // payments received from the peer
	InFlight uint64 // issued but not yet acked or nacked
	// QueueDepth is the owning peer's outbound frame queue length — a
	// saturation signal for the whole peer link, not just this channel.
	QueueDepth int
}

type channelInfo struct {
	peer   cryptoutil.PublicKey
	open   bool
	closed bool

	// Hot-path counters, updated under the owning peer's lane lock (or
	// the wide lock) but always atomically, so Stats readers never
	// contend with payments.
	sent     atomic.Uint64
	acked    atomic.Uint64
	nacked   atomic.Uint64
	received atomic.Uint64
}

// mhOutcome is one multihop payment this host initiated and is waiting
// on: payMultihopFees registers it in Host.mh and blocks on done;
// handleEventLocked takes it out of the map, fills in the verdict and
// closes done (the close orders the fields before the waiter's reads).
type mhOutcome struct {
	done      chan struct{}
	ok        bool
	reason    string
	transient bool
}

// MultihopAbortError reports a multi-hop payment aborted by some hop.
// Transient marks benign refusals (a hop's channel busy with another
// payment, or a τ built from since-moved balances): the payment left no
// state behind and a retry with fresh balances is expected to succeed.
type MultihopAbortError struct {
	Reason    string
	Transient bool
}

func (e *MultihopAbortError) Error() string {
	return "transport: multihop payment failed: " + e.Reason
}

// Host runs one enclave over real sockets.
type Host struct {
	cfg     Config
	enclave *core.Enclave
	wallet  *cryptoutil.KeyPair
	chain   ChainAccess
	routes  *route.Manager // gossip graph + flood queues (routing.go)

	// mu is the wide lock: held exclusively by every cold operation,
	// in read mode by the payment lanes (see the package comment).
	mu          sync.RWMutex
	ln          net.Listener
	listenAddr  string
	peersByID   map[cryptoutil.PublicKey]*peer
	peersByName map[string]*peer
	peersByAddr map[string]*peer
	conns       map[net.Conn]struct{}
	channels    map[wire.ChannelID]*channelInfo
	mh          map[wire.PaymentID]*mhOutcome
	seq         uint64
	closed      bool

	// Host-wide counters not attributable to one peer or channel.
	// Atomic so writer/reader goroutines never take the wide lock.
	sentTotal     atomic.Uint64
	ackedTotal    atomic.Uint64
	nackedTotal   atomic.Uint64
	receivedTotal atomic.Uint64
	mhOK          atomic.Uint64
	mhFailed      atomic.Uint64
	framesMisc    atomic.Uint64 // inbound frames with no resolved peer
	drops         atomic.Uint64
	reconnects    atomic.Uint64
	rejects       atomic.Uint64 // inbound frames refused by the enclave

	// wideToken/widePayload are scratch buffers for sendLocked's
	// two-phase frame build (payload, then bound token, then frame);
	// guarded by mu held exclusively, like every sendLocked call.
	wideToken   []byte
	widePayload []byte

	// Ack signalling: AwaitAcked sleeps on ackCond instead of polling.
	// noteAcked broadcasts only while ackWaiters is nonzero, so the
	// uncontended hot path pays one atomic load.
	ackMu      sync.Mutex
	ackCond    *sync.Cond
	ackWaiters atomic.Int32

	// closing mirrors closed for lock-free fast-fail in blocking waits
	// (set before Close wakes the ack waiters); quit is the same signal
	// as a channel, closed by Close, for everything that sleeps in a
	// select: the flushers and multihop callers.
	closing atomic.Bool
	quit    chan struct{}

	// observers fan enclave events out to control-plane subscribers
	// (Observe). Copy-on-write: the hot path pays one atomic load when
	// nobody subscribed.
	obsMu     sync.Mutex
	observers atomic.Pointer[[]*eventObserver]

	// Replication flusher plumbing (see repl.go). replRunning is
	// guarded by mu; the counters are flusher-private writes, atomic so
	// CommitteeStats reads them lock-free.
	replKick       chan struct{}
	replRunning    bool
	replBatch      *wire.ReplBatch
	replBatchesOut atomic.Uint64
	replOpsOut     atomic.Uint64

	// gossipKick wakes the gossip flusher (routing.go): an
	// announcement was queued for some peer.
	gossipKick chan struct{}

	// WAL flusher plumbing (see wal.go). walFile/walBuf are guarded by
	// walFileMu (taken after mu when both are needed — never the other
	// way around); the counters are atomics read lock-free by WalStats.
	walKick   chan struct{}
	walFileMu sync.Mutex
	walFile   *os.File
	walBuf    []byte
	walFsyncs atomic.Uint64
	walOpsOut atomic.Uint64
	walLagMax atomic.Uint64
	snapSeq   atomic.Uint64
	snapCount atomic.Uint64
	snapTime  atomic.Int64

	// Crash-recovery state: recovering gates payments/settlement after
	// a durable restart; resumedChans and resynced (guarded by mu)
	// track the reconciliation acknowledgements Recover awaits.
	recovering   atomic.Bool
	resumedChans map[wire.ChannelID]bool
	resynced     bool

	// Overload-control state (overload.go): the global admitted-but-
	// unsettled gauge, the shedding hysteresis flip-flop, admission
	// counters, and the registered fair-share issuer count.
	payInflight  atomic.Int64
	shedding     atomic.Bool
	admitRejects atomic.Uint64
	shedStarts   atomic.Uint64
	payIssuers   atomic.Int64

	// Replication stall watchdog state (repl.go): stalled mirrors
	// CommitteeStats.Stalled; replStalls counts watchdog trips.
	replStalled atomic.Bool
	replStalls  atomic.Uint64

	wg sync.WaitGroup
}

// NewHost builds a host and its enclave. Call Listen to accept inbound
// peers and DialPeer for outbound ones, then Close when done.
func NewHost(cfg Config) (*Host, error) {
	if cfg.Name == "" {
		return nil, errors.New("transport: Config.Name required")
	}
	if cfg.Authority == nil {
		return nil, errors.New("transport: Config.Authority required")
	}
	if cfg.Chain == nil {
		return nil, errors.New("transport: Config.Chain required")
	}
	if cfg.WalletSeed == "" {
		cfg.WalletSeed = cfg.Name
	}
	if cfg.MinConfirmations == 0 {
		cfg.MinConfirmations = 1
	}
	switch {
	case cfg.RedialJitter == 0:
		cfg.RedialJitter = defaultRedialJitter
	case cfg.RedialJitter < 0:
		cfg.RedialJitter = 0
	case cfg.RedialJitter > 1:
		cfg.RedialJitter = 1
	}
	if cfg.MaxInflightPerChannel == 0 {
		cfg.MaxInflightPerChannel = defaultMaxInflightPerChannel
	}
	if cfg.MaxInflightTotal == 0 {
		cfg.MaxInflightTotal = defaultMaxInflightTotal
	}
	if cfg.ReplStallTicks == 0 {
		cfg.ReplStallTicks = defaultReplStallTicks
	}
	wallet, err := cryptoutil.GenerateKeyPair(cryptoutil.NewDeterministicReader([]byte("wallet"), []byte(cfg.WalletSeed)))
	if err != nil {
		return nil, err
	}
	platform := tee.NewPlatform(cfg.Authority, cfg.Name)
	enclave, err := core.NewEnclave(platform, cfg.Authority.PublicKey(), core.Config{
		MinConfirmations: cfg.MinConfirmations,
		PayoutKey:        wallet.Public(),
	})
	if err != nil {
		return nil, err
	}
	if err := enclave.SetFeePolicy(route.FeePolicy{Base: cfg.FeeBase, RatePPM: cfg.FeeRatePPM}); err != nil {
		return nil, err
	}
	h := &Host{
		cfg:         cfg,
		enclave:     enclave,
		wallet:      wallet,
		chain:       cfg.Chain,
		routes:      route.NewManager(enclave.Identity()),
		peersByID:   make(map[cryptoutil.PublicKey]*peer),
		peersByName: make(map[string]*peer),
		peersByAddr: make(map[string]*peer),
		conns:       make(map[net.Conn]struct{}),
		channels:    make(map[wire.ChannelID]*channelInfo),
		mh:          make(map[wire.PaymentID]*mhOutcome),
		replKick:    make(chan struct{}, 1),
		quit:        make(chan struct{}),
		replBatch:   &wire.ReplBatch{},
		walKick:     make(chan struct{}, 1),
		gossipKick:  make(chan struct{}, 1),
	}
	h.resumedChans = make(map[wire.ChannelID]bool)
	h.ackCond = sync.NewCond(&h.ackMu)
	// Payment lanes run concurrently: the pools lock, every chain this
	// enclave forms or restores is pipelined, and a core.Config that
	// would force payments off the lanes is refused — once, here, so
	// neither payOn nor handleLaneFrame asks per message. No goroutine
	// exists yet, so this is safely ordered before all use.
	if err := enclave.EnableConcurrentHost(h.kickRepl); err != nil {
		return nil, err
	}
	if cfg.DataDir != "" {
		if err := h.initDurable(platform); err != nil {
			return nil, err
		}
	}
	h.wg.Add(1)
	go h.gossipFlusher()
	return h, nil
}

// eventObserver is one registered control-plane event tap.
type eventObserver struct {
	fn func(core.Event)
}

// Observe registers fn to receive every enclave event this host
// handles (plus transport-level events like EvReplCursor). fn runs with
// the wide lock held for cold-path events and a lane lock held for
// payment events: it must not block or call back into the host. The
// returned cancel unregisters fn.
func (h *Host) Observe(fn func(core.Event)) (cancel func()) {
	ob := &eventObserver{fn: fn}
	h.obsMu.Lock()
	var next []*eventObserver
	if cur := h.observers.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, ob)
	h.observers.Store(&next)
	h.obsMu.Unlock()
	return func() {
		h.obsMu.Lock()
		defer h.obsMu.Unlock()
		cur := h.observers.Load()
		if cur == nil {
			return
		}
		next := make([]*eventObserver, 0, len(*cur))
		for _, o := range *cur {
			if o != ob {
				next = append(next, o)
			}
		}
		if len(next) == 0 {
			h.observers.Store(nil)
		} else {
			h.observers.Store(&next)
		}
	}
}

// fanObservers delivers one event to every registered observer.
func (h *Host) fanObservers(ev core.Event) {
	obs := h.observers.Load()
	if obs == nil {
		return
	}
	for _, o := range *obs {
		o.fn(ev)
	}
}

// Name returns the host's node name.
func (h *Host) Name() string { return h.cfg.Name }

// Identity returns the hosted enclave's identity key.
func (h *Host) Identity() cryptoutil.PublicKey { return h.enclave.Identity() }

// WalletKey returns the host's cold payout key.
func (h *Host) WalletKey() cryptoutil.PublicKey { return h.wallet.Public() }

// WalletAddress returns the payout key's address.
func (h *Host) WalletAddress() cryptoutil.Address { return h.wallet.Address() }

// Stats sums the sharded counters into one snapshot. It takes the wide
// lock only in read mode, so it never stalls payment lanes.
func (h *Host) Stats() Stats {
	st := Stats{
		PaymentsSent:     h.sentTotal.Load(),
		PaymentsAcked:    h.ackedTotal.Load(),
		PaymentsNacked:   h.nackedTotal.Load(),
		PaymentsReceived: h.receivedTotal.Load(),
		MultihopsOK:      h.mhOK.Load(),
		MultihopsFailed:  h.mhFailed.Load(),
		FramesIn:         h.framesMisc.Load(),
		Drops:            h.drops.Load(),
		Reconnects:       h.reconnects.Load(),
		FramesRejected:   h.rejects.Load(),
		PaymentsRejected: h.admitRejects.Load(),
		ShedStarts:       h.shedStarts.Load(),
		Shedding:         h.shedding.Load(),
	}
	if infl := h.payInflight.Load(); infl > 0 {
		st.PaymentsInflight = uint64(infl)
	}
	h.mu.RLock()
	h.forEachPeerLocked(func(p *peer) {
		st.FramesIn += p.framesIn.Load()
		st.FramesOut += p.framesOut.Load()
	})
	h.mu.RUnlock()
	return st
}

// forEachPeerLocked visits every distinct peer record exactly once (a
// record can appear in both the identity and address indexes). Caller
// holds the wide lock in either mode.
func (h *Host) forEachPeerLocked(fn func(*peer)) {
	seen := map[*peer]bool{}
	for _, p := range h.peersByID {
		if !seen[p] {
			seen[p] = true
			fn(p)
		}
	}
	for _, p := range h.peersByAddr {
		if !seen[p] {
			seen[p] = true
			fn(p)
		}
	}
}

// ChannelStats snapshots the per-channel payment counters.
func (h *Host) ChannelStats() map[wire.ChannelID]ChannelStats {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make(map[wire.ChannelID]ChannelStats, len(h.channels))
	for id, ci := range h.channels {
		cs := ChannelStats{
			Sent:     ci.sent.Load(),
			Acked:    ci.acked.Load(),
			Nacked:   ci.nacked.Load(),
			Received: ci.received.Load(),
		}
		if settled := cs.Acked + cs.Nacked; cs.Sent > settled {
			cs.InFlight = cs.Sent - settled
		}
		if p := h.peersByID[ci.peer]; p != nil {
			cs.QueueDepth = len(p.outbox)
		}
		out[id] = cs
	}
	return out
}

// WithEnclave runs fn with the enclave under the wide lock (lanes
// quiesced), for inspection by tests and the control API. fn must not
// retain the enclave.
func (h *Host) WithEnclave(fn func(*core.Enclave)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fn(h.enclave)
}

func (h *Host) logf(format string, args ...any) {
	if h.cfg.Logf != nil {
		h.cfg.Logf(format, args...)
	}
}

// --- Listener lifecycle ---

// Listen starts accepting peer connections on addr ("host:port";
// ":0" picks a free port). Returns the bound address.
func (h *Host) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		ln.Close()
		return "", errors.New("transport: host closed")
	}
	if h.ln != nil {
		h.mu.Unlock()
		ln.Close()
		return "", errors.New("transport: already listening")
	}
	h.ln = ln
	h.listenAddr = ln.Addr().String()
	h.mu.Unlock()
	h.wg.Add(1)
	go h.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// ListenAddr returns the bound listen address ("" when not listening).
func (h *Host) ListenAddr() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.listenAddr
}

// CloseListener stops accepting new connections but leaves the host,
// its peers, and live connections intact. Tests use it (with
// DropConnections) to model a node's network restarting.
func (h *Host) CloseListener() {
	h.mu.Lock()
	ln := h.ln
	h.ln = nil
	h.listenAddr = ""
	h.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

// DropConnections force-closes every live connection without closing
// the host. Peers keep their queues and reconnect per policy.
func (h *Host) DropConnections() {
	h.mu.Lock()
	conns := make([]net.Conn, 0, len(h.conns))
	for c := range h.conns {
		conns = append(conns, c)
	}
	h.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Close shuts the host down: listener, peers, connections. It waits
// for all host goroutines to exit.
func (h *Host) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		h.wg.Wait()
		return
	}
	h.closed = true
	h.closing.Store(true)
	close(h.quit)
	ln := h.ln
	h.ln = nil
	peers := make([]*peer, 0, len(h.peersByAddr)+len(h.peersByID))
	h.forEachPeerLocked(func(p *peer) { peers = append(peers, p) })
	conns := make([]net.Conn, 0, len(h.conns))
	for c := range h.conns {
		conns = append(conns, c)
	}
	h.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, p := range peers {
		p.close()
	}
	for _, c := range conns {
		c.Close()
	}
	// Fail blocked waiters fast: control-plane handlers may be sleeping
	// in AwaitAcked/AwaitChannelSettled with long timeouts.
	h.wakeAckWaiters()
	h.wg.Wait()
	if h.walFile != nil {
		// After wg.Wait the WAL flusher is gone; anything it did not
		// fsync is intentionally lost (its effects were withheld) and
		// recovery reconciles it — Close never snapshots, so the
		// recovery path is exercised on every durable restart.
		h.walFile.Close()
	}
}

// trackConn registers a live connection for Close, refusing (so the
// caller closes it) when the host is already shutting down — otherwise
// a connection arriving concurrently with Close would never be closed
// and Close would wait on its read loop forever.
func (h *Host) trackConn(conn net.Conn) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return false
	}
	h.conns[conn] = struct{}{}
	return true
}

func (h *Host) untrackConn(conn net.Conn) {
	h.mu.Lock()
	delete(h.conns, conn)
	h.mu.Unlock()
}

func (h *Host) noteReconnect() {
	h.reconnects.Add(1)
}

// dialPeerConn opens an outbound peer connection, through Config.Dial
// when the deployment injected one (fault injection) and plain TCP
// otherwise.
func (h *Host) dialPeerConn(addr string) (net.Conn, error) {
	if h.cfg.Dial != nil {
		return h.cfg.Dial(addr)
	}
	return net.Dial("tcp", addr)
}

func (h *Host) acceptLoop(ln net.Listener) {
	defer h.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if !h.trackConn(conn) {
			conn.Close()
			return
		}
		if err := h.writeHello(conn); err != nil {
			h.untrackConn(conn)
			conn.Close()
			continue
		}
		ch := connHandle{conn: conn, dead: make(chan struct{})}
		h.wg.Add(1)
		go h.readLoop(ch, nil)
	}
}

// writeHello sends the host's hello frame directly on a fresh
// connection, before any writer goroutine owns it.
func (h *Host) writeHello(conn net.Conn) error {
	h.mu.Lock()
	hello := &wire.Hello{Name: h.cfg.Name, Payout: h.wallet.Public()}
	frame, err := wire.AppendFrame(nil, h.enclave.Identity(), nil, hello)
	h.mu.Unlock()
	if err != nil {
		return err
	}
	return writeFull(conn, frame)
}

// --- Frame input path ---

// readLoop pumps frames from one connection into the host. p is the
// dialing peer that owns the connection, or nil for accepted
// connections (resolved at hello time). The FrameReader reuses its
// body, token, and hot-path message buffers across frames; each frame
// is fully handled before the next is read, per its contract.
func (h *Host) readLoop(ch connHandle, p *peer) {
	defer h.wg.Done()
	defer close(ch.dead)
	defer ch.conn.Close()
	defer h.untrackConn(ch.conn)
	fr := wire.NewFrameReader(bufio.NewReader(ch.conn))
	idle := h.cfg.ReadIdleTimeout
	for {
		if idle > 0 {
			// A connection that stops delivering frames is dropped and
			// rebuilt by the redial path; see Config.ReadIdleTimeout.
			ch.conn.SetReadDeadline(time.Now().Add(idle)) //nolint:errcheck // a dead conn fails the read below
		}
		f, err := fr.Next()
		if err != nil {
			if isFramingErr(err) {
				// Framing violation: the stream is unrecoverable.
				h.logf("%s: dropping connection on bad frame: %v", h.cfg.Name, err)
			}
			return
		}
		h.handleFrame(ch, p, f)
	}
}

// isFramingErr distinguishes protocol violations (worth logging) from
// ordinary connection teardown.
func isFramingErr(err error) bool {
	return errors.Is(err, wire.ErrFrameVersion) || errors.Is(err, wire.ErrFrameTooLarge) ||
		errors.Is(err, wire.ErrFrameTruncated) || errors.Is(err, wire.ErrUnknownType) ||
		errors.Is(err, wire.ErrFrameEncoding) || errors.Is(err, wire.ErrFramePayload)
}

func (h *Host) handleFrame(ch connHandle, p *peer, f wire.Frame) {
	if core.LaneMessage(f.Msg) && h.handleLaneFrame(f) {
		return
	}
	// Gossip is tokenless and host-level; it never reaches the enclave
	// (see internal/route and routing.go).
	if h.handleGossipFrame(p, f) {
		return
	}
	h.handleWideFrame(ch, p, f)
}

// countFrameIn counts an inbound frame against its sender's peer record,
// else the connection's, else the host. Caller holds the wide lock in
// either mode.
func (h *Host) countFrameIn(p *peer, from cryptoutil.PublicKey) {
	if rp := h.peersByID[from]; rp != nil {
		rp.framesIn.Add(1)
	} else if p != nil {
		p.framesIn.Add(1)
	} else {
		h.framesMisc.Add(1)
	}
}

// handleLaneFrame is the payment fast path: wide lock in read mode plus
// the sender's lane lock. Returns false when the frame's sender has no
// peer record yet, so there is no lane to take: the cold path then
// authenticates it and adopts its connection (see handleWideFrame).
func (h *Host) handleLaneFrame(f wire.Frame) bool {
	h.mu.RLock()
	if h.closed {
		h.mu.RUnlock()
		return true // drop
	}
	p := h.peersByID[f.From]
	if p == nil {
		h.mu.RUnlock()
		return false
	}
	p.lane.Lock()
	p.framesIn.Add(1)
	res, err := h.enclave.HandleLaneBound(f.From, f.Token, f.Code, f.Payload, f.Msg)
	if err != nil {
		p.lane.Unlock()
		h.mu.RUnlock()
		h.noteRejected(f, err)
		return true
	}
	h.dispatchLane(p, res)
	p.lane.Unlock()
	h.mu.RUnlock()
	return true
}

// dispatchLane consumes a lane result: outbound frames to the same
// peer, per-channel counters from the unboxed payment outcome, ack
// signalling, and recycling. Caller holds RLock + p.lane.
func (h *Host) dispatchLane(p *peer, res *core.Result) {
	if res == nil {
		return
	}
	// Book the outcome before sending anything: the ack below is what
	// tells the payer the payment landed, so the counters must already
	// say so when it does.
	out := res.PayOutcome()
	switch out.Kind {
	case core.PayAcked:
		if ci := h.channels[out.Channel]; ci != nil {
			ci.acked.Add(uint64(out.Count))
		}
		h.payReleased(uint64(out.Count))
		h.noteAcked(uint64(out.Count))
	case core.PayNacked:
		if ci := h.channels[out.Channel]; ci != nil {
			ci.nacked.Add(uint64(out.Count))
		}
		h.payReleased(uint64(out.Count))
		h.nackedTotal.Add(uint64(out.Count))
		h.wakeAckWaiters() // per-channel settled waiters count nacks too
	case core.PayReceived:
		if ci := h.channels[out.Channel]; ci != nil {
			ci.received.Add(uint64(out.Count))
		}
		h.receivedTotal.Add(uint64(out.Count))
	}
	for i := range res.Out {
		h.sendLane(p, res.Out[i].To, res.Out[i].Msg)
	}
	if res.HasEvents() {
		// Payment handlers produce no boxed events; seeing one means a
		// handler left the lane discipline.
		h.logf("%s: unexpected boxed events on lane path", h.cfg.Name)
	}
	if h.observers.Load() != nil {
		res.ForEachEvent(h.fanObservers)
	}
	h.enclave.RecycleResult(res)
}

// sendLane seals, frames, and enqueues one lane message, reporting
// whether the frame made it onto the peer's queue (the replication
// flusher rewinds its cursor on false; payment callers drop, as
// before, counted and logged). Lane results only ever target the
// lane's own peer (payment handlers answer the sender); anything else
// is dropped loudly.
func (h *Host) sendLane(p *peer, to cryptoutil.PublicKey, msg wire.Message) bool {
	if !p.hasID || p.id != to {
		h.drops.Add(1)
		h.logf("%s: lane message for %s is not the lane peer, dropping %T", h.cfg.Name, to, msg)
		return false
	}
	payload, code, flags, err := wire.EncodePayload(p.payloadBuf[:0], msg)
	if err != nil {
		h.drops.Add(1)
		h.logf("%s: encoding %T: %v", h.cfg.Name, msg, err)
		return false
	}
	p.payloadBuf = payload
	tok, err := h.enclave.SealTokenBound(p.tokenBuf[:0], to, code, payload)
	if err != nil {
		h.drops.Add(1)
		h.logf("%s: sealing token for %s: %v", h.cfg.Name, p.name, err)
		return false
	}
	p.tokenBuf = tok
	frame, err := wire.AppendFrameRaw(p.getBuf(), h.enclave.Identity(), tok, code, flags, payload)
	if err != nil {
		h.drops.Add(1)
		h.logf("%s: encoding %T: %v", h.cfg.Name, msg, err)
		return false
	}
	if p.enqueue(frame) {
		p.framesOut.Add(1)
		return true
	}
	h.drops.Add(1)
	p.putBuf(frame)
	h.logf("%s: outbound queue to %s full, dropping %T", h.cfg.Name, p.name, msg)
	return false
}

// noteRejected counts an inbound frame the enclave refused. Replayed
// counters are routine — connection handovers re-send the writer's
// recent tail precisely so the session window can dedupe it (see
// peer.serveConn) — so they are counted but not logged.
func (h *Host) noteRejected(f wire.Frame, err error) {
	h.rejects.Add(1)
	if !errors.Is(err, cryptoutil.ErrReplay) {
		h.logf("%s: dropping %T from %s: %v", h.cfg.Name, f.Msg, f.From, err)
	}
}

// noteAcked advances the host ack total and wakes AwaitAcked sleepers.
func (h *Host) noteAcked(n uint64) {
	h.ackedTotal.Add(n)
	h.wakeAckWaiters()
}

// wakeAckWaiters broadcasts to the ack condition only when somebody is
// sleeping on it, so the uncontended hot path pays one atomic load.
func (h *Host) wakeAckWaiters() {
	if h.ackWaiters.Load() > 0 {
		h.ackMu.Lock()
		h.ackCond.Broadcast()
		h.ackMu.Unlock()
	}
}

// handleWideFrame is the cold frame path, serialized under the wide
// lock: hellos, attestation, channel lifecycle, deposits, multi-hop,
// replication, settlement — plus a payment frame whose sender has no
// peer record yet (its connection is adopted below).
func (h *Host) handleWideFrame(ch connHandle, p *peer, f wire.Frame) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.countFrameIn(p, f.From)
	if hello, ok := f.Msg.(*wire.Hello); ok {
		h.handleHelloLocked(ch, p, f.From, hello)
		return
	}
	res, err := h.enclave.HandleSealedBound(f.From, f.Token, f.Code, f.Payload, f.Msg)
	if err != nil {
		h.noteRejected(f, err)
		return
	}
	// Hello-independent adoption: an authenticated frame arriving on an
	// accepted connection no writer owns (p == nil) proves the remote
	// (re)dialed us even if its hello was lost in flight — a lossy link
	// can drop the hello like any other frame, and nothing retransmits
	// it. Without adoption every frame we owe the remote (replication
	// acks above all) would queue forever while the remote's own
	// dialer-side connection works and never redials.
	if p == nil {
		if rp := h.peersByID[f.From]; rp != nil {
			h.offerConnLocked(rp, ch)
		}
	}
	h.dispatchLocked(res)
	// Cold frames are exactly the operations that move announced
	// capacity (channel lifecycle, deposits, multihop stages), so
	// refresh our own gossip edges after each one; unchanged edges are
	// swallowed without a version bump or a frame.
	h.reannounceLocked()
	// A replication acknowledgement freed in-flight window space (and a
	// NACK armed the retransmission cursor); wake the flusher so queued
	// or re-served ops ship without waiting for its tick, and report
	// the advanced cursor to control-plane subscribers.
	switch f.Msg.(type) {
	case *wire.ReplBatchAck, *wire.ReplAck, *wire.ReplNack:
		h.kickRepl()
		if h.observers.Load() != nil {
			if st, ok := h.enclave.ReplStats(); ok {
				h.fanObservers(EvReplCursor{Chain: st.Chain, Acked: st.AckSeq})
			}
		}
	}
}

// offerConnLocked hands an accepted connection to an accept-only
// peer's writer for the reply direction, displacing any older handle
// still waiting unadopted: newest wins, because the buffered handle
// may belong to a connection that already died (the remote redials
// after every kill), and adopting a dead handle over a live one
// strands the writer on an empty channel while the remote — whose own
// dialer-side connection works — never redials, silently severing
// this direction. The displaced connection stays read-only and dies
// with its read loop. Caller holds the wide lock.
func (h *Host) offerConnLocked(p *peer, ch connHandle) {
	if p.addr != "" {
		return
	}
	select {
	case <-p.connCh:
	default:
	}
	select {
	case p.connCh <- ch:
	default:
	}
}

// handleHelloLocked wires an announced identity into the routing table
// and registers the remote's payout key (the paper's out-of-band
// directory exchange, performed in-band by the untrusted hosts; trust
// still rests on attestation).
func (h *Host) handleHelloLocked(ch connHandle, p *peer, from cryptoutil.PublicKey, hello *wire.Hello) {
	if p == nil {
		// Accepted connection: adopt into the existing peer for this
		// identity, or create an accept-only peer.
		p = h.peersByID[from]
		if p == nil {
			p = h.newPeerLocked("")
		}
		h.offerConnLocked(p, ch)
	}
	// A different record may already hold this identity (mutual dial:
	// both sides list each other as peers). Retire it so its writer
	// goroutine exits — an orphaned writer would block Close forever —
	// without closing its live connection (inbound frames may still be
	// riding it), and reparent whatever its writer had not yet sent: an
	// attest response enqueued in the race window would otherwise be
	// lost, and attestation has no retransmit. Queued frames move NOW,
	// under the wide lock, before any new send can target the surviving
	// record, keeping the reorder depth at the receiver tiny; a helper
	// then waits off-lock for the writer to finish (it requeues its
	// write-failed pending frame on exit) and recovers the tail. The
	// session anti-replay window (cryptoutil.Session) absorbs the
	// residual cross-connection reordering instead of dropping frames
	// whose senders have already committed them.
	if old := h.peersByID[from]; old != nil && old != p {
		old.retire()
	drain:
		for {
			select {
			case frame := <-old.outbox:
				if !p.enqueue(frame) {
					h.drops.Add(1)
				}
			default:
				break drain
			}
		}
		h.wg.Add(1)
		go func(old, dst *peer) {
			defer h.wg.Done()
			<-old.writerDone
			for {
				select {
				case frame := <-old.outbox:
					if !dst.enqueue(frame) {
						h.drops.Add(1)
					}
				default:
					return
				}
			}
		}(old, p)
	}
	p.id = from
	p.hasID = true
	p.name = hello.Name
	h.peersByID[from] = p
	if hello.Name != "" {
		h.peersByName[hello.Name] = p
	}
	if !hello.Payout.IsZero() {
		res, err := h.enclave.RegisterPayoutKey(hello.Payout)
		if err != nil {
			h.logf("%s: registering payout key of %s: %v", h.cfg.Name, hello.Name, err)
		} else {
			h.dispatchLocked(res)
		}
	}
	p.markHello()
	// Every (re)connection resends the hello, so this is also the
	// anti-entropy trigger: the peer becomes a flood target and gets
	// our full graph summary, healing whatever a partition dropped.
	h.attachGossipPeerLocked(from)
	h.reannounceLocked()
}

// --- Dispatch: enclave results out to the network and host ---

func (h *Host) dispatchLocked(res *core.Result) {
	if res == nil {
		return
	}
	for i := range res.Out {
		h.sendLocked(res.Out[i].To, res.Out[i].Msg)
	}
	res.ForEachEvent(h.handleEventLocked)
	h.enclave.RecycleResult(res)
}

func (h *Host) sendLocked(to cryptoutil.PublicKey, msg wire.Message) {
	if _, ok := msg.(*wire.Attest); ok {
		// Attest's session does not exist yet.
		h.sendTokenless(to, msg)
		return
	}
	p := h.peersByID[to]
	if p == nil {
		h.drops.Add(1)
		h.logf("%s: no peer for identity %s, dropping %T", h.cfg.Name, to, msg)
		return
	}
	payload, code, flags, err := wire.EncodePayload(h.widePayload[:0], msg)
	if err != nil {
		h.drops.Add(1)
		h.logf("%s: encoding %T: %v", h.cfg.Name, msg, err)
		return
	}
	h.widePayload = payload
	tok, err := h.enclave.SealTokenBound(h.wideToken[:0], to, code, payload)
	if err != nil {
		h.drops.Add(1)
		h.logf("%s: sealing token for %s: %v", h.cfg.Name, p.name, err)
		return
	}
	h.wideToken = tok
	frame, err := wire.AppendFrameRaw(p.getBuf(), h.enclave.Identity(), tok, code, flags, payload)
	h.enqueueFrame(p, msg, frame, err)
}

// sendTokenless frames and enqueues a message that travels without a
// session token (Attest, gossip): none of sendLocked's scratch is
// touched, so the wide lock in read mode is enough.
func (h *Host) sendTokenless(to cryptoutil.PublicKey, msg wire.Message) {
	p := h.peersByID[to]
	if p == nil {
		h.drops.Add(1)
		h.logf("%s: no peer for identity %s, dropping %T", h.cfg.Name, to, msg)
		return
	}
	frame, err := wire.AppendFrame(p.getBuf(), h.enclave.Identity(), nil, msg)
	h.enqueueFrame(p, msg, frame, err)
}

// enqueueFrame puts an encoded frame of msg on p's queue, counting (and
// logging) an encoding failure or a full queue as a drop.
func (h *Host) enqueueFrame(p *peer, msg wire.Message, frame []byte, err error) {
	if err != nil {
		h.drops.Add(1)
		h.logf("%s: encoding %T: %v", h.cfg.Name, msg, err)
		return
	}
	if p.enqueue(frame) {
		p.framesOut.Add(1)
	} else {
		h.drops.Add(1)
		p.putBuf(frame)
		h.logf("%s: outbound queue to %s full, dropping %T", h.cfg.Name, p.name, msg)
	}
}

func (h *Host) handleEventLocked(ev core.Event) {
	switch e := ev.(type) {
	case core.EvChannelRequest:
		res, err := h.enclave.AcceptChannel(e.Channel, e.Remote, e.RemoteAddr, h.wallet.Address(), false)
		if err != nil {
			h.logf("%s: accepting channel %s: %v", h.cfg.Name, e.Channel, err)
			break
		}
		// The AcceptChannel result carries EvChannelOpen, which records
		// the channel below.
		h.dispatchLocked(res)
	case core.EvChannelOpen:
		ci := h.channelLocked(e.Channel)
		ci.peer = e.Remote
		ci.open = true
		h.reannounceLocked()
	case core.EvChannelClosed:
		h.channelLocked(e.Channel).closed = true
		h.reannounceLocked()
	case core.EvDepositApprovalNeeded:
		conf, err := h.chain.Confirmations(e.Deposit.Point.Tx)
		if err != nil {
			h.logf("%s: confirmations for %s: %v", h.cfg.Name, e.Deposit.Point, err)
			break
		}
		res, err := h.enclave.ConfirmRemoteDeposit(e.Remote, e.Deposit, conf)
		if err != nil {
			h.logf("%s: approving deposit %s: %v", h.cfg.Name, e.Deposit.Point, err)
			break
		}
		h.dispatchLocked(res)
	case core.EvPayAcked:
		if ci := h.channels[e.Channel]; ci != nil {
			ci.acked.Add(uint64(e.Count))
		}
		h.payReleased(uint64(e.Count))
		h.noteAcked(uint64(e.Count))
	case core.EvPayNacked:
		if ci := h.channels[e.Channel]; ci != nil {
			ci.nacked.Add(uint64(e.Count))
		}
		h.payReleased(uint64(e.Count))
		h.nackedTotal.Add(uint64(e.Count))
		h.wakeAckWaiters()
	case core.EvPaymentReceived:
		if ci := h.channels[e.Channel]; ci != nil {
			ci.received.Add(uint64(e.Count))
		}
		h.receivedTotal.Add(uint64(e.Count))
	case core.EvMultihopArrived:
		h.receivedTotal.Add(uint64(e.Count))
	case core.EvMultihopComplete:
		// Counted before the caller is woken: Stats reads the counters
		// without the wide lock, and a caller that asks right after its
		// payment returned must find it counted.
		if e.OK {
			h.mhOK.Add(1)
		} else {
			h.mhFailed.Add(1)
		}
		// A verdict nobody waits for (the caller timed out, or a stray
		// abort named a payment we never started) is only counted.
		// Removing the entry here is what makes a repeated verdict
		// unable to close done twice.
		if o := h.mh[e.Payment]; o != nil {
			delete(h.mh, e.Payment)
			o.ok, o.reason, o.transient = e.OK, e.Reason, e.Transient
			close(o.done)
		}
	case core.EvSettlementReady:
		if e.Tx != nil {
			h.submitSettlementLocked(e.Tx, e.Needs)
		}
	case core.EvSigComplete:
		if _, err := h.chain.Submit(e.Tx); err != nil {
			h.logf("%s: submitting completed settlement: %v", h.cfg.Name, err)
		}
	case core.EvFrozen:
		h.logf("%s: chain %s frozen: %s", h.cfg.Name, e.Chain, e.Reason)
	case core.EvChannelResumed:
		h.resumedChans[e.Channel] = true
	case core.EvReplResynced:
		h.resynced = true
		h.replStalled.Store(false)
	}
	h.fanObservers(ev)
}

func (h *Host) channelLocked(id wire.ChannelID) *channelInfo {
	ci := h.channels[id]
	if ci == nil {
		ci = &channelInfo{}
		h.channels[id] = ci
	}
	return ci
}

// submitSettlementLocked completes a settlement transaction (collecting
// committee signatures when needed) and submits it.
func (h *Host) submitSettlementLocked(tx *chain.Transaction, needs []core.SigNeed) {
	if len(needs) == 0 {
		if _, err := h.chain.Submit(tx); err != nil {
			h.logf("%s: submitting settlement: %v", h.cfg.Name, err)
		}
		return
	}
	res, err := h.enclave.CollectSignatures(tx, h.enclave.DepsForTx(tx), needs)
	if err != nil {
		h.logf("%s: collecting signatures: %v", h.cfg.Name, err)
		return
	}
	h.dispatchLocked(res)
}

// --- Peer management ---

// newPeerLocked creates and starts a peer. addr == "" means
// accept-only.
func (h *Host) newPeerLocked(addr string) *peer {
	p := &peer{
		h:          h,
		addr:       addr,
		outbox:     make(chan []byte, outboxDepth),
		connCh:     make(chan connHandle, 1),
		quit:       make(chan struct{}),
		writerDone: make(chan struct{}),
		helloCh:    make(chan struct{}),
	}
	if addr != "" {
		h.peersByAddr[addr] = p
	}
	h.wg.Add(1)
	go p.run()
	return p
}

// DialPeer connects (and keeps reconnecting) to a remote host. The
// peer's identity becomes known once its hello arrives; AwaitPeer
// blocks until then.
func (h *Host) DialPeer(addr string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return errors.New("transport: host closed")
	}
	if _, ok := h.peersByAddr[addr]; ok {
		return nil
	}
	h.newPeerLocked(addr)
	return nil
}

// AwaitPeer blocks until a peer named name has completed its hello,
// returning its enclave identity.
func (h *Host) AwaitPeer(name string, timeout time.Duration) (cryptoutil.PublicKey, error) {
	var id cryptoutil.PublicKey
	err := h.await(timeout, fmt.Sprintf("hello from %q", name), func() bool {
		p := h.peersByName[name]
		if p == nil || !p.hasID {
			return false
		}
		id = p.id
		return true
	})
	return id, err
}

// PeerIdentity resolves a known peer name to its identity.
func (h *Host) PeerIdentity(name string) (cryptoutil.PublicKey, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peersByName[name]
	if p == nil || !p.hasID {
		return cryptoutil.PublicKey{}, false
	}
	return p.id, true
}

// Peers lists known peers as name -> identity.
func (h *Host) Peers() map[string]cryptoutil.PublicKey {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]cryptoutil.PublicKey, len(h.peersByName))
	for name, p := range h.peersByName {
		if p.hasID {
			out[name] = p.id
		}
	}
	return out
}

// ResolveIdentity turns a peer name or a hex-encoded identity into an
// identity key.
func (h *Host) ResolveIdentity(s string) (cryptoutil.PublicKey, error) {
	if id, ok := h.PeerIdentity(s); ok {
		return id, nil
	}
	id, err := api.ParseIdentity(s)
	if err != nil {
		return id, fmt.Errorf("%w: %q is neither a known peer nor a %d-byte hex identity", ErrUnknownPeer, s, len(id))
	}
	return id, nil
}

// --- Operator entry points ---

// await polls pred (under the wide lock) until it returns true or the
// timeout expires. Cold-path only; the payment ack wait has its own
// condition-variable path (AwaitAcked). Expiry while the host is
// shedding admissions reports ErrOverloaded — the wait most likely lost
// to load, not to a dead peer — so clients back off instead of retrying
// hot.
func (h *Host) await(timeout time.Duration, what string, pred func() bool) error {
	deadline := time.Now().Add(timeout)
	for {
		if h.closing.Load() {
			return fmt.Errorf("%w while waiting for %s", ErrClosed, what)
		}
		h.mu.Lock()
		ok := pred()
		h.mu.Unlock()
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return h.timeoutErr(what)
		}
		time.Sleep(time.Millisecond)
	}
}

// timeoutErr is the error of a cold wait that ran out of time.
func (h *Host) timeoutErr(what string) error {
	if h.shedding.Load() {
		return h.overloadErrorf("gave up waiting for %s", what)
	}
	return fmt.Errorf("%w: %s: waiting for %s", ErrTimeout, h.cfg.Name, what)
}

// Attest performs mutual remote attestation with a named peer and
// blocks until the secure channel is up.
func (h *Host) Attest(name string, timeout time.Duration) error {
	id, err := h.AwaitPeer(name, timeout)
	if err != nil {
		return err
	}
	h.mu.Lock()
	if h.enclave.SessionEstablished(id) {
		h.mu.Unlock()
		return nil
	}
	res, err := h.enclave.StartAttest(id)
	if err != nil {
		h.mu.Unlock()
		return err
	}
	h.dispatchLocked(res)
	h.mu.Unlock()
	return h.await(timeout, fmt.Sprintf("session with %q", name), func() bool {
		return h.enclave.SessionEstablished(id)
	})
}

// OpenChannel opens a payment channel with an attested peer and blocks
// until it is usable.
func (h *Host) OpenChannel(name string, timeout time.Duration) (wire.ChannelID, error) {
	id, err := h.AwaitPeer(name, timeout)
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	h.seq++
	sum := cryptoutil.Hash256([]byte(h.cfg.Name), []byte(name), []byte(fmt.Sprint(h.seq)))
	chID := wire.ChannelID(fmt.Sprintf("ch-%x", sum[:8]))
	res, err := h.enclave.OpenChannel(chID, id, h.wallet.Address(), false)
	if err != nil {
		h.mu.Unlock()
		return "", err
	}
	ci := h.channelLocked(chID)
	ci.peer = id
	h.dispatchLocked(res)
	h.mu.Unlock()
	err = h.await(timeout, fmt.Sprintf("channel %s open", chID), func() bool {
		return h.channels[chID].open
	})
	return chID, err
}

// FundChannel creates a fresh deposit of value via the chain, runs the
// approval handshake with the channel peer, and associates the deposit
// with the channel. Returns the deposit outpoint.
func (h *Host) FundChannel(chID wire.ChannelID, value chain.Amount, timeout time.Duration) (chain.OutPoint, error) {
	h.mu.Lock()
	ci := h.channels[chID]
	if ci == nil {
		h.mu.Unlock()
		return chain.OutPoint{}, fmt.Errorf("%w %s", ErrUnknownChannel, chID)
	}
	peerID := ci.peer
	script, err := h.enclave.NewDepositScript()
	if err != nil {
		h.mu.Unlock()
		return chain.OutPoint{}, err
	}
	h.mu.Unlock()

	point, err := h.chain.Fund(script, value)
	if err != nil {
		return chain.OutPoint{}, err
	}

	h.mu.Lock()
	res, err := h.enclave.RegisterDeposit(h.enclave.DepositInfoFor(point, value, script))
	if err != nil {
		h.mu.Unlock()
		return chain.OutPoint{}, err
	}
	h.dispatchLocked(res)
	res, err = h.enclave.RequestDepositApproval(peerID, point)
	if err != nil {
		h.mu.Unlock()
		return chain.OutPoint{}, err
	}
	h.dispatchLocked(res)
	h.mu.Unlock()

	if err := h.await(timeout, fmt.Sprintf("approval of %s", point), func() bool {
		return h.enclave.State().ApprovedMine[peerID][point]
	}); err != nil {
		return chain.OutPoint{}, err
	}

	h.mu.Lock()
	res, err = h.enclave.AssociateDeposit(chID, point)
	if err != nil {
		h.mu.Unlock()
		return chain.OutPoint{}, err
	}
	h.dispatchLocked(res)
	// The deposit changed this channel's announced capacity.
	h.reannounceLocked()
	h.mu.Unlock()
	return point, nil
}

// PayMark is the tracked-payment cursor of one issue call: Target is
// the channel's cumulative issued-payment count immediately after the
// call's payments, and NackedBefore snapshots the channel's nack
// counter just before them. Acks and nacks arrive in issue order per
// channel, so the payments have all settled exactly when the channel's
// acked+nacked count reaches Target (AwaitChannelSettled); nack-counter
// growth past NackedBefore means payments in the span were rejected.
type PayMark struct {
	Target       uint64
	NackedBefore uint64
}

// Pay sends one payment over a channel. Acknowledgement is
// asynchronous: use AwaitAcked (acks arrive in issue order per
// channel). The fast path holds only the wide read lock plus the
// channel peer's lane, so payments on different peers run in parallel.
func (h *Host) Pay(chID wire.ChannelID, amount chain.Amount) error {
	_, err := h.pay(chID, amount, nil)
	return err
}

// PayTracked is Pay returning the channel's settle cursor, the
// control-plane path to exact per-request completion.
func (h *Host) PayTracked(chID wire.ChannelID, amount chain.Amount) (PayMark, error) {
	return h.pay(chID, amount, nil)
}

// PayBatch sends len(amounts) payments over a channel in a single wire
// frame (the paper's same-channel batching, §7.2). The batch applies
// atomically on both sides and is acknowledged by one PayBatchAck,
// counted as len(amounts) payments by AwaitAcked.
func (h *Host) PayBatch(chID wire.ChannelID, amounts []chain.Amount) error {
	_, err := h.PayBatchTracked(chID, amounts)
	return err
}

// PayBatchTracked is PayBatch returning the channel's settle cursor.
// The amounts slice is not retained.
func (h *Host) PayBatchTracked(chID wire.ChannelID, amounts []chain.Amount) (PayMark, error) {
	if len(amounts) == 0 {
		return PayMark{}, errors.New("transport: empty payment batch")
	}
	return h.pay(chID, 0, amounts)
}

// pay is the shared payment entry for the un-shared (direct Host)
// issuers; payOn is the full path.
func (h *Host) pay(chID wire.ChannelID, amount chain.Amount, amounts []chain.Amount) (PayMark, error) {
	return h.payOn(nil, chID, amount, amounts)
}

// payOn is the shared payment entry: one payment of amount when amounts
// is nil, otherwise the batch, on the lane of the channel's peer. A
// channel whose peer has no record (it never said hello to this
// process) has no lane and no connection to carry the frame: the
// payment is refused with ErrUnknownPeer. That check and admission
// (overload.go) come BEFORE the enclave applies anything — a rejected
// payment never debits. Admission is checked, and the returned PayMark
// read, under the lane lock that orders the issue, so both are exact
// even with concurrent issuers on the channel.
func (h *Host) payOn(pi *PayIssuer, chID wire.ChannelID, amount chain.Amount, amounts []chain.Amount) (PayMark, error) {
	count := uint64(1)
	if amounts != nil {
		count = uint64(len(amounts))
	}
	if h.recovering.Load() {
		return PayMark{}, fmt.Errorf("%w (payment on %s)", ErrRecovering, chID)
	}
	h.mu.RLock()
	if h.closed {
		h.mu.RUnlock()
		return PayMark{}, ErrClosed
	}
	ci := h.channels[chID]
	if ci == nil {
		h.mu.RUnlock()
		return PayMark{}, fmt.Errorf("%w %s", ErrUnknownChannel, chID)
	}
	p := h.peersByID[ci.peer]
	if p == nil {
		h.mu.RUnlock()
		return PayMark{}, fmt.Errorf("%w: no connection to the peer of channel %s", ErrUnknownPeer, chID)
	}
	p.lane.Lock()
	if err := h.admitPay(ci, pi, count); err != nil {
		p.lane.Unlock()
		h.mu.RUnlock()
		return PayMark{}, err
	}
	nackedBefore := ci.nacked.Load()
	var res *core.Result
	var err error
	if amounts == nil {
		res, err = h.enclave.Pay(chID, amount, 1)
	} else {
		res, err = h.enclave.PayBatch(chID, amounts)
	}
	if err != nil {
		h.unadmitPay(pi, count)
		p.lane.Unlock()
		h.mu.RUnlock()
		return PayMark{}, err
	}
	mark := PayMark{Target: ci.sent.Add(count), NackedBefore: nackedBefore}
	h.sentTotal.Add(count)
	h.dispatchLane(p, res)
	p.lane.Unlock()
	h.mu.RUnlock()
	return mark, nil
}

// AwaitAcked blocks until at least n payments have been acknowledged
// since the host started. It sleeps on a condition variable that the
// ack path signals — no polling.
func (h *Host) AwaitAcked(n uint64, timeout time.Duration) error {
	return h.awaitAckCond(timeout, func() bool { return h.ackedTotal.Load() >= n },
		func() string {
			return fmt.Sprintf("%d payment acks (have %d)", n, h.ackedTotal.Load())
		})
}

// AwaitChannelSettled blocks until a channel's settled-payment count
// (acked + nacked) reaches target — a PayMark.Target from a tracked
// issue call — and returns the channel's nack counter observed when
// the target was first seen reached. Acks and nacks arrive in issue
// order per channel, so reaching the target means every payment the
// mark covers has been acknowledged or rejected.
//
// The snapshot is taken inside the wait predicate (nacks loaded before
// acks), so a nack belonging to a LATER span is attributed to this one
// only when the woken waiter is delayed past that later nack's arrival
// — the comparison against PayMark.NackedBefore is deliberately
// conservative, never optimistic.
func (h *Host) AwaitChannelSettled(chID wire.ChannelID, target uint64, timeout time.Duration) (uint64, error) {
	h.mu.RLock()
	ci := h.channels[chID]
	h.mu.RUnlock()
	if ci == nil {
		return 0, fmt.Errorf("%w %s", ErrUnknownChannel, chID)
	}
	var nackedAt uint64
	err := h.awaitAckCond(timeout, func() bool {
		n := ci.nacked.Load()
		if ci.acked.Load()+n < target {
			return false
		}
		nackedAt = n
		return true
	}, func() string {
		return fmt.Sprintf("channel %s settle cursor %d (at %d)",
			chID, target, ci.acked.Load()+ci.nacked.Load())
	})
	if err != nil {
		return ci.nacked.Load(), err
	}
	return nackedAt, nil
}

// awaitAckCond sleeps on the ack condition variable until done holds,
// the timeout expires, or the host closes. The ack and nack paths
// signal it — no polling. Expiry while the host is shedding admissions
// reports ErrOverloaded instead of ErrTimeout (typed backpressure: the
// acks are late because the host is saturated, so the right client
// response is back-off, not a hot retry).
func (h *Host) awaitAckCond(timeout time.Duration, done func() bool, what func() string) error {
	if done() {
		return nil
	}
	h.ackWaiters.Add(1)
	defer h.ackWaiters.Add(-1)
	deadline := time.Now().Add(timeout)
	// The timer converts the deadline into a broadcast so the cond wait
	// below cannot sleep past it.
	timer := time.AfterFunc(timeout, func() {
		h.ackMu.Lock()
		h.ackCond.Broadcast()
		h.ackMu.Unlock()
	})
	defer timer.Stop()
	h.ackMu.Lock()
	defer h.ackMu.Unlock()
	for !done() {
		if h.closing.Load() {
			return fmt.Errorf("%w while waiting for %s", ErrClosed, what())
		}
		if time.Now().After(deadline) {
			if h.shedding.Load() {
				return h.overloadErrorf("gave up waiting for %s", what())
			}
			return fmt.Errorf("%w: %s: waiting for %s", ErrTimeout, h.cfg.Name, what())
		}
		h.ackCond.Wait()
	}
	return nil
}

// AckedTotal returns the number of payments acknowledged so far.
func (h *Host) AckedTotal() uint64 { return h.ackedTotal.Load() }

// PayMultihop routes amount along path (this enclave first, final
// recipient last) and blocks for the outcome. The payment is fee-free;
// PayRouted (routing.go) is the path- and fee-resolving front end.
func (h *Host) PayMultihop(path []cryptoutil.PublicKey, amount chain.Amount, timeout time.Duration) error {
	return h.payMultihopFees(path, nil, amount, timeout)
}

// Settle terminates a channel, submitting the settlement transaction
// (when one is needed) to the chain. Refused while the host is
// recovering: balances are not trustworthy until reconciliation ends.
func (h *Host) Settle(chID wire.ChannelID) error {
	if h.recovering.Load() {
		return fmt.Errorf("%w (settle %s)", ErrRecovering, chID)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	sr, err := h.enclave.Settle(chID)
	if err != nil {
		return err
	}
	// The result's EvSettlementReady event carries the same transaction
	// as sr.Txs; dispatching handles completion and submission once.
	h.dispatchLocked(sr.Result)
	return nil
}

// ChannelBalances reports a channel's current (mine, remote) balances.
func (h *Host) ChannelBalances(chID wire.ChannelID) (chain.Amount, chain.Amount, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c, ok := h.enclave.State().Channels[chID]
	if !ok {
		return 0, 0, fmt.Errorf("%w %s", ErrUnknownChannel, chID)
	}
	return c.MyBal, c.RemoteBal, nil
}
