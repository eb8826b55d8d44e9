package transport

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"teechain/internal/cryptoutil"
)

// connHandle pairs a connection with the channel its read loop closes
// on exit, so the writer learns about dead connections even when it has
// nothing to send.
type connHandle struct {
	conn net.Conn
	dead chan struct{}
}

// peer is the host's view of one remote node: a bounded outbound frame
// queue drained by a dedicated writer goroutine, plus the connection
// lifecycle. Dialing peers (addr != "") own their connections and
// redial with exponential backoff; accept-only peers (addr == "") are
// handed connections by the listener as the remote (re)dials us.
//
// Frames queue while the peer is unreachable and drain in order once a
// connection is back. A frame is retransmitted only if its write
// returned an error, so queued traffic is delivered exactly once in the
// quiet-reconnect case (peer restarted between frames) and at least
// once when a connection dies mid-write.
//
// The peer is also the unit of payment-lane concurrency: lane holders
// (who also hold the host's wide lock in read mode) serialize all
// hot-path enclave work touching this peer — its session counters and
// its channels' balances — so lanes for different peers never contend.
type peer struct {
	h    *Host
	addr string // dial target; "" for accept-only peers

	outbox chan []byte
	connCh chan connHandle // accepted connections adopted by the writer
	quit   chan struct{}
	// writerDone closes when the writer goroutine has fully exited,
	// with any write-failed pending frame requeued to outbox — the
	// hello-collision reparent waits on it so no frame is stranded in
	// the writer's private state.
	writerDone chan struct{}

	closeOnce sync.Once
	helloOnce sync.Once
	helloCh   chan struct{} // closed once the remote's hello arrived

	// retired marks a record displaced by a hello collision (mutual
	// dial): its writer must exit without closing the adopted
	// connection, which may still carry inbound pre-session frames —
	// an attest response has no retransmit — for the surviving record.
	retired atomic.Bool

	// lane serializes the payment fast path for this peer; see the
	// package comment in host.go and internal/core/concurrent.go.
	lane sync.Mutex

	// tokenBuf is the lane-guarded scratch for outbound freshness
	// tokens (sealed per frame, copied into the frame immediately).
	tokenBuf []byte
	// payloadBuf is the lane-guarded scratch for outbound payload
	// encoding: the payload bytes must exist before the bound token
	// sealing them can (see Host.sendLane).
	payloadBuf []byte

	// Per-peer frame counters (the sharded stats path).
	framesIn  atomic.Uint64
	framesOut atomic.Uint64

	// bufMu guards freeBufs, the recycled outbound frame buffers:
	// enqueuers take one, the writer returns it after a successful
	// write. Bounded so an idle peer does not pin memory.
	bufMu    sync.Mutex
	freeBufs [][]byte

	// mutable under h.mu
	name  string
	id    cryptoutil.PublicKey
	hasID bool

	// writer-goroutine private
	pending []byte // frame whose write failed; resent on the next conn

	// ring is the writer's recent-write tail: the last sentRingSize
	// tokened frames whose writes SUCCEEDED, kept because TCP reports
	// success once bytes reach the local kernel — a connection dying
	// right after can lose them without any error surfacing. Each new
	// connection re-sends the tail before fresh traffic; receivers
	// drop the duplicates at the session anti-replay window (which is
	// deeper than the ring), turning this at-least-once redelivery
	// into exactly-once end to end. Tokenless frames (Attest) are
	// excluded: they bypass the session layer, so a replayed attest
	// would restart the handshake instead of being deduped.
	ring    [sentRingSize][]byte
	ringLen int
	ringPos int
}

// maxFreeBufs bounds the per-peer frame buffer freelist; maxFreeBufSize
// keeps one oversized frame from pinning a large buffer forever.
const (
	maxFreeBufs    = 64
	maxFreeBufSize = 64 << 10
)

// outboxDepth bounds each peer's outbound frame queue.
const outboxDepth = 1024

// The reconnect backoff doubles from redialMin to redialMax.
// defaultRedialJitter is Config.RedialJitter's default: each backoff
// sleep lands uniformly in the lower half of [d/2, d].
const (
	redialMin           = 25 * time.Millisecond
	redialMax           = time.Second
	defaultRedialJitter = 0.5
)

// sentRingSize is the recent-write tail depth re-sent after a
// connection handover. It must stay below the session anti-replay
// window (64): the receiver dedupes the tail by counter, and a tail
// deeper than the window would re-reject frames it has genuinely lost
// track of instead of absorbing them.
const sentRingSize = 32

// getBuf returns an empty frame buffer with recycled capacity when one
// is available.
func (p *peer) getBuf() []byte {
	p.bufMu.Lock()
	defer p.bufMu.Unlock()
	if k := len(p.freeBufs); k > 0 {
		b := p.freeBufs[k-1]
		p.freeBufs = p.freeBufs[:k-1]
		return b[:0]
	}
	return nil
}

// putBuf returns a frame buffer to the freelist once no one references
// its contents (after a successful write, or when enqueueing failed).
func (p *peer) putBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxFreeBufSize {
		return
	}
	p.bufMu.Lock()
	if len(p.freeBufs) < maxFreeBufs {
		p.freeBufs = append(p.freeBufs, b[:0])
	}
	p.bufMu.Unlock()
}

func (p *peer) close() {
	p.closeOnce.Do(func() { close(p.quit) })
}

// retire shuts the writer down without tearing the live connection;
// see the retired field. The host closes tracked connections itself on
// shutdown.
func (p *peer) retire() {
	p.retired.Store(true)
	p.close()
}

func (p *peer) markHello() {
	p.helloOnce.Do(func() { close(p.helloCh) })
}

// enqueue offers a frame to the outbound queue without blocking: the
// caller holds host locks, and a stalled peer must not stall the whole
// host. A full queue drops the frame (counted by the caller).
func (p *peer) enqueue(frame []byte) bool {
	select {
	case p.outbox <- frame:
		return true
	default:
		return false
	}
}

// run is the peer's writer goroutine: obtain a connection (dial or
// adopt), drain the outbox onto it, repeat until the host closes. On
// exit it requeues any write-failed pending frame and closes
// writerDone, so a reparenter can recover the full queue.
func (p *peer) run() {
	defer p.h.wg.Done()
	defer func() {
		if p.pending != nil {
			select {
			case p.outbox <- p.pending:
			default:
				// Queue full: the frame is lost like any other
				// overflow drop, but never silently.
				p.h.drops.Add(1)
				p.h.logf("%s: outbound queue full on writer exit, dropping pending frame", p.h.cfg.Name)
			}
			p.pending = nil
		}
		close(p.writerDone)
	}()
	backoff := redialMin
	for {
		var ch connHandle
		if p.addr != "" {
			conn, err := p.h.dialPeerConn(p.addr)
			if err != nil {
				sleep, next := nextBackoff(backoff, redialMax, p.h.cfg.RedialJitter, rand.Float64())
				select {
				case <-time.After(sleep):
				case <-p.quit:
					return
				}
				backoff = next
				continue
			}
			backoff = redialMin
			ch = connHandle{conn: conn, dead: make(chan struct{})}
			if !p.h.trackConn(conn) {
				conn.Close()
				return
			}
			if err := p.h.writeHello(conn); err != nil {
				p.h.untrackConn(conn)
				conn.Close()
				continue
			}
			p.h.wg.Add(1)
			go p.h.readLoop(ch, p)
		} else {
			select {
			case ch = <-p.connCh:
			case <-p.quit:
				return
			}
		}
		p.serveConn(ch)
		if p.retired.Load() {
			return
		}
		// The connection is the read loop's to close, not the writer's:
		// a write fails as soon as the remote resets, while frames it
		// sent before that may still sit unread in our receive buffer,
		// and closing here would discard them. The reader drains what
		// arrived, meets the same dead connection, and closes it.
		select {
		case <-p.quit:
			return
		default:
		}
		p.h.noteReconnect()
	}
}

// serveConn writes queued frames to one connection until it dies or
// the host closes. A frame that fails to write stays in p.pending for
// the next connection; successfully written frames enter the ring (or
// recycle straight to the freelist when tokenless — see the ring
// field) and recycle on eviction.
func (p *peer) serveConn(ch connHandle) {
	// Re-send the recent-write tail first: the previous connection may
	// have died after accepting these bytes locally but before the
	// remote read them. Receivers dedupe re-sent frames by session
	// counter, so redelivery is safe; skipping it would lose in-flight
	// payments whose senders have already committed them.
	for i := 0; i < p.ringLen; i++ {
		idx := (p.ringPos - p.ringLen + i + sentRingSize) % sentRingSize
		if err := writeFull(ch.conn, p.ring[idx]); err != nil {
			return
		}
	}
	for {
		if p.pending != nil {
			if err := writeFull(ch.conn, p.pending); err != nil {
				return
			}
			p.ringPush(p.pending)
			p.pending = nil
		}
		select {
		case frame := <-p.outbox:
			p.pending = frame
		case <-ch.dead:
			return
		case <-p.quit:
			return
		}
	}
}

// ringPush files a successfully written frame into the recent-write
// tail, recycling the frame it evicts. Tokenless frames bypass the
// ring entirely (see the ring field comment).
func (p *peer) ringPush(frame []byte) {
	if frameTokenless(frame) {
		p.putBuf(frame)
		return
	}
	if evicted := p.ring[p.ringPos]; evicted != nil {
		p.putBuf(evicted)
	} else {
		p.ringLen++
	}
	p.ring[p.ringPos] = frame
	p.ringPos = (p.ringPos + 1) % sentRingSize
}

// frameTokenless reports whether an encoded frame carries no session
// token (token length field zero). Offset: 4-byte length prefix +
// version + code + flags + 65-byte identity = 72.
func frameTokenless(frame []byte) bool {
	return len(frame) < 74 || (frame[72] == 0 && frame[73] == 0)
}

// nextBackoff computes one reconnect backoff step: the sleep for the
// current delay d — jittered uniformly over [(1-j)·d, d] by the random
// sample u in [0,1) — and the next delay (doubled, capped at max).
// Pure so the schedule is unit-testable.
func nextBackoff(d, max time.Duration, jitter, u float64) (sleep, next time.Duration) {
	sleep = d
	if jitter > 0 {
		sleep = time.Duration(float64(d) * (1 - jitter*u))
	}
	next = 2 * d
	if next > max {
		next = max
	}
	return sleep, next
}

func writeFull(conn net.Conn, b []byte) error {
	_, err := conn.Write(b)
	return err
}
