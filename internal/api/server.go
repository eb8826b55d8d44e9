package api

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"

	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// Server serves the typed control-plane protocol on a listener. Every
// connection supports demultiplexed in-flight requests: cold requests
// each run in their own goroutine, payment requests issue inline on
// the read loop (keeping per-connection issue order and the enclave's
// lane fast path) and complete through a per-connection ack pipeline,
// and subscribed events push from a dedicated goroutine that never
// blocks the enclave.
type Server struct {
	h    *Handler
	ln   net.Listener
	logf func(format string, args ...any)

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// payQueueDepth bounds a connection's issued-but-unacked payment
// requests; a full queue backpressures the read loop (and so the
// client), exactly like a host driver bounding its in-flight window.
const payQueueDepth = 1024

// eventBufDepth bounds buffered events per connection; overflow drops
// (visible to the subscriber as an Event.Seq gap).
const eventBufDepth = 4096

// maxAckBatch bounds the ack loop's adaptive coalescing window: how
// many completed payment responses may share one framed write.
const maxAckBatch = 64

// NewServer builds a listenerless server: connections are handed in
// via ServeConn (the sniffing control listener does this). Close still
// tears live connections down.
func NewServer(b Backend, logf func(format string, args ...any)) *Server {
	return &Server{h: NewHandler(b), logf: logf, conns: make(map[net.Conn]struct{})}
}

// Serve starts the control-plane server on ln until Close (or the
// listener closing). logf may be nil.
func Serve(ln net.Listener, b Backend, logf func(format string, args ...any)) *Server {
	s := NewServer(b, logf)
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Handler returns the server's dispatch handler (shared with the
// line-protocol shim so both protocols hit identical semantics).
func (s *Server) Handler() *Handler { return s.h }

// Close stops the server: listener, connections, in-flight handlers.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

func (s *Server) logeach(format string, args ...any) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
		}()
	}
}

// track registers a live connection for Close; false means the server
// is already shutting down and the caller must close the connection.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// payPending is one issued payment request waiting for its acks.
type payPending struct {
	id    uint64
	cur   PayCursor
	count uint32
}

type serverConn struct {
	s    *Server
	conn net.Conn

	// issuer is this connection's fair-share admission handle (nil
	// when the backend has no per-connection admission control).
	issuer Issuer

	// Outbound frames (responses and events) serialize under wmu; the
	// frame buffer is reused across writes.
	wmu  sync.Mutex
	wbuf []byte

	payQ chan payPending
	quit chan struct{}

	evCh     chan Event
	evMask   atomic.Uint32
	evDrops  atomic.Uint64
	evCancel func()
	evOnce   sync.Once

	wg sync.WaitGroup
}

// ServeConn speaks the typed protocol on one already-accepted
// connection until it closes. Exported so the legacy control listener
// can hand over connections it sniffed as typed (see
// transport.ServeControl).
func (s *Server) ServeConn(conn net.Conn) {
	if !s.track(conn) {
		conn.Close()
		return
	}
	c := &serverConn{
		s:    s,
		conn: conn,
		payQ: make(chan payPending, payQueueDepth),
		quit: make(chan struct{}),
	}
	if ib, ok := s.h.Backend().(IssuerBackend); ok {
		c.issuer = ib.NewIssuer()
	}
	ackerDone := make(chan struct{})
	go c.ackLoop(ackerDone)

	c.readLoop()

	conn.Close()
	s.untrack(conn)
	close(c.payQ)
	<-ackerDone
	if c.issuer != nil {
		c.issuer.Close()
	}
	close(c.quit)
	if c.evCancel != nil {
		c.evCancel()
	}
	c.wg.Wait()
	if n := c.evDrops.Load(); n > 0 {
		s.logeach("api: connection dropped %d events (subscriber fell behind)", n)
	}
}

// send frames and writes one message. Write errors are ignored — the
// read loop observes the closed connection and tears down.
func (c *serverConn) send(msg wire.Message) {
	var zero cryptoutil.PublicKey
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf, err := wire.AppendFrame(c.wbuf[:0], zero, nil, msg)
	if err != nil {
		c.s.logeach("api: encoding %T: %v", msg, err)
		return
	}
	c.wbuf = buf
	c.conn.Write(buf) //nolint:errcheck // teardown is the read loop's job
}

func (c *serverConn) readLoop() {
	fr := wire.NewFrameReader(bufio.NewReader(c.conn))
	hello := false
	for {
		f, err := fr.Next()
		if err != nil {
			if isProtocolErr(err) {
				c.s.logeach("api: dropping connection on bad frame: %v", err)
			}
			return
		}
		req, ok := f.Msg.(Request)
		if !ok {
			resp := &ErrorResp{}
			fill(&resp.RespHeader, 0, Errorf(CodeBadRequest, "%T is not a control-plane request", f.Msg))
			c.send(resp)
			continue
		}
		if !hello {
			hr, ok := req.(*HelloReq)
			if !ok {
				resp := &ErrorResp{}
				fill(&resp.RespHeader, req.CorrID(), Errorf(CodeBadRequest, "first request must be HelloReq"))
				c.send(resp)
				return
			}
			resp := c.s.h.Do(hr)
			c.send(resp)
			if code, _ := resp.Status(); code != OK {
				return // version mismatch: reject the connection
			}
			hello = true
			continue
		}
		switch r := req.(type) {
		case *PayReq, *PayBatchReq:
			// Issue inline: preserves per-connection payment order, and
			// the FrameReader's reused message is fully consumed before
			// the next frame is read. The ack wait pipelines.
			cur, count, err := c.s.h.IssuePayOn(c.issuer, r)
			if err != nil {
				resp := &PayResp{Count: count}
				fill(&resp.RespHeader, r.CorrID(), err)
				c.send(resp)
				continue
			}
			c.payQ <- payPending{id: r.CorrID(), cur: cur, count: count}
		case *SubscribeReq:
			c.subscribe(r.Mask)
			resp := &SubscribeResp{}
			fill(&resp.RespHeader, r.CorrID(), nil)
			c.send(resp)
		default:
			// Cold request: its own goroutine, so slow operations
			// (attest, deposit, committee, a routed payment) never stall
			// the connection. It outlives this frame, so a binary request
			// leaves the reader with it (gob ones are fresh anyway).
			fr.Keep(f)
			c.wg.Add(1)
			go func(req Request) {
				defer c.wg.Done()
				c.send(c.s.h.Do(req))
			}(req)
		}
	}
}

// ackLoop completes issued payment requests in issue order. Acks per
// channel arrive in issue order, so a FIFO wait per connection is
// exact for single-channel drivers and conservative (head-of-line)
// across channels on one connection.
//
// The loop adapts its response batching to load: when it falls behind
// (the queue holds requests whose spans have already settled), it
// coalesces up to target completed responses into one framed write,
// doubling target each full pass up to maxAckBatch; an unfilled pass
// halves it back toward one, so a lightly loaded connection keeps
// per-response latency.
func (c *serverConn) ackLoop(done chan struct{}) {
	defer close(done)
	batch := make([]payPending, 0, maxAckBatch)
	resps := make([]*PayResp, 0, maxAckBatch)
	target := 1
	for {
		p, ok := <-c.payQ
		if !ok {
			return
		}
		batch = append(batch[:0], p)
	coalesce:
		for len(batch) < target {
			select {
			case q, qok := <-c.payQ:
				if !qok {
					break coalesce
				}
				batch = append(batch, q)
			default:
				break coalesce
			}
		}
		resps = resps[:0]
		for _, p := range batch {
			err := c.s.h.AwaitPay(p.cur)
			if c.issuer != nil {
				c.issuer.Release(p.count)
			}
			resp := &PayResp{Count: p.count}
			fill(&resp.RespHeader, p.id, err)
			resps = append(resps, resp)
		}
		c.sendPays(resps)
		if len(batch) >= target && target < maxAckBatch {
			target *= 2
		} else if len(batch) < target && target > 1 {
			target /= 2
		}
	}
}

// sendPays frames a run of completed payment responses and writes them
// in one syscall (the batch shares one wmu critical section, so events
// and cold responses interleave between batches, never inside one).
func (c *serverConn) sendPays(resps []*PayResp) {
	if len(resps) == 0 {
		return
	}
	var zero cryptoutil.PublicKey
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf := c.wbuf[:0]
	for _, resp := range resps {
		b, err := wire.AppendFrame(buf, zero, nil, resp)
		if err != nil {
			c.s.logeach("api: encoding %T: %v", resp, err)
			continue
		}
		buf = b
	}
	c.wbuf = buf
	if len(buf) > 0 {
		c.conn.Write(buf) //nolint:errcheck // teardown is the read loop's job
	}
}

// subscribe sets the connection's event mask, registering the backend
// observer and starting the push goroutine on first use.
func (c *serverConn) subscribe(mask EventMask) {
	c.evMask.Store(uint32(mask))
	if mask == 0 {
		return
	}
	c.evOnce.Do(func() {
		c.evCh = make(chan Event, eventBufDepth)
		// The observer runs with enclave-side locks held: filter, try a
		// non-blocking buffered send, count the drop otherwise.
		c.evCancel = c.s.h.Backend().Subscribe(func(ev Event) {
			if EventMask(c.evMask.Load())&ev.Kind.Mask() == 0 {
				return
			}
			select {
			case c.evCh <- ev:
			default:
				c.evDrops.Add(1)
			}
		})
		c.wg.Add(1)
		go c.pushLoop()
	})
}

func (c *serverConn) pushLoop() {
	defer c.wg.Done()
	var seq uint64
	for {
		select {
		case ev := <-c.evCh:
			seq++
			ev.Seq = seq
			c.send(&ev)
		case <-c.quit:
			return
		}
	}
}

// isProtocolErr mirrors transport.isFramingErr for control
// connections.
func isProtocolErr(err error) bool {
	return errors.Is(err, wire.ErrFrameVersion) || errors.Is(err, wire.ErrFrameTooLarge) ||
		errors.Is(err, wire.ErrFrameTruncated) || errors.Is(err, wire.ErrUnknownType) ||
		errors.Is(err, wire.ErrFrameEncoding) || errors.Is(err, wire.ErrFramePayload)
}
