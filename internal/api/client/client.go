// Package client is the typed Go SDK for Teechain's control-plane API
// (internal/api): one TCP connection multiplexes many concurrent
// requests (client-chosen correlation IDs, responses demultiplexed by
// a reader goroutine), with synchronous wrappers for every operation,
// asynchronous payment issue (PayAsync/PayBatchAsync returning a
// completion handle), and an event-subscription stream that replaces
// ack polling.
//
//	cc, _ := client.Dial("localhost:7101")
//	defer cc.Close()
//	_ = cc.Attest("hub")
//	ch, _ := cc.OpenChannel("hub")
//	_, _ = cc.Deposit(ch, 100_000)
//	h, _ := cc.PayAsync(ch, 10, 100) // issue 100 payments
//	// ... other requests proceed on the same connection ...
//	_ = h.Wait()                     // all 100 acked
package client

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"teechain/internal/api"
	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// Conn is one control-plane connection. All methods are safe for
// concurrent use; requests issued concurrently share the connection
// and complete independently.
type Conn struct {
	conn net.Conn
	info api.NodeInfo

	// timeout bounds synchronous waits (api.DefaultTimeout unless
	// SetTimeout overrides it).
	timeout atomic.Int64

	wmu  sync.Mutex
	wbuf []byte

	mu      sync.Mutex
	pending map[uint64]chan api.Response
	sub     *Subscription
	closed  bool
	readErr error

	nextID     atomic.Uint64
	readerDone chan struct{}

	// mhRetry re-issues multihop payments the server nacked as
	// transient (guarded by mu; see SetMultihopRetry).
	mhRetry Retrier
}

// Config tunes a connection.
type Config struct {
	// Timeout bounds every synchronous wait, including the hello
	// handshake (api.DefaultTimeout when zero) — a black-holed control
	// port fails with CodeTimeout instead of hanging the caller.
	Timeout time.Duration
	// DialTimeout bounds the TCP connect (Timeout when zero).
	DialTimeout time.Duration
}

// Dial connects to a node's control port and performs the protocol
// handshake (HelloReq/HelloResp version negotiation) with default
// timeouts.
func Dial(addr string) (*Conn, error) { return DialConfig(addr, Config{}) }

// DialConfig is Dial with explicit timeouts.
func DialConfig(addr string, cfg Config) (*Conn, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = api.DefaultTimeout
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = cfg.Timeout
	}
	nc, err := net.DialTimeout("tcp", addr, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Conn{
		conn:       nc,
		pending:    make(map[uint64]chan api.Response),
		readerDone: make(chan struct{}),
	}
	c.timeout.Store(int64(cfg.Timeout))
	go c.readLoop()
	resp, err := c.do(&api.HelloReq{Version: api.Version})
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: hello: %w", err)
	}
	hr, ok := resp.(*api.HelloResp)
	if !ok {
		nc.Close()
		return nil, fmt.Errorf("client: hello answered by %T", resp)
	}
	c.info = api.NodeInfo{Name: hr.Name, Identity: hr.Identity, Wallet: hr.Wallet}
	return c, nil
}

// SetTimeout bounds every subsequent synchronous wait.
func (c *Conn) SetTimeout(d time.Duration) {
	if d > 0 {
		c.timeout.Store(int64(d))
	}
}

func (c *Conn) waitBudget() time.Duration { return time.Duration(c.timeout.Load()) }

// Info returns the node identity captured at handshake.
func (c *Conn) Info() api.NodeInfo { return c.info }

// Close drops the connection; in-flight requests fail.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}

// --- Request plumbing ---

// Pending is an in-flight request: a completion handle for PayAsync
// and friends.
type Pending struct {
	c  *Conn
	id uint64
	ch chan api.Response
}

// start stamps a correlation ID, registers the pending slot, and
// writes the request frame.
func (c *Conn) start(req api.Request) (*Pending, error) {
	id := c.nextID.Add(1)
	req.SetCorrID(id)
	ch := make(chan api.Response, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("client: connection closed")
	}
	c.pending[id] = ch
	c.mu.Unlock()

	var zero cryptoutil.PublicKey
	c.wmu.Lock()
	buf, err := wire.AppendFrame(c.wbuf[:0], zero, nil, req)
	if err == nil {
		c.wbuf = buf
		_, err = c.conn.Write(buf)
	}
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, err
	}
	return &Pending{c: c, id: id, ch: ch}, nil
}

// waitResp blocks for the raw response.
func (p *Pending) waitResp(timeout time.Duration) (api.Response, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case resp := <-p.ch:
		return resp, nil
	case <-p.c.readerDone:
		return nil, fmt.Errorf("client: connection lost: %w", p.c.readError())
	case <-timer.C:
		p.c.mu.Lock()
		delete(p.c.pending, p.id)
		p.c.mu.Unlock()
		return nil, api.Errorf(api.CodeTimeout, "no response within %v", timeout)
	}
}

// Wait blocks until the request completes, converting a non-OK
// response into an *api.Error.
func (p *Pending) Wait() error {
	resp, err := p.waitResp(p.c.waitBudget())
	if err != nil {
		return err
	}
	return respErr(resp)
}

// Done exposes the completion channel for select loops; receiving the
// response completes the handle (check it with api.Response.Status).
func (p *Pending) Done() <-chan api.Response { return p.ch }

func respErr(resp api.Response) error {
	if code, msg := resp.Status(); code != api.OK {
		e := &api.Error{Code: code, Msg: msg}
		if rh, ok := resp.(interface{ RetryHint() uint32 }); ok {
			e.RetryAfterMillis = rh.RetryHint()
		}
		return e
	}
	return nil
}

// do runs one request synchronously, returning the typed response
// (already checked for OK).
func (c *Conn) do(req api.Request) (api.Response, error) {
	p, err := c.start(req)
	if err != nil {
		return nil, err
	}
	resp, err := p.waitResp(c.waitBudget())
	if err != nil {
		return nil, err
	}
	if err := respErr(resp); err != nil {
		return nil, err
	}
	return resp, nil
}

func (c *Conn) readError() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return c.readErr
	}
	return fmt.Errorf("connection closed")
}

func (c *Conn) readLoop() {
	fr := wire.NewFrameReader(bufio.NewReader(c.conn))
	var err error
	for {
		var f wire.Frame
		if f, err = fr.Next(); err != nil {
			break
		}
		switch m := f.Msg.(type) {
		case *api.Event:
			// The FrameReader reuses the decoded message; deliver a
			// value copy (strings are immutable, so sharing them with
			// the next decode's prev-reuse is safe).
			c.deliverEvent(*m)
		case *api.PayResp:
			// Reused binary response: copy before handing off.
			cp := *m
			c.deliver(&cp)
		default:
			if resp, ok := f.Msg.(api.Response); ok {
				// The waiter outlives this frame: a binary response
				// leaves the reader with it (gob ones are fresh anyway).
				fr.Keep(f)
				c.deliver(resp)
			}
		}
	}
	c.mu.Lock()
	c.readErr = err
	c.closed = true
	c.mu.Unlock()
	close(c.readerDone)
}

func (c *Conn) deliver(resp api.Response) {
	c.mu.Lock()
	ch := c.pending[resp.CorrID()]
	delete(c.pending, resp.CorrID())
	c.mu.Unlock()
	if ch != nil {
		ch <- resp
	}
}

// --- Event subscription ---

// Subscription receives server-pushed events. Events arrive on C;
// gaps in api.Event.Seq (or a nonzero Dropped count) mean the stream
// overflowed — on the server or locally — because the consumer fell
// behind.
type Subscription struct {
	C       <-chan api.Event
	ch      chan api.Event
	dropped atomic.Uint64
}

// Dropped counts events discarded locally because C's buffer was full.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Subscribe sets the connection's event mask and returns the
// subscription stream (buffered to buf events, default 1024). Calling
// it again adjusts the mask and returns the same stream.
func (c *Conn) Subscribe(mask api.EventMask, buf int) (*Subscription, error) {
	if buf <= 0 {
		buf = 1024
	}
	c.mu.Lock()
	sub := c.sub
	if sub == nil {
		sub = &Subscription{ch: make(chan api.Event, buf)}
		sub.C = sub.ch
		c.sub = sub
	}
	c.mu.Unlock()
	if _, err := c.do(&api.SubscribeReq{Mask: mask}); err != nil {
		return nil, err
	}
	return sub, nil
}

func (c *Conn) deliverEvent(ev api.Event) {
	c.mu.Lock()
	sub := c.sub
	c.mu.Unlock()
	if sub == nil {
		return
	}
	select {
	case sub.ch <- ev:
	default:
		sub.dropped.Add(1)
	}
}

// --- Typed operations ---

// Peers lists the node's known peers, sorted by name.
func (c *Conn) Peers() ([]api.PeerInfo, error) {
	resp, err := c.do(&api.PeersReq{})
	if err != nil {
		return nil, err
	}
	return resp.(*api.PeersResp).Peers, nil
}

// DialPeer asks the node to connect (and keep reconnecting) to addr.
func (c *Conn) DialPeer(addr string) error {
	_, err := c.do(&api.DialReq{Addr: addr})
	return err
}

// Attest runs mutual remote attestation with a named peer.
func (c *Conn) Attest(peer string) error {
	_, err := c.do(&api.AttestReq{Peer: peer})
	return err
}

// OpenChannel opens a payment channel with an attested peer.
func (c *Conn) OpenChannel(peer string) (wire.ChannelID, error) {
	resp, err := c.do(&api.OpenChannelReq{Peer: peer})
	if err != nil {
		return "", err
	}
	return resp.(*api.OpenChannelResp).Channel, nil
}

// Deposit funds a channel with a fresh on-chain deposit.
func (c *Conn) Deposit(ch wire.ChannelID, amount chain.Amount) (chain.OutPoint, error) {
	resp, err := c.do(&api.DepositReq{Channel: ch, Amount: amount})
	if err != nil {
		return chain.OutPoint{}, err
	}
	return resp.(*api.DepositResp).Point, nil
}

// Pay sends count payments of amount each and blocks until all are
// acknowledged.
func (c *Conn) Pay(ch wire.ChannelID, amount chain.Amount, count int) error {
	h, err := c.PayAsync(ch, amount, count)
	if err != nil {
		return err
	}
	return h.Wait()
}

// PayAsync issues count payments of amount each and returns a
// completion handle; the payments are in flight when it returns.
func (c *Conn) PayAsync(ch wire.ChannelID, amount chain.Amount, count int) (*Pending, error) {
	return c.start(&api.PayReq{Channel: ch, Amount: amount, Count: uint32(count)})
}

// PayBatch sends len(amounts) payments in one wire frame and blocks
// until the batch is acknowledged.
func (c *Conn) PayBatch(ch wire.ChannelID, amounts []chain.Amount) error {
	h, err := c.PayBatchAsync(ch, amounts)
	if err != nil {
		return err
	}
	return h.Wait()
}

// PayBatchAsync issues a payment batch and returns a completion
// handle. The amounts slice is not retained.
func (c *Conn) PayBatchAsync(ch wire.ChannelID, amounts []chain.Amount) (*Pending, error) {
	return c.start(&api.PayBatchReq{Channel: ch, Amounts: amounts})
}

// SetMultihopRetry overrides the retry policy Multihop applies to
// transient nacks (a hop busy with a concurrent payment, a τ built
// from since-moved balances). The default zero-value policy retries
// up to 5 times with the server's hint; a Retryable predicate set here
// replaces (not extends) the transient-nack one.
func (c *Conn) SetMultihopRetry(r Retrier) {
	c.mu.Lock()
	c.mhRetry = r
	c.mu.Unlock()
}

// Multihop routes amount along hops (peer names or hex identities,
// excluding the serving node) and blocks for the outcome. Transient
// rejections — a hop mid-way through another payment, a stale balance
// snapshot — aborted cleanly server-side and are retried here under
// the SetMultihopRetry policy; only the final error surfaces.
func (c *Conn) Multihop(amount chain.Amount, hops ...string) error {
	c.mu.Lock()
	r := c.mhRetry
	c.mu.Unlock()
	if r.Retryable == nil {
		r.Retryable = IsTransientNack
	}
	return r.Do(func() error {
		_, err := c.do(&api.MultihopReq{Amount: amount, Hops: hops})
		return err
	})
}

// Route asks the node's fee-aware pathfinder for the cheapest
// currently-known route delivering amount to target (a peer name or
// hex identity) without paying — a dry run of PayRouted's path choice.
func (c *Conn) Route(target string, amount chain.Amount) (api.RouteInfo, error) {
	resp, err := c.do(&api.RouteReq{Target: target, Amount: amount})
	if err != nil {
		return api.RouteInfo{}, err
	}
	return resp.(*api.RouteResp).Route, nil
}

// PayRouted pays amount to target (a peer name or hex identity) with
// no explicit path: the serving node's pathfinder supplies the hops
// and fee schedule from its gossip graph. Transient nacks — every
// candidate route aborted benignly — are retried here under the
// SetMultihopRetry policy; each retry repaths against the node's then-
// current graph. The route actually paid is returned; its TotalFee is
// what the payment cost beyond amount.
func (c *Conn) PayRouted(target string, amount chain.Amount) (api.RouteInfo, error) {
	c.mu.Lock()
	r := c.mhRetry
	c.mu.Unlock()
	if r.Retryable == nil {
		r.Retryable = IsTransientNack
	}
	var route api.RouteInfo
	err := r.Do(func() error {
		resp, err := c.do(&api.RoutedPayReq{Target: target, Amount: amount})
		if err != nil {
			return err
		}
		route = resp.(*api.RoutedPayResp).Route
		return nil
	})
	return route, err
}

// Committee forms the node's committee chain from members (in chain
// order) with threshold m, returning the chain id.
func (c *Conn) Committee(m int, members ...string) (string, error) {
	resp, err := c.do(&api.CommitteeReq{Members: members, M: m})
	if err != nil {
		return "", err
	}
	return resp.(*api.CommitteeResp).Chain, nil
}

// Settle terminates a channel on chain.
func (c *Conn) Settle(ch wire.ChannelID) error {
	_, err := c.do(&api.SettleReq{Channel: ch})
	return err
}

// Balances reads a channel's (mine, remote) balances.
func (c *Conn) Balances(ch wire.ChannelID) (chain.Amount, chain.Amount, error) {
	resp, err := c.do(&api.BalancesReq{Channel: ch})
	if err != nil {
		return 0, 0, err
	}
	br := resp.(*api.BalancesResp)
	return br.Mine, br.Remote, nil
}

// Mine mines n blocks on the deployment's chain, returning the new
// height.
func (c *Conn) Mine(n int) (uint64, error) {
	resp, err := c.do(&api.MineReq{Blocks: n})
	if err != nil {
		return 0, err
	}
	return resp.(*api.MineResp).Height, nil
}

// Balance reads the node wallet's on-chain balance.
func (c *Conn) Balance() (chain.Amount, error) {
	resp, err := c.do(&api.BalanceReq{})
	if err != nil {
		return 0, err
	}
	return resp.(*api.BalanceResp).Amount, nil
}

// Stats snapshots the node's structured counters.
func (c *Conn) Stats() (*api.StatsResp, error) {
	resp, err := c.do(&api.StatsReq{})
	if err != nil {
		return nil, err
	}
	return resp.(*api.StatsResp), nil
}

// WalStats snapshots the node's durability pipeline (Durable is false
// on an in-memory node).
func (c *Conn) WalStats() (*api.WalStatsResp, error) {
	resp, err := c.do(&api.WalStatsReq{})
	if err != nil {
		return nil, err
	}
	return resp.(*api.WalStatsResp), nil
}

// SnapshotNow forces an immediate durable snapshot, returning the log
// sequence it covers.
func (c *Conn) SnapshotNow() (uint64, error) {
	resp, err := c.do(&api.SnapshotNowReq{})
	if err != nil {
		return 0, err
	}
	return resp.(*api.SnapshotNowResp).Seq, nil
}

// Recover runs crash recovery on a node that restarted from durable
// state. recovered is false when none was needed; resumed counts the
// channels reconciled.
func (c *Conn) Recover() (recovered bool, resumed int, err error) {
	resp, err := c.do(&api.RecoverReq{})
	if err != nil {
		return false, 0, err
	}
	rr := resp.(*api.RecoverResp)
	return rr.Recovered, rr.Resumed, nil
}
