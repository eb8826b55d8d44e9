package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"teechain/internal/api"
	"teechain/internal/chain"
	"teechain/internal/wire"
)

// The control listener serves BOTH control protocols on one port,
// sniffed from the first byte of each connection:
//
//   - The typed, versioned control-plane API (internal/api): binary
//     frames whose 4-byte length prefix always starts 0x00. This is
//     what the Go client SDK (internal/api/client), the harness, and
//     the benches speak.
//
//   - The legacy line protocol: one ASCII command per line, one
//     "ok ..."/"err ..." response line. It is intended for humans
//     (netcat) and survives as a SHIM: each line is parsed into the
//     corresponding api request message, dispatched through the same
//     api.Handler the typed server uses, and the typed response is
//     formatted back to text. No node behavior lives here anymore.
//
// Line commands:
//
//	ping                         liveness check
//	identity                     this enclave's identity (hex)
//	wallet                       this host's wallet address (hex)
//	peers                        known peers as name=identity pairs,
//	                             sorted by name
//	dial <addr>                  connect (and keep reconnecting) to a peer
//	attest <name>                mutual remote attestation with a peer
//	open <name>                  open a channel, prints its id
//	fund <channel> <amount>      deposit fresh funds into a channel
//	pay <channel> <amount> [n [batch]]
//	                             send n (default 1) payments and wait
//	                             for acks; batch > 1 packs them into
//	                             PayBatch frames of that many payments
//	paymh <amount> <hop>...      multi-hop payment via named/hex hops
//	route <target> <amount>      cheapest known route to a target
//	                             (name or hex identity), not paid
//	payroute <target> <amount>   routed payment: the node's pathfinder
//	                             picks the hops and fee schedule
//	committee <peer>... <m>      form this node's committee chain from
//	                             the named peers (in chain order) with
//	                             signature threshold m
//	settle <channel>             settle a channel on chain
//	balances <channel>           channel balances (mine remote)
//	mine [n]                     mine n (default 1) blocks
//	balance                      wallet balance on chain
//	stats                        host counters
//	stats channels               per-channel payment counters
//	stats committee              replication pipeline cursors
//	stats routing                gossip graph size, flood-guard
//	                             counters, and the node's fee policy
//	wal                          durability pipeline cursors and
//	                             snapshot age (durable nodes)
//	snapshot                     force an immediate durable snapshot
//	recover                      run crash recovery after a durable
//	                             restart (re-attest, reconcile
//	                             channels, resync committee)
//	quit                         close this control connection

// ControlServer serves the sniffed control listener for one host: the
// typed api server plus the legacy line-protocol shim.
type ControlServer struct {
	h   *Host
	ln  net.Listener
	api *api.Server

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ServeControl starts the control listener on ln until Close.
func ServeControl(ln net.Listener, h *Host) *ControlServer {
	s := &ControlServer{
		h:     h,
		ln:    ln,
		api:   api.NewServer(h.API(), h.logf),
		conns: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Handler exposes the shared dispatch handler (tests tune its
// timeout).
func (s *ControlServer) Handler() *api.Handler { return s.api.Handler() }

// Close stops the server and force-closes its connections.
func (s *ControlServer) Close() {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.api.Close()
	s.wg.Wait()
}

func (s *ControlServer) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *ControlServer) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *ControlServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// sniffedConn replays the bytes the sniffer buffered.
type sniffedConn struct {
	net.Conn
	r *bufio.Reader
}

func (c sniffedConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// serveConn sniffs the protocol from the connection's first byte: a
// typed api frame begins with its big-endian length prefix (first byte
// 0x00 for any frame under 16 MiB), while every line-protocol command
// starts with printable ASCII.
func (s *ControlServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	if !s.track(conn) {
		conn.Close()
		return
	}
	br := bufio.NewReader(conn)
	first, err := br.Peek(1)
	if err != nil {
		s.untrack(conn)
		conn.Close()
		return
	}
	if first[0] == 0x00 {
		// Typed connection: owned (tracked, closed) by the api server
		// from here on; drop our registration so exactly one layer
		// tears it down. A Close racing this handoff is safe — the api
		// server refuses and closes the connection itself.
		s.untrack(conn)
		s.api.ServeConn(sniffedConn{Conn: conn, r: br})
		return
	}
	defer s.untrack(conn)
	defer conn.Close()
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 4096), 1<<16)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" {
			return
		}
		resp := shimLine(s.api.Handler(), line)
		if _, err := fmt.Fprintln(conn, resp); err != nil {
			return
		}
	}
}

// shimLine translates one legacy command line into api request
// messages, dispatches them through the shared handler, and renders
// the typed response as the legacy "ok ..."/"err ..." text.
func shimLine(h *api.Handler, line string) string {
	args := strings.Fields(line)
	if len(args) == 0 {
		return "err empty command"
	}
	out, err := shimDispatch(h, args[0], args[1:])
	if err != nil {
		var ae *api.Error
		if errors.As(err, &ae) {
			if ae.Code == api.CodeOverloaded {
				// Machine-parseable backoff for line-mode drivers: the
				// command was refused before any debit; retry after the
				// hinted delay.
				return fmt.Sprintf("err overloaded retry-ms=%d", ae.RetryAfterMillis)
			}
			return "err " + ae.Msg
		}
		return "err " + err.Error()
	}
	if out == "" {
		return "ok"
	}
	return "ok " + out
}

// doString runs one request through the handler and surfaces a non-OK
// status as the error the shim prints.
func doString(h *api.Handler, req api.Request) (api.Response, error) {
	resp := h.Do(req)
	if code, msg := resp.Status(); code != api.OK {
		return nil, &api.Error{Code: code, Msg: msg}
	}
	return resp, nil
}

func shimDispatch(h *api.Handler, cmd string, args []string) (string, error) {
	b := h.Backend()
	switch cmd {
	case "ping":
		return "pong", nil
	case "identity":
		return api.FormatIdentity(b.Info().Identity), nil
	case "wallet":
		return b.Info().Wallet.String(), nil
	case "peers":
		resp, err := doString(h, &api.PeersReq{})
		if err != nil {
			return "", err
		}
		peers := resp.(*api.PeersResp).Peers
		parts := make([]string, 0, len(peers))
		for _, p := range peers {
			parts = append(parts, fmt.Sprintf("%s=%s", p.Name, api.FormatIdentity(p.Identity)))
		}
		return strings.Join(parts, " "), nil
	case "dial":
		if len(args) != 1 {
			return "", fmt.Errorf("usage: dial <addr>")
		}
		_, err := doString(h, &api.DialReq{Addr: args[0]})
		return "", err
	case "attest":
		if len(args) != 1 {
			return "", fmt.Errorf("usage: attest <name>")
		}
		_, err := doString(h, &api.AttestReq{Peer: args[0]})
		return "", err
	case "open":
		if len(args) != 1 {
			return "", fmt.Errorf("usage: open <name>")
		}
		resp, err := doString(h, &api.OpenChannelReq{Peer: args[0]})
		if err != nil {
			return "", err
		}
		return string(resp.(*api.OpenChannelResp).Channel), nil
	case "fund":
		if len(args) != 2 {
			return "", fmt.Errorf("usage: fund <channel> <amount>")
		}
		amount, err := api.ParseAmount(args[1])
		if err != nil {
			return "", err
		}
		resp, err := doString(h, &api.DepositReq{Channel: wire.ChannelID(args[0]), Amount: amount})
		if err != nil {
			return "", err
		}
		return resp.(*api.DepositResp).Point.String(), nil
	case "pay":
		return shimPay(h, args)
	case "paymh":
		if len(args) < 3 {
			return "", fmt.Errorf("usage: paymh <amount> <hop> <hop>...")
		}
		amount, err := api.ParseAmount(args[0])
		if err != nil {
			return "", err
		}
		_, err = doString(h, &api.MultihopReq{Amount: amount, Hops: args[1:]})
		return "", err
	case "route":
		if len(args) != 2 {
			return "", fmt.Errorf("usage: route <target> <amount>")
		}
		amount, err := api.ParseAmount(args[1])
		if err != nil {
			return "", err
		}
		resp, err := doString(h, &api.RouteReq{Target: args[0], Amount: amount})
		if err != nil {
			return "", err
		}
		return formatRoute(resp.(*api.RouteResp).Route), nil
	case "payroute":
		if len(args) != 2 {
			return "", fmt.Errorf("usage: payroute <target> <amount>")
		}
		amount, err := api.ParseAmount(args[1])
		if err != nil {
			return "", err
		}
		resp, err := doString(h, &api.RoutedPayReq{Target: args[0], Amount: amount})
		if err != nil {
			return "", err
		}
		return formatRoute(resp.(*api.RoutedPayResp).Route), nil
	case "committee":
		if len(args) < 2 {
			return "", fmt.Errorf("usage: committee <peer>... <m>")
		}
		m, err := api.ParseCount(args[len(args)-1])
		if err != nil {
			return "", fmt.Errorf("bad threshold %q", args[len(args)-1])
		}
		resp, err := doString(h, &api.CommitteeReq{Members: args[:len(args)-1], M: m})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("chain %s ready", resp.(*api.CommitteeResp).Chain), nil
	case "settle":
		if len(args) != 1 {
			return "", fmt.Errorf("usage: settle <channel>")
		}
		_, err := doString(h, &api.SettleReq{Channel: wire.ChannelID(args[0])})
		return "", err
	case "balances":
		if len(args) != 1 {
			return "", fmt.Errorf("usage: balances <channel>")
		}
		resp, err := doString(h, &api.BalancesReq{Channel: wire.ChannelID(args[0])})
		if err != nil {
			return "", err
		}
		br := resp.(*api.BalancesResp)
		return fmt.Sprintf("%d %d", br.Mine, br.Remote), nil
	case "mine":
		if len(args) > 1 {
			return "", fmt.Errorf("usage: mine [n]")
		}
		n := 1
		if len(args) == 1 {
			var err error
			if n, err = api.ParseCount(args[0]); err != nil {
				return "", fmt.Errorf("bad block count %q", args[0])
			}
		}
		resp, err := doString(h, &api.MineReq{Blocks: n})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("height %d", resp.(*api.MineResp).Height), nil
	case "balance":
		resp, err := doString(h, &api.BalanceReq{})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d", resp.(*api.BalanceResp).Amount), nil
	case "stats":
		return shimStats(h, args)
	case "wal":
		resp, err := doString(h, &api.WalStatsReq{})
		if err != nil {
			return "", err
		}
		ws := resp.(*api.WalStatsResp)
		if !ws.Durable {
			return "not durable", nil
		}
		return fmt.Sprintf("next=%d flushed=%d synced=%d lag=%d lagmax=%d fsyncs=%d ops=%d snapseq=%d snapage=%s snaps=%d recovering=%t",
			ws.NextSeq, ws.FlushedSeq, ws.SyncedSeq, ws.FsyncLag, ws.FsyncLagMax,
			ws.Fsyncs, ws.OpsLogged, ws.SnapshotSeq, ws.SnapshotAge.Round(time.Millisecond), ws.Snapshots, ws.Recovering), nil
	case "snapshot":
		resp, err := doString(h, &api.SnapshotNowReq{})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("snapshot at seq %d", resp.(*api.SnapshotNowResp).Seq), nil
	case "recover":
		resp, err := doString(h, &api.RecoverReq{})
		if err != nil {
			return "", err
		}
		rr := resp.(*api.RecoverResp)
		if !rr.Recovered {
			return "nothing to recover", nil
		}
		return fmt.Sprintf("recovered, %d channels resumed", rr.Resumed), nil
	default:
		return "", fmt.Errorf("unknown command %q", cmd)
	}
}

// shimPay reproduces the legacy pay semantics on the typed layer:
// issue everything up front (optionally packed into PayBatch frames),
// one wait for the acks. The issue/await split goes through the same
// IssuePay/AwaitPay path the pipelined typed server uses.
func shimPay(h *api.Handler, args []string) (string, error) {
	if len(args) < 2 || len(args) > 4 {
		return "", fmt.Errorf("usage: pay <channel> <amount> [count [batch]]")
	}
	amount, err := api.ParseAmount(args[1])
	if err != nil {
		return "", err
	}
	count := 1
	if len(args) >= 3 {
		if count, err = api.ParseCount(args[2]); err != nil || count > api.MaxPayCount {
			return "", fmt.Errorf("bad count %q", args[2])
		}
	}
	batch := 1
	if len(args) == 4 {
		if batch, err = api.ParseCount(args[3]); err != nil {
			return "", fmt.Errorf("bad batch size %q", args[3])
		}
	}
	chID := wire.ChannelID(args[0])
	var cur api.PayCursor
	if batch <= 1 {
		if cur, _, err = h.IssuePay(&api.PayReq{Channel: chID, Amount: amount, Count: uint32(count)}); err != nil {
			return "", err
		}
	} else {
		// Pack into PayBatch frames; cursors compose (acks arrive in
		// issue order per channel), so one wait on the last chunk's
		// target covers every chunk.
		amounts := make([]chain.Amount, 0, batch)
		issued := 0
		for issued < count {
			n := min(batch, count-issued)
			amounts = amounts[:0]
			for i := 0; i < n; i++ {
				amounts = append(amounts, amount)
			}
			c, _, err := h.IssuePay(&api.PayBatchReq{Channel: chID, Amounts: amounts})
			if err != nil {
				return "", err
			}
			if issued == 0 {
				cur = c
			}
			cur.Target = c.Target
			issued += n
		}
	}
	if err := h.AwaitPay(cur); err != nil {
		return "", err
	}
	return fmt.Sprintf("%d acked", count), nil
}

// shimStats renders the structured StatsResp in the legacy text
// layouts.
func shimStats(h *api.Handler, args []string) (string, error) {
	resp, err := doString(h, &api.StatsReq{})
	if err != nil {
		return "", err
	}
	st := resp.(*api.StatsResp)
	if len(args) == 1 && args[0] == "committee" {
		if !st.HasCommittee {
			return "", fmt.Errorf("no committee formed or mirrored")
		}
		c := st.Committee
		if c.Chain == "" {
			return fmt.Sprintf("mirrors=%d", c.Mirrors), nil
		}
		return fmt.Sprintf("chain=%s next=%d flushed=%d acked=%d queued=%d window=%d batches_out=%d ops_out=%d mirrors=%d stalled=%t stalls=%d",
			c.Chain, c.NextSeq, c.FlushSeq, c.AckSeq, c.Queued, c.Window,
			c.BatchesOut, c.OpsOut, c.Mirrors, c.Stalled, c.Stalls), nil
	}
	if len(args) == 1 && args[0] == "channels" {
		parts := make([]string, 0, len(st.Channels))
		for _, cs := range st.Channels {
			parts = append(parts, fmt.Sprintf("%s sent=%d acked=%d nacked=%d received=%d inflight=%d queue=%d",
				cs.Channel, cs.Sent, cs.Acked, cs.Nacked, cs.Received, cs.InFlight, cs.QueueDepth))
		}
		return strings.Join(parts, "; "), nil
	}
	if len(args) == 1 && args[0] == "routing" {
		r := st.Routing
		return fmt.Sprintf("nodes=%d edges=%d suppressed=%d dropped=%d fee_base=%d fee_rate_ppm=%d",
			r.Nodes, r.Edges, r.Suppressed, r.Dropped, r.FeeBase, r.FeeRatePPM), nil
	}
	if len(args) != 0 {
		return "", fmt.Errorf("usage: stats [channels|committee|routing]")
	}
	hs := st.Host
	return fmt.Sprintf("sent=%d acked=%d nacked=%d received=%d mh_ok=%d mh_fail=%d frames_in=%d frames_out=%d drops=%d reconnects=%d rejected=%d inflight=%d shed_starts=%d shedding=%t",
		hs.PaymentsSent, hs.PaymentsAcked, hs.PaymentsNacked, hs.PaymentsReceived,
		hs.MultihopsOK, hs.MultihopsFailed, hs.FramesIn, hs.FramesOut, hs.Drops, hs.Reconnects,
		hs.PaymentsRejected, hs.PaymentsInflight, hs.ShedStarts, hs.Shedding), nil
}

// formatRoute renders a route as "hops 4 send 210 fee 10 via <id> <id>
// ..." — the hop identities after the totals so scripts can cut the
// numbers without parsing keys.
func formatRoute(r api.RouteInfo) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "hops %d send %d fee %d via", len(r.Hops), r.Send, r.TotalFee())
	for _, hop := range r.Hops {
		sb.WriteByte(' ')
		sb.WriteString(api.FormatIdentity(hop))
	}
	return sb.String()
}

// ControlClient is a minimal client for the legacy line protocol, used
// by tests and scripts (the typed SDK is internal/api/client).
type ControlClient struct {
	conn net.Conn
	r    *bufio.Reader
}

// DialControl connects to a node's control port in line mode.
func DialControl(addr string) (*ControlClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &ControlClient{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Do sends one command line and returns the response payload (the text
// after "ok"), or an error for "err" responses.
func (c *ControlClient) Do(line string) (string, error) {
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		return "", err
	}
	resp, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	resp = strings.TrimSpace(resp)
	switch {
	case resp == "ok":
		return "", nil
	case strings.HasPrefix(resp, "ok "):
		return resp[3:], nil
	case strings.HasPrefix(resp, "err "):
		return "", fmt.Errorf("control: %s", resp[4:])
	default:
		return "", fmt.Errorf("control: malformed response %q", resp)
	}
}

// Close drops the control connection.
func (c *ControlClient) Close() error { return c.conn.Close() }
