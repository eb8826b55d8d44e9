package transport

// The control-plane backend: transport.Host exposed through the
// internal/api Backend interface. This is the single surface both the
// typed TCP server and the legacy line-protocol shim drive, so every
// control protocol shares one semantics (and one set of structured
// error codes, classified from the host's sentinel errors).

import (
	"errors"
	"sort"
	"time"

	"teechain/internal/api"
	"teechain/internal/chain"
	"teechain/internal/core"
	"teechain/internal/cryptoutil"
	"teechain/internal/route"
	"teechain/internal/wire"
)

// EvReplCursor is a transport-level host event: the committee chain's
// cumulative replication ack cursor advanced. Emitted to observers
// (Host.Observe) when a ReplAck/ReplBatchAck arrives, it backs the
// control plane's EventReplCursor stream.
type EvReplCursor struct {
	Chain string
	Acked uint64
}

// apiBackend adapts a Host to api.Backend.
type apiBackend struct {
	h *Host
}

// API returns the host's control-plane backend, for api.Serve /
// api.NewServer and the line-protocol shim.
func (h *Host) API() api.Backend { return apiBackend{h: h} }

// transientNackRetryMillis is the backoff hint on transient multihop
// aborts: the blocking payment clears in one lock→release round trip,
// so the hint is much shorter than the unavailable-endpoint one.
const transientNackRetryMillis = 25

// classify maps host errors onto structured control-plane codes.
func classify(err error) error {
	if err == nil {
		return nil
	}
	var ae *api.Error
	if errors.As(err, &ae) {
		return ae
	}
	var mhe *MultihopAbortError
	if errors.As(err, &mhe) && mhe.Transient {
		// A benign abort (hop busy, stale τ): nothing was committed, so
		// hint an immediate short-backoff retry.
		return &api.Error{Code: api.CodeNacked, Msg: err.Error(), RetryAfterMillis: transientNackRetryMillis}
	}
	code := api.CodeInternal
	var retry uint32
	switch {
	case errors.Is(err, ErrOverloaded):
		// Before ErrTimeout: a deadline abandoned while shedding is
		// typed as backpressure, and it carries the retry hint.
		code = api.CodeOverloaded
		retry = retryHintMillis
	case errors.Is(err, ErrTimeout):
		code = api.CodeTimeout
	case errors.Is(err, ErrChainUnavailable):
		// The RemoteChain client already exhausted its own in-place
		// retries, so hint a coarser client backoff: endpoint restarts
		// take longer than a dropped frame.
		code = api.CodeUnavailable
		retry = chainUnavailableRetryMillis
	case errors.Is(err, ErrClosed):
		code = api.CodeUnavailable
	case errors.Is(err, ErrUnknownChannel), errors.Is(err, ErrUnknownPeer),
		errors.Is(err, route.ErrNoRoute):
		code = api.CodeNotFound
	case errors.Is(err, ErrRecovering):
		code = api.CodeRecovering
	}
	return &api.Error{Code: code, Msg: err.Error(), RetryAfterMillis: retry}
}

func (b apiBackend) Info() api.NodeInfo {
	return api.NodeInfo{
		Name:     b.h.Name(),
		Identity: b.h.Identity(),
		Wallet:   b.h.WalletAddress(),
	}
}

func (b apiBackend) Peers() []api.PeerInfo {
	peers := b.h.Peers()
	out := make([]api.PeerInfo, 0, len(peers))
	for name, id := range peers {
		out = append(out, api.PeerInfo{Name: name, Identity: id})
	}
	// Sorted by name: map iteration order must never leak into
	// control-plane output (tests and scripts diff it).
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (b apiBackend) Dial(addr string) error { return classify(b.h.DialPeer(addr)) }

func (b apiBackend) Attest(peer string, timeout time.Duration) error {
	return classify(b.h.Attest(peer, timeout))
}

func (b apiBackend) OpenChannel(peer string, timeout time.Duration) (wire.ChannelID, error) {
	ch, err := b.h.OpenChannel(peer, timeout)
	return ch, classify(err)
}

func (b apiBackend) Deposit(ch wire.ChannelID, amount chain.Amount, timeout time.Duration) (chain.OutPoint, error) {
	point, err := b.h.FundChannel(ch, amount, timeout)
	return point, classify(err)
}

// payLoop issues count payments through issue (the shared host path or
// a per-connection issuer), building the settle cursor.
func payLoop(issue func(wire.ChannelID, chain.Amount) (PayMark, error), ch wire.ChannelID, amount chain.Amount, count int) (api.PayCursor, error) {
	var cur api.PayCursor
	for i := 0; i < count; i++ {
		mark, err := issue(ch, amount)
		if err != nil {
			// Payments already issued stay issued; the cursor reflects
			// them so a partial failure still settles deterministically.
			return cur, classify(err)
		}
		if i == 0 {
			cur = api.PayCursor{Channel: ch, NackedBefore: mark.NackedBefore}
		}
		cur.Target = mark.Target
	}
	return cur, nil
}

func (b apiBackend) Pay(ch wire.ChannelID, amount chain.Amount, count int) (api.PayCursor, error) {
	return payLoop(b.h.PayTracked, ch, amount, count)
}

func (b apiBackend) PayBatch(ch wire.ChannelID, amounts []chain.Amount) (api.PayCursor, error) {
	mark, err := b.h.PayBatchTracked(ch, amounts)
	if err != nil {
		return api.PayCursor{}, classify(err)
	}
	return api.PayCursor{Channel: ch, Target: mark.Target, NackedBefore: mark.NackedBefore}, nil
}

// apiIssuer adapts a PayIssuer to api.Issuer: one fair-share admission
// handle per typed control connection.
type apiIssuer struct {
	pi *PayIssuer
}

// NewIssuer implements api.IssuerBackend.
func (b apiBackend) NewIssuer() api.Issuer { return apiIssuer{pi: b.h.NewPayIssuer()} }

func (i apiIssuer) Pay(ch wire.ChannelID, amount chain.Amount, count int) (api.PayCursor, error) {
	return payLoop(i.pi.PayTracked, ch, amount, count)
}

func (i apiIssuer) PayBatch(ch wire.ChannelID, amounts []chain.Amount) (api.PayCursor, error) {
	mark, err := i.pi.PayBatchTracked(ch, amounts)
	if err != nil {
		return api.PayCursor{}, classify(err)
	}
	return api.PayCursor{Channel: ch, Target: mark.Target, NackedBefore: mark.NackedBefore}, nil
}

func (i apiIssuer) Release(count uint32) { i.pi.Release(uint64(count)) }

func (i apiIssuer) Close() { i.pi.Close() }

func (b apiBackend) AwaitPaid(cur api.PayCursor, timeout time.Duration) error {
	nacked, err := b.h.AwaitChannelSettled(cur.Channel, cur.Target, timeout)
	if err != nil {
		return classify(err)
	}
	if nacked > cur.NackedBefore {
		return api.Errorf(api.CodeNacked, "%d payment(s) rejected and reversed on %s",
			nacked-cur.NackedBefore, cur.Channel)
	}
	return nil
}

func (b apiBackend) Multihop(amount chain.Amount, hops []string, timeout time.Duration) error {
	path := make([]cryptoutil.PublicKey, 0, len(hops)+1)
	path = append(path, b.h.Identity())
	for _, hop := range hops {
		id, err := b.h.ResolveIdentity(hop)
		if err != nil {
			return classify(err)
		}
		path = append(path, id)
	}
	return classify(b.h.PayMultihop(path, amount, timeout))
}

// routeInfo converts a pathfinder route to its control-plane shape.
func routeInfo(r route.Route) api.RouteInfo {
	return api.RouteInfo{Hops: r.Hops, Fees: r.Fees, Amount: r.Amount, Send: r.Send}
}

func (b apiBackend) Route(target string, amount chain.Amount) (api.RouteInfo, error) {
	id, err := b.h.ResolveIdentity(target)
	if err != nil {
		return api.RouteInfo{}, classify(err)
	}
	r, err := b.h.FindRoute(id, amount)
	if err != nil {
		return api.RouteInfo{}, classify(err)
	}
	return routeInfo(r), nil
}

func (b apiBackend) PayRouted(target string, amount chain.Amount, timeout time.Duration) (api.RouteInfo, error) {
	id, err := b.h.ResolveIdentity(target)
	if err != nil {
		return api.RouteInfo{}, classify(err)
	}
	r, err := b.h.PayRouted(id, amount, timeout)
	if err != nil {
		return api.RouteInfo{}, classify(err)
	}
	return routeInfo(r), nil
}

func (b apiBackend) FormCommittee(members []string, m int, timeout time.Duration) (string, error) {
	if err := b.h.FormCommittee(members, m, timeout); err != nil {
		return "", classify(err)
	}
	st, _ := b.h.CommitteeStats()
	return st.Chain, nil
}

func (b apiBackend) Settle(ch wire.ChannelID) error { return classify(b.h.Settle(ch)) }

func (b apiBackend) Balances(ch wire.ChannelID) (chain.Amount, chain.Amount, error) {
	mine, remote, err := b.h.ChannelBalances(ch)
	return mine, remote, classify(err)
}

func (b apiBackend) Mine(n int) (uint64, error) {
	height, err := b.h.chain.MineBlocks(n)
	return height, classify(err)
}

func (b apiBackend) WalletBalance() (chain.Amount, error) {
	bal, err := b.h.chain.Balance(b.h.WalletAddress())
	return bal, classify(err)
}

func (b apiBackend) Stats() api.StatsResp {
	var resp api.StatsResp
	st := b.h.Stats()
	resp.Host = api.HostStats{
		PaymentsSent:     st.PaymentsSent,
		PaymentsAcked:    st.PaymentsAcked,
		PaymentsNacked:   st.PaymentsNacked,
		PaymentsReceived: st.PaymentsReceived,
		MultihopsOK:      st.MultihopsOK,
		MultihopsFailed:  st.MultihopsFailed,
		FramesIn:         st.FramesIn,
		FramesOut:        st.FramesOut,
		Drops:            st.Drops,
		Reconnects:       st.Reconnects,
		FramesRejected:   st.FramesRejected,
		PaymentsRejected: st.PaymentsRejected,
		PaymentsInflight: st.PaymentsInflight,
		ShedStarts:       st.ShedStarts,
		Shedding:         st.Shedding,
	}
	per := b.h.ChannelStats()
	resp.Channels = make([]api.ChannelStatsEntry, 0, len(per))
	for id, cs := range per {
		resp.Channels = append(resp.Channels, api.ChannelStatsEntry{
			Channel:    id,
			Sent:       cs.Sent,
			Acked:      cs.Acked,
			Nacked:     cs.Nacked,
			Received:   cs.Received,
			InFlight:   cs.InFlight,
			QueueDepth: cs.QueueDepth,
		})
	}
	sort.Slice(resp.Channels, func(i, j int) bool { return resp.Channels[i].Channel < resp.Channels[j].Channel })
	if cst, ok := b.h.CommitteeStats(); ok {
		resp.HasCommittee = true
		resp.Committee = api.CommitteeStatsEntry{
			Chain:      cst.Chain,
			NextSeq:    cst.NextSeq,
			FlushSeq:   cst.FlushSeq,
			AckSeq:     cst.AckSeq,
			Queued:     cst.Queued,
			Window:     cst.Window,
			BatchesOut: cst.BatchesOut,
			OpsOut:     cst.OpsOut,
			Mirrors:    cst.Mirrors,
			Stalled:    cst.Stalled,
			Stalls:     cst.Stalls,
		}
	}
	rst := b.h.RouteStats()
	resp.Routing = api.RoutingStatsEntry{
		Nodes:      rst.Nodes,
		Edges:      rst.Edges,
		Suppressed: rst.Suppressed,
		Dropped:    rst.Dropped,
		FeeBase:    rst.FeeBase,
		FeeRatePPM: rst.FeeRatePPM,
	}
	return resp
}

func (b apiBackend) Subscribe(fn func(api.Event)) (cancel func()) {
	return b.h.Observe(func(ev core.Event) {
		var out api.Event
		switch e := ev.(type) {
		case core.EvPayAcked:
			out = api.Event{Kind: api.EventPayAcked, Channel: e.Channel, Amount: e.Amount, Count: uint32(e.Count)}
		case core.EvPayNacked:
			out = api.Event{Kind: api.EventPayNacked, Channel: e.Channel, Amount: e.Amount, Count: uint32(e.Count)}
		case core.EvPaymentReceived:
			out = api.Event{Kind: api.EventPayReceived, Channel: e.Channel, Amount: e.Amount, Count: uint32(e.Count)}
		case core.EvChannelClosed:
			out = api.Event{Kind: api.EventSettled, Channel: e.Channel}
		case EvReplCursor:
			out = api.Event{Kind: api.EventReplCursor, Chain: e.Chain, Cursor: e.Acked}
		case EvSnapshot:
			out = api.Event{Kind: api.EventSnapshot, Cursor: e.Seq}
		case EvWalLag:
			out = api.Event{Kind: api.EventWalLag, Cursor: e.Lag}
		case EvRecovered:
			out = api.Event{Kind: api.EventRecovered}
		case EvOverload:
			var shedding uint32
			if e.Shedding {
				shedding = 1
			}
			out = api.Event{Kind: api.EventOverload, Count: shedding, Cursor: uint64(e.RetryAfterMillis)}
		case EvReplStalled:
			out = api.Event{Kind: api.EventReplStalled, Chain: e.Chain, Cursor: e.AckSeq}
		case EvRouteUpdate:
			out = api.Event{Kind: api.EventRouteUpdate, Channel: e.Channel, Count: uint32(e.Edges), Cursor: uint64(e.Nodes)}
		default:
			return
		}
		fn(out)
	})
}

func (b apiBackend) WalStats() api.WalStatsResp {
	var resp api.WalStatsResp
	ws, ok := b.h.WalStats()
	if !ok {
		return resp
	}
	resp.Durable = true
	resp.NextSeq = ws.NextSeq
	resp.FlushedSeq = ws.FlushedSeq
	resp.SyncedSeq = ws.SyncedSeq
	resp.FsyncLag = ws.FsyncLag
	resp.FsyncLagMax = ws.FsyncLagMax
	resp.Fsyncs = ws.Fsyncs
	resp.OpsLogged = ws.OpsLogged
	resp.SnapshotSeq = ws.SnapshotSeq
	resp.SnapshotAge = ws.SnapshotAge
	resp.Snapshots = ws.Snapshots
	resp.Recovering = ws.Recovering
	return resp
}

func (b apiBackend) SnapshotNow() (uint64, error) {
	if !b.h.enclave.Durable() {
		return 0, &api.Error{Code: api.CodeBadRequest, Msg: "node is not durable (no data dir)"}
	}
	seq, err := b.h.SnapshotNow()
	return seq, classify(err)
}

func (b apiBackend) Recover(timeout time.Duration) (bool, int, error) {
	if !b.h.Recovering() {
		return false, 0, nil
	}
	// Count the channels recovery will reconcile before running it.
	b.h.mu.RLock()
	resumed := 0
	for _, c := range b.h.enclave.State().Channels {
		if c.Open && !c.Closed {
			resumed++
		}
	}
	b.h.mu.RUnlock()
	if err := b.h.Recover(timeout); err != nil {
		return false, 0, classify(err)
	}
	return true, resumed, nil
}
