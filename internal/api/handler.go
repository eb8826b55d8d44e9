package api

import (
	"errors"
	"time"

	"teechain/internal/wire"
)

// DefaultTimeout bounds every blocking control-plane operation when
// the caller does not override it.
const DefaultTimeout = 30 * time.Second

// Handler dispatches control-plane requests against a Backend: the
// server's decode-to-operation mapping.
type Handler struct {
	b Backend
	// Timeout bounds blocking operations (DefaultTimeout when zero).
	Timeout time.Duration
}

// NewHandler wraps a backend.
func NewHandler(b Backend) *Handler { return &Handler{b: b} }

func (h *Handler) timeout() time.Duration {
	if h.Timeout > 0 {
		return h.Timeout
	}
	return DefaultTimeout
}

// fill stamps a response header from a request ID and an error,
// classifying non-*Error errors as CodeInternal and carrying the
// overload retry hint through.
func fill(hdr *RespHeader, id uint64, err error) {
	hdr.ID = id
	hdr.RetryAfterMillis = 0
	if err == nil {
		hdr.Code, hdr.Err = OK, ""
		return
	}
	var ae *Error
	if errors.As(err, &ae) {
		hdr.Code, hdr.Err = ae.Code, ae.Msg
		hdr.RetryAfterMillis = ae.RetryAfterMillis
		return
	}
	hdr.Code, hdr.Err = CodeInternal, err.Error()
}

// Do dispatches one request synchronously and returns its typed
// response (never nil). Payment requests are not dispatched here: the
// server splits them into IssuePayOn and AwaitPay. Unknown message
// types get an ErrorResp with CodeUnknown.
func (h *Handler) Do(req Request) Response {
	id := req.CorrID()
	switch r := req.(type) {
	case *HelloReq:
		resp := &HelloResp{Version: Version}
		if r.Version != Version {
			fill(&resp.RespHeader, id, Errorf(CodeVersion, "server speaks v%d, client sent v%d", Version, r.Version))
			return resp
		}
		info := h.b.Info()
		resp.Name, resp.Identity, resp.Wallet = info.Name, info.Identity, info.Wallet
		fill(&resp.RespHeader, id, nil)
		return resp
	case *PeersReq:
		resp := &PeersResp{Peers: h.b.Peers()}
		fill(&resp.RespHeader, id, nil)
		return resp
	case *DialReq:
		resp := &DialResp{}
		var err error
		if r.Addr == "" {
			err = Errorf(CodeBadRequest, "empty dial address")
		} else {
			err = h.b.Dial(r.Addr)
		}
		fill(&resp.RespHeader, id, err)
		return resp
	case *AttestReq:
		resp := &AttestResp{}
		var err error
		if r.Peer == "" {
			err = Errorf(CodeBadRequest, "empty peer name")
		} else {
			err = h.b.Attest(r.Peer, h.timeout())
		}
		fill(&resp.RespHeader, id, err)
		return resp
	case *OpenChannelReq:
		resp := &OpenChannelResp{}
		if r.Peer == "" {
			fill(&resp.RespHeader, id, Errorf(CodeBadRequest, "empty peer name"))
			return resp
		}
		ch, err := h.b.OpenChannel(r.Peer, h.timeout())
		resp.Channel = ch
		fill(&resp.RespHeader, id, err)
		return resp
	case *DepositReq:
		resp := &DepositResp{}
		if r.Amount <= 0 {
			fill(&resp.RespHeader, id, Errorf(CodeBadRequest, "bad deposit amount %d", r.Amount))
			return resp
		}
		point, err := h.b.Deposit(r.Channel, r.Amount, h.timeout())
		resp.Point = point
		fill(&resp.RespHeader, id, err)
		return resp
	case *MultihopReq:
		resp := &MultihopResp{}
		var err error
		switch {
		case r.Amount <= 0:
			err = Errorf(CodeBadRequest, "bad multihop amount %d", r.Amount)
		case len(r.Hops) < 2:
			err = Errorf(CodeBadRequest, "multihop needs at least two hops, got %d", len(r.Hops))
		default:
			err = h.b.Multihop(r.Amount, r.Hops, h.timeout())
		}
		fill(&resp.RespHeader, id, err)
		return resp
	case *RouteReq:
		resp := &RouteResp{}
		var err error
		switch {
		case r.Amount <= 0:
			err = Errorf(CodeBadRequest, "bad route amount %d", r.Amount)
		case r.Target == "":
			err = Errorf(CodeBadRequest, "empty route target")
		default:
			resp.Route, err = h.b.Route(r.Target, r.Amount)
		}
		fill(&resp.RespHeader, id, err)
		return resp
	case *RoutedPayReq:
		resp := &RoutedPayResp{}
		var err error
		switch {
		case r.Amount <= 0:
			err = Errorf(CodeBadRequest, "bad routed payment amount %d", r.Amount)
		case r.Target == "":
			err = Errorf(CodeBadRequest, "empty routed payment target")
		default:
			resp.Route, err = h.b.PayRouted(r.Target, r.Amount, h.timeout())
		}
		fill(&resp.RespHeader, id, err)
		return resp
	case *CommitteeReq:
		resp := &CommitteeResp{}
		var err error
		switch {
		case len(r.Members) == 0:
			err = Errorf(CodeBadRequest, "committee needs at least one member")
		case r.M < 1:
			err = Errorf(CodeBadRequest, "bad signature threshold %d", r.M)
		default:
			resp.Chain, err = h.b.FormCommittee(r.Members, r.M, h.timeout())
		}
		fill(&resp.RespHeader, id, err)
		return resp
	case *SettleReq:
		resp := &SettleResp{}
		fill(&resp.RespHeader, id, h.b.Settle(r.Channel))
		return resp
	case *BalancesReq:
		resp := &BalancesResp{}
		mine, remote, err := h.b.Balances(r.Channel)
		resp.Mine, resp.Remote = mine, remote
		fill(&resp.RespHeader, id, err)
		return resp
	case *MineReq:
		resp := &MineResp{}
		if r.Blocks < 1 {
			fill(&resp.RespHeader, id, Errorf(CodeBadRequest, "bad block count %d", r.Blocks))
			return resp
		}
		height, err := h.b.Mine(r.Blocks)
		resp.Height = height
		fill(&resp.RespHeader, id, err)
		return resp
	case *BalanceReq:
		resp := &BalanceResp{}
		bal, err := h.b.WalletBalance()
		resp.Amount = bal
		fill(&resp.RespHeader, id, err)
		return resp
	case *StatsReq:
		resp := h.b.Stats()
		fill(&resp.RespHeader, id, nil)
		return &resp
	case *WalStatsReq:
		resp := h.b.WalStats()
		fill(&resp.RespHeader, id, nil)
		return &resp
	case *SnapshotNowReq:
		resp := &SnapshotNowResp{}
		seq, err := h.b.SnapshotNow()
		resp.Seq = seq
		fill(&resp.RespHeader, id, err)
		return resp
	case *RecoverReq:
		resp := &RecoverResp{}
		recovered, resumed, err := h.b.Recover(h.timeout())
		resp.Recovered, resp.Resumed = recovered, resumed
		fill(&resp.RespHeader, id, err)
		return resp
	default:
		resp := &ErrorResp{}
		fill(&resp.RespHeader, id, Errorf(CodeUnknown, "request type %T is not dispatchable", req))
		return resp
	}
}

// IssuePayOn issues the payments of a PayReq or PayBatchReq through a
// connection's issuer without waiting for their acks, returning the
// cursor AwaitPay completes with and the request's payment count. The
// server's pipelined pay path uses it so the next request can issue
// while this one's acks are in flight.
func (h *Handler) IssuePayOn(iss Issuer, req Request) (PayCursor, uint32, error) {
	switch r := req.(type) {
	case *PayReq:
		if r.Amount <= 0 || r.Count < 1 {
			return PayCursor{}, 0, Errorf(CodeBadRequest, "bad payment amount %d / count %d", r.Amount, r.Count)
		}
		if r.Count > MaxPayCount {
			return PayCursor{}, 0, Errorf(CodeBadRequest, "count %d exceeds %d per request", r.Count, MaxPayCount)
		}
		cur, err := iss.Pay(r.Channel, r.Amount, int(r.Count))
		return cur, r.Count, err
	case *PayBatchReq:
		if len(r.Amounts) == 0 {
			return PayCursor{}, 0, Errorf(CodeBadRequest, "empty payment batch")
		}
		if len(r.Amounts) > wire.MaxPayBatch {
			return PayCursor{}, 0, Errorf(CodeBadRequest, "batch of %d exceeds %d", len(r.Amounts), wire.MaxPayBatch)
		}
		for _, a := range r.Amounts {
			if a <= 0 {
				return PayCursor{}, 0, Errorf(CodeBadRequest, "bad payment amount %d in batch", a)
			}
		}
		cur, err := iss.PayBatch(r.Channel, r.Amounts)
		return cur, uint32(len(r.Amounts)), err
	default:
		return PayCursor{}, 0, Errorf(CodeUnknown, "%T is not a payment request", req)
	}
}

// AwaitPay blocks until a previously issued cursor settles.
func (h *Handler) AwaitPay(cur PayCursor) error { return h.b.AwaitPaid(cur, h.timeout()) }
