// Package api defines Teechain's typed, versioned control-plane
// protocol: the request/response and event-stream messages a
// programmatic caller exchanges with a deployed node (cmd/teechain-node
// or an in-process transport.Host), the structured error codes those
// exchanges surface, and the server that dispatches them against a
// Backend.
//
// The protocol rides the same self-contained frame layer as the
// enclave protocol (internal/wire, frame v2): every api message is
// registered in the wire type registry at init, per-payment messages
// (PayReq/PayBatchReq/PayResp/Event and the routing pair
// RouteReq/RouteResp, RoutedPayReq/RoutedPayResp) implement
// wire.BinaryMessage and travel as hand-rolled binary payloads (see
// binary.go), and everything else is gob.
// Control frames carry a zero sender identity and no session token —
// the control plane is host-to-operator, not enclave-to-enclave.
//
// Correlation: every request carries a client-chosen 64-bit ID and
// every response echoes it, so many requests can be in flight over one
// connection and complete out of order. Server-pushed Event messages
// carry no correlation ID; they belong to the connection's
// subscription (see SubscribeReq) and are sequence-numbered so a
// client can detect drops.
//
// Versioning: the first request on a connection must be HelloReq with
// the client's protocol version; the server answers HelloResp (node
// name, enclave identity, wallet address) or rejects the connection
// with CodeVersion. Adding message types or trailing gob fields is
// backward compatible; changing existing semantics bumps Version.
//
// This is the node's only control protocol: api.Serve is the server,
// internal/api/client the Go SDK, and cmd/teechain-ctl the operator's
// command line over that SDK. See DESIGN.md §3d.
package api

import (
	"fmt"
	"time"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// Version is the control-plane protocol version, negotiated by
// HelloReq/HelloResp. Bump on incompatible changes. v2 added the
// durability surface: WalStats/SnapshotNow/Recover requests,
// CodeRecovering, and the snapshot/WAL-lag/recovered event kinds. v3
// added overload control — CodeOverloaded, the RetryAfterMillis
// response field (a PayResp wire-layout change, hence the bump), and
// the overload/replication-stall event kinds. v4 added payment routing:
// Route/RoutedPay requests, the route-update event kind, and the
// routing block in StatsResp. v5 moved those four routing messages from
// gob to binary payloads (a wire-layout change: the frame layer refuses
// a gob payload for a type that has a codec, so a v4 peer is turned
// away at hello instead of failing at its first routed payment).
const Version = 5

// MaxPayCount bounds PayReq.Count: a single request may issue at most
// this many payments. The bound keeps a hostile (or fuzzed) count from
// turning one request into an unbounded server-side issue loop;
// larger workloads split into multiple requests, which pipeline
// anyway.
const MaxPayCount = 1 << 20

// Code classifies a control-plane failure. OK (zero) means success.
type Code uint16

// Control-plane error codes. Codes are part of the protocol: append
// only.
const (
	OK              Code = iota
	CodeInternal         // unclassified server-side failure
	CodeBadRequest       // malformed or out-of-range request arguments
	CodeUnknown          // request type the server does not dispatch
	CodeNotFound         // unknown channel, peer, or committee
	CodeTimeout          // the operation did not complete in time
	CodeUnavailable      // host or server is shutting down
	CodeVersion          // protocol version mismatch at hello
	CodeNacked           // payment(s) rejected and reversed by the peer
	CodeRecovering       // node restarted from durable state; run recover first
	CodeOverloaded       // admission refused before any debit; back off and retry
)

// String names the code for logs and error text.
func (c Code) String() string {
	switch c {
	case OK:
		return "ok"
	case CodeInternal:
		return "internal"
	case CodeBadRequest:
		return "bad-request"
	case CodeUnknown:
		return "unknown-request"
	case CodeNotFound:
		return "not-found"
	case CodeTimeout:
		return "timeout"
	case CodeUnavailable:
		return "unavailable"
	case CodeVersion:
		return "version-mismatch"
	case CodeNacked:
		return "nacked"
	case CodeRecovering:
		return "recovering"
	case CodeOverloaded:
		return "overloaded"
	}
	return fmt.Sprintf("code-%d", uint16(c))
}

// Error is a coded control-plane error. Backends return it (or any
// error, classified CodeInternal) and clients receive it reconstructed
// from the response header. RetryAfterMillis is the server's backoff
// hint, nonzero only when the rejected work was never applied and a
// retry is expected to succeed — CodeOverloaded rejections and
// CodeNacked transient multihop aborts — so the caller may retry
// after roughly that many milliseconds (client.Retrier automates
// this).
type Error struct {
	Code             Code
	Msg              string
	RetryAfterMillis uint32
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Msg) }

// Errorf builds a coded error.
func Errorf(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// ReqHeader is embedded by every request: the client-chosen
// correlation ID echoed by the response.
type ReqHeader struct {
	ID uint64
}

// CorrID implements Request.
func (h *ReqHeader) CorrID() uint64 { return h.ID }

// SetCorrID stamps the correlation ID (used by the client SDK).
func (h *ReqHeader) SetCorrID(id uint64) { h.ID = id }

// RespHeader is embedded by every response: the echoed correlation ID
// plus the structured outcome. RetryAfterMillis carries the overload
// backoff hint (see Error); trailing so v2 gob streams decode it zero.
type RespHeader struct {
	ID               uint64
	Code             Code
	Err              string
	RetryAfterMillis uint32
}

// CorrID implements Response.
func (h *RespHeader) CorrID() uint64 { return h.ID }

// Status implements Response.
func (h *RespHeader) Status() (Code, string) { return h.Code, h.Err }

// RetryHint returns the backoff hint in milliseconds (zero unless the
// response carried one — see Error). Named apart from the field so the
// client SDK can read it through the Response interface.
func (h *RespHeader) RetryHint() uint32 { return h.RetryAfterMillis }

// AsError converts a response header into an *Error (nil when OK).
func (h *RespHeader) AsError() error {
	if h.Code == OK {
		return nil
	}
	return &Error{Code: h.Code, Msg: h.Err, RetryAfterMillis: h.RetryAfterMillis}
}

// Request is implemented by every control-plane request message.
type Request interface {
	CorrID() uint64
	SetCorrID(uint64)
}

// Response is implemented by every control-plane response message.
type Response interface {
	CorrID() uint64
	Status() (Code, string)
}

// --- Handshake and directory ---

// HelloReq opens a control-plane connection: protocol version check
// plus node-info fetch in one round trip. Must be the first request on
// a connection.
type HelloReq struct {
	ReqHeader
	Version uint16
}

// HelloResp identifies the node: operator name, enclave identity, and
// the host wallet's settlement address.
type HelloResp struct {
	RespHeader
	Version  uint16
	Name     string
	Identity cryptoutil.PublicKey
	Wallet   cryptoutil.Address
}

// PeerInfo names one known peer.
type PeerInfo struct {
	Name     string
	Identity cryptoutil.PublicKey
}

// PeersReq lists the node's known peers.
type PeersReq struct {
	ReqHeader
}

// PeersResp carries the peer directory, sorted by name (deterministic
// output — scripts and tests rely on the order).
type PeersResp struct {
	RespHeader
	Peers []PeerInfo
}

// DialReq asks the node to connect (and keep reconnecting) to a peer
// address.
type DialReq struct {
	ReqHeader
	Addr string
}

// DialResp acknowledges a DialReq.
type DialResp struct {
	RespHeader
}

// --- Channel lifecycle ---

// AttestReq runs mutual remote attestation with a named peer, blocking
// until the secure channel is up.
type AttestReq struct {
	ReqHeader
	Peer string
}

// AttestResp acknowledges an AttestReq.
type AttestResp struct {
	RespHeader
}

// OpenChannelReq opens a payment channel with an attested peer.
type OpenChannelReq struct {
	ReqHeader
	Peer string
}

// OpenChannelResp returns the opened channel's id.
type OpenChannelResp struct {
	RespHeader
	Channel wire.ChannelID
}

// DepositReq creates a fresh on-chain deposit of Amount, runs the
// approval handshake with the channel peer, and associates the deposit
// with the channel.
type DepositReq struct {
	ReqHeader
	Channel wire.ChannelID
	Amount  chain.Amount
}

// DepositResp returns the deposit's on-chain outpoint.
type DepositResp struct {
	RespHeader
	Point chain.OutPoint
}

// --- Payments (hot path: wire.BinaryMessage codecs, see binary.go) ---

// PayReq sends Count payments of Amount each over a channel. The
// response arrives once every payment is acknowledged (or any is
// nacked); with client-chosen correlation IDs many PayReqs can be in
// flight over one connection, and the server pipelines them — issue
// now, respond on ack — so the typed path keeps the enclave's per-peer
// lane fast path busy exactly like a native host driver.
type PayReq struct {
	ReqHeader
	Channel wire.ChannelID
	Amount  chain.Amount
	Count   uint32
}

// PayBatchReq sends len(Amounts) payments with independent amounts in
// one PayBatch wire frame (atomic on both enclaves, one ack).
type PayBatchReq struct {
	ReqHeader
	Channel wire.ChannelID
	Amounts []chain.Amount
}

// PayResp completes a PayReq or PayBatchReq: Count payments settled.
// CodeNacked reports that at least one payment in the request's span
// was rejected and reversed by the peer.
type PayResp struct {
	RespHeader
	Count uint32
}

// MultihopReq routes Amount along Hops (each a peer name or hex
// identity; this node is prepended automatically) and blocks for the
// outcome.
type MultihopReq struct {
	ReqHeader
	Amount chain.Amount
	Hops   []string
}

// MultihopResp acknowledges a completed multi-hop payment.
type MultihopResp struct {
	RespHeader
}

// --- Routing (protocol v4; wire.BinaryMessage codecs since v5, see
// binary.go) ---

// RouteInfo describes one payment path: the full hop list (sender
// first, target last), the per-hop forwarding fee schedule (aligned
// with Hops, zero at both endpoints), the amount the target receives,
// and the send amount — Amount plus every fee — debited from the
// sender's first channel.
type RouteInfo struct {
	Hops   []cryptoutil.PublicKey
	Fees   []chain.Amount
	Amount chain.Amount
	Send   chain.Amount
}

// TotalFee is the route's cost beyond the delivered amount.
func (r RouteInfo) TotalFee() chain.Amount { return r.Send - r.Amount }

// RouteReq asks the node's fee-aware pathfinder for the cheapest
// currently-known route delivering Amount to Target (a peer name or
// hex identity) — a dry run of RoutedPayReq's path choice.
type RouteReq struct {
	ReqHeader
	Target string
	Amount chain.Amount
}

// RouteResp carries the found route. CodeNotFound reports that no open
// path with sufficient announced capacity reaches the target.
type RouteResp struct {
	RespHeader
	Route RouteInfo
}

// RoutedPayReq pays Amount to Target (a peer name or hex identity)
// with no explicit path: the node's pathfinder supplies the hops and
// the fee schedule from its gossip graph, and benign mid-payment
// aborts fall back to alternate routes server-side. The sender is
// debited the route's Send amount (Amount plus fees); the target
// receives exactly Amount.
type RoutedPayReq struct {
	ReqHeader
	Target string
	Amount chain.Amount
}

// RoutedPayResp reports the route the payment actually took.
// CodeNacked with a retry hint means every candidate route aborted
// transiently — retry to repath against a fresher graph
// (client.Retrier automates this).
type RoutedPayResp struct {
	RespHeader
	Route RouteInfo
}

// --- Committees and settlement ---

// CommitteeReq forms this node's committee chain from the named peers
// (in chain order) with signature threshold M, attesting them first
// when needed, and blocks until the chain is ready for deposits.
type CommitteeReq struct {
	ReqHeader
	Members []string
	M       int
}

// CommitteeResp returns the formed chain's identifier.
type CommitteeResp struct {
	RespHeader
	Chain string
}

// SettleReq terminates a channel, submitting the settlement
// transaction (when one is needed) to the blockchain.
type SettleReq struct {
	ReqHeader
	Channel wire.ChannelID
}

// SettleResp acknowledges a SettleReq. Confirmation that the channel
// closed arrives as EventSettled on a subscription.
type SettleResp struct {
	RespHeader
}

// --- Chain and inspection ---

// BalancesReq reads a channel's current balances.
type BalancesReq struct {
	ReqHeader
	Channel wire.ChannelID
}

// BalancesResp carries the channel's (mine, remote) balances as seen
// by the serving node.
type BalancesResp struct {
	RespHeader
	Mine   chain.Amount
	Remote chain.Amount
}

// MineReq mines Blocks blocks on the deployment's chain.
type MineReq struct {
	ReqHeader
	Blocks int
}

// MineResp returns the chain height after mining.
type MineResp struct {
	RespHeader
	Height uint64
}

// BalanceReq reads the node wallet's on-chain balance.
type BalanceReq struct {
	ReqHeader
}

// BalanceResp carries the wallet balance.
type BalanceResp struct {
	RespHeader
	Amount chain.Amount
}

// HostStats is the node's host-wide counter snapshot.
type HostStats struct {
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
	// FramesRejected counts inbound frames the node's enclave refused
	// (failed token authentication or binding, replayed counters,
	// sessionless peers).
	FramesRejected uint64
	// Admission control (protocol v3; older gob streams leave them
	// zero). PaymentsRejected counts payments refused at admission —
	// never issued, never debited. PaymentsInflight is the current
	// issued-but-unsettled gauge, ShedStarts counts transitions into
	// shedding, and Shedding reports whether the node is currently
	// rejecting admissions.
	PaymentsRejected uint64
	PaymentsInflight uint64
	ShedStarts       uint64
	Shedding         bool
}

// ChannelStatsEntry is one channel's payment counters.
type ChannelStatsEntry struct {
	Channel    wire.ChannelID
	Sent       uint64
	Acked      uint64
	Nacked     uint64
	Received   uint64
	InFlight   uint64
	QueueDepth int
}

// CommitteeStatsEntry snapshots the replication pipeline of the node's
// committee chain (zero value Chain == "" when the node owns none).
type CommitteeStatsEntry struct {
	Chain      string
	NextSeq    uint64
	FlushSeq   uint64
	AckSeq     uint64
	Queued     int
	Window     int
	BatchesOut uint64
	OpsOut     uint64
	Mirrors    int
	// Stall watchdog (protocol v3): Stalled reports an ack cursor
	// stuck with ops pending; Stalls counts watchdog trips.
	Stalled bool
	Stalls  uint64
}

// StatsReq fetches the structured stats snapshot: host counters,
// per-channel counters, and committee pipeline cursors in one round
// trip — replacing the three formatted-text stats commands of the line
// protocol.
type StatsReq struct {
	ReqHeader
}

// RoutingStatsEntry snapshots the node's routing plane (protocol v4):
// the gossip graph size, the flood-guard counters, and the node's own
// forwarding fee policy.
type RoutingStatsEntry struct {
	Nodes      int    // distinct endpoints across open edges
	Edges      int    // open directed edges in the graph
	Suppressed uint64 // stale announcements dropped by the flood guard
	Dropped    uint64 // announcements lost to full gossip queues
	FeeBase    chain.Amount
	FeeRatePPM uint32
}

// StatsResp carries the structured stats. Channels is sorted by
// channel id. HasCommittee gates Committee (the node may neither own
// nor mirror a chain). Routing (protocol v4) is always present — every
// node runs the gossip plane.
type StatsResp struct {
	RespHeader
	Host         HostStats
	Channels     []ChannelStatsEntry
	HasCommittee bool
	Committee    CommitteeStatsEntry
	Routing      RoutingStatsEntry
}

// --- Event streaming ---

// EventKind tags a server-pushed event.
type EventKind uint8

// Event kinds. Append only.
const (
	EventPayAcked    EventKind = 1  // payments we issued were acknowledged
	EventPayNacked   EventKind = 2  // payments we issued were rejected and reversed
	EventPayReceived EventKind = 3  // payments arrived from a peer
	EventReplCursor  EventKind = 4  // replication ack cursor advanced
	EventSettled     EventKind = 5  // a channel terminated (settle confirmed)
	EventSnapshot    EventKind = 6  // a durable snapshot sealed (WAL truncated)
	EventWalLag      EventKind = 7  // WAL fsync lag reached a new high-water mark
	EventRecovered   EventKind = 8  // crash recovery completed; payments accepted
	EventOverload    EventKind = 9  // admission shedding started (Count 1) or stopped (Count 0)
	EventReplStalled EventKind = 10 // replication ack cursor stuck with ops pending
	EventRouteUpdate EventKind = 11 // the node's view of the channel graph changed
)

// Mask returns the subscription bit for the kind.
func (k EventKind) Mask() EventMask { return 1 << k }

// EventMask selects which event kinds a subscription receives.
type EventMask uint32

// MaskAll subscribes to every event kind.
const MaskAll EventMask = ^EventMask(0)

// SubscribeReq sets the connection's event subscription mask. Mask 0
// unsubscribes. Events begin flowing after SubscribeResp; callers stop
// polling AwaitAcked-style loops and react to pushes instead.
type SubscribeReq struct {
	ReqHeader
	Mask EventMask
}

// SubscribeResp acknowledges a SubscribeReq.
type SubscribeResp struct {
	RespHeader
}

// Event is a server-pushed notification on a subscribed connection.
// Seq numbers deliveries per connection starting at 1; a gap means the
// server dropped events because the subscriber fell behind (event
// delivery must never block the enclave's payment lanes). Field use by
// kind:
//
//	EventPayAcked/Nacked/Received  Channel, Amount, Count
//	EventReplCursor                Chain, Cursor (cumulative acked seq)
//	EventSettled                   Channel
//	EventSnapshot                  Cursor (log seq the snapshot covers)
//	EventWalLag                    Cursor (the new fsync-lag high water)
//	EventRecovered                 (no fields)
//	EventOverload                  Count (1 shedding, 0 recovered), Cursor (retry hint, ms)
//	EventReplStalled               Chain, Cursor (the stuck ack seq)
//	EventRouteUpdate               Channel (the edge that changed), Count (open edges), Cursor (nodes)
type Event struct {
	Seq     uint64
	Kind    EventKind
	Channel wire.ChannelID
	Chain   string
	Amount  chain.Amount
	Count   uint32
	Cursor  uint64
}

// --- Durability & admin (protocol v2) ---

// WalStatsReq asks for the node's durability pipeline snapshot.
type WalStatsReq struct {
	ReqHeader
}

// WalStatsResp reports the durability pipeline: log cursors, fsync
// batching, snapshot age, and whether the node is still recovering.
// Durable is false (and everything else zero) on an in-memory node.
type WalStatsResp struct {
	RespHeader
	Durable     bool
	NextSeq     uint64        // ops committed
	FlushedSeq  uint64        // ops handed to the WAL flusher
	SyncedSeq   uint64        // ops fsynced (effects released)
	FsyncLag    uint64        // NextSeq - SyncedSeq at snapshot time
	FsyncLagMax uint64        // high-water mark of the fsync lag
	Fsyncs      uint64        // batched fsyncs performed
	OpsLogged   uint64        // ops carried by those fsyncs
	SnapshotSeq uint64        // log cursor of the last snapshot
	SnapshotAge time.Duration // time since the last snapshot
	Snapshots   uint64        // snapshots sealed since start
	Recovering  bool          // recover not yet run to completion
}

// SnapshotNowReq forces an immediate durable snapshot (sealing the
// full enclave image under a fresh monotonic-counter increment and
// truncating the WAL). Fails with CodeBadRequest on an in-memory node.
type SnapshotNowReq struct {
	ReqHeader
}

// SnapshotNowResp reports the log sequence the snapshot covers.
type SnapshotNowResp struct {
	RespHeader
	Seq uint64
}

// RecoverReq runs crash recovery on a node that restarted from durable
// state: re-attest neighbors, reconcile channels, resync the
// committee. No-op (OK, Recovered false) on a node that is not
// recovering. The node's peers must be reachable (dial them first).
type RecoverReq struct {
	ReqHeader
}

// RecoverResp reports the recovery outcome. Recovered is true when
// this request completed a recovery (false when none was needed);
// Resumed counts the channels reconciled.
type RecoverResp struct {
	RespHeader
	Recovered bool
	Resumed   int
}

// ErrorResp is the generic failure response for requests the server
// cannot answer in their own response type (unknown request types,
// requests before hello).
type ErrorResp struct {
	RespHeader
}

// Messages lists one instance of every control-plane message type, in
// registration order. The registry test pins their wire codes; the
// codec tests round-trip them.
func Messages() []wire.Message {
	return []wire.Message{
		&HelloReq{}, &HelloResp{}, &PeersReq{}, &PeersResp{},
		&DialReq{}, &DialResp{}, &AttestReq{}, &AttestResp{},
		&OpenChannelReq{}, &OpenChannelResp{}, &DepositReq{}, &DepositResp{},
		&PayReq{}, &PayBatchReq{}, &PayResp{},
		&MultihopReq{}, &MultihopResp{},
		&CommitteeReq{}, &CommitteeResp{}, &SettleReq{}, &SettleResp{},
		&BalancesReq{}, &BalancesResp{}, &MineReq{}, &MineResp{},
		&BalanceReq{}, &BalanceResp{}, &StatsReq{}, &StatsResp{},
		&SubscribeReq{}, &SubscribeResp{}, &Event{}, &ErrorResp{},
		// v2 durability surface — appended so v1 codes are unchanged.
		&WalStatsReq{}, &WalStatsResp{}, &SnapshotNowReq{}, &SnapshotNowResp{},
		&RecoverReq{}, &RecoverResp{},
		// v4 routing surface.
		&RouteReq{}, &RouteResp{}, &RoutedPayReq{}, &RoutedPayResp{},
	}
}

func init() {
	// Exactly one init registers api messages, in the fixed Messages()
	// order, so wire codes are deterministic across every binary that
	// links this package (all control-plane endpoints do).
	for _, m := range Messages() {
		wire.Register(m)
	}
}
