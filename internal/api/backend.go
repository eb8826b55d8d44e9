package api

import (
	"time"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// PayCursor marks a point in one channel's payment stream: Target is
// the channel's cumulative issued-payment count immediately after the
// request's payments were issued. Acks and nacks arrive in issue order
// per channel, so the request is complete exactly when the channel's
// settled (acked+nacked) count reaches Target. NackedBefore snapshots
// the channel's nack counter at issue time: any growth by completion
// means payments in (or interleaved with) this span were rejected.
type PayCursor struct {
	Channel      wire.ChannelID
	Target       uint64
	NackedBefore uint64
}

// Backend is the node surface the control plane drives. transport.Host
// provides it via Host.API(); the interface lives here so the api
// package (protocol + server) never depends on the transport package.
//
// Blocking calls take an explicit timeout and return *Error with
// CodeTimeout when it expires. Payments are issued through a
// connection's Issuer, which only ISSUES them — it returns a PayCursor
// the server completes with AwaitPaid — so a pipelining server can
// issue request N+1 while N's acks are still in flight, keeping the
// enclave's per-peer lane fast path saturated.
type Backend interface {
	// Info identifies the node (name, enclave identity, wallet).
	Info() NodeInfo
	// Peers lists known peers sorted by name.
	Peers() []PeerInfo
	// Dial connects (and keeps reconnecting) to a peer address.
	Dial(addr string) error
	// Attest runs mutual attestation with a named peer.
	Attest(peer string, timeout time.Duration) error
	// OpenChannel opens a channel with an attested peer.
	OpenChannel(peer string, timeout time.Duration) (wire.ChannelID, error)
	// Deposit funds a channel with a fresh on-chain deposit.
	Deposit(ch wire.ChannelID, amount chain.Amount, timeout time.Duration) (chain.OutPoint, error)
	// NewIssuer opens a per-connection payment-issue handle.
	NewIssuer() Issuer
	// AwaitPaid blocks until the cursor's span has settled, returning
	// nil when all payments were acked and CodeNacked when any were
	// rejected.
	AwaitPaid(cur PayCursor, timeout time.Duration) error
	// Multihop routes amount along hops (peer names or hex identities,
	// excluding this node) and blocks for the outcome.
	Multihop(amount chain.Amount, hops []string, timeout time.Duration) error
	// Route runs the fee-aware pathfinder without paying: the cheapest
	// known route delivering amount to target (a peer name or hex
	// identity). CodeNotFound when no sufficient path is known.
	Route(target string, amount chain.Amount) (RouteInfo, error)
	// PayRouted pays amount to target over a pathfinder-chosen route,
	// falling back across alternates on benign aborts, and blocks for
	// the outcome. It returns the route actually paid.
	PayRouted(target string, amount chain.Amount, timeout time.Duration) (RouteInfo, error)
	// FormCommittee forms this node's committee chain, returning its id.
	FormCommittee(members []string, m int, timeout time.Duration) (string, error)
	// Settle terminates a channel on chain.
	Settle(ch wire.ChannelID) error
	// Balances reads a channel's (mine, remote) balances.
	Balances(ch wire.ChannelID) (chain.Amount, chain.Amount, error)
	// Mine mines n blocks, returning the new height.
	Mine(n int) (uint64, error)
	// WalletBalance reads the wallet's on-chain balance.
	WalletBalance() (chain.Amount, error)
	// Stats snapshots host, per-channel, and committee counters.
	Stats() StatsResp
	// WalStats snapshots the durability pipeline; Durable is false on
	// an in-memory node.
	WalStats() WalStatsResp
	// SnapshotNow forces an immediate durable snapshot, returning the
	// log sequence it covers. Errors on an in-memory node.
	SnapshotNow() (uint64, error)
	// Recover runs crash recovery (re-attest, reconcile channels,
	// resync committee) on a durable node that restarted. recovered
	// is false when no recovery was pending; resumed counts the
	// channels reconciled.
	Recover(timeout time.Duration) (recovered bool, resumed int, err error)
	// Subscribe registers an event observer. fn is invoked with
	// enclave-side locks held and must not block; the returned cancel
	// unregisters it. The Event's Seq field is left zero — delivery
	// numbering belongs to the subscription, not the source.
	Subscribe(fn func(Event)) (cancel func())
}

// NodeInfo identifies a node.
type NodeInfo struct {
	Name     string
	Identity cryptoutil.PublicKey
	Wallet   cryptoutil.Address
}

// Issuer is a per-connection payment-issue handle: payments issued
// through it are charged against that connection's fair share of the
// node's global in-flight budget, so one flooding client is shed
// (CodeOverloaded) before it can starve the others. The server calls
// Release as issued payments settle and Close when the connection goes
// away.
type Issuer interface {
	// Pay issues count payments of amount each on the channel.
	Pay(ch wire.ChannelID, amount chain.Amount, count int) (PayCursor, error)
	// PayBatch issues len(amounts) payments in one PayBatch frame. The
	// amounts slice is not retained past the call.
	PayBatch(ch wire.ChannelID, amounts []chain.Amount) (PayCursor, error)
	Release(count uint32)
	Close()
}
