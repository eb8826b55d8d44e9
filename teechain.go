// Package teechain is a Go implementation of Teechain (Lind et al.,
// SOSP 2019): a layer-two blockchain payment network that requires only
// asynchronous blockchain access. Funds are secured by trusted execution
// environments; payment channels open instantly without blockchain
// writes; deposits move in and out of channels dynamically; multi-hop
// payments settle consistently even under premature termination; and
// Byzantine TEE failures are tolerated by committee chains combining
// force-freeze chain replication with m-of-n threshold settlement.
//
// The package exposes a deployment API over a deterministic simulated
// substrate — network, blockchain, and TEE platform (see DESIGN.md for
// what is simulated and why):
//
//	net, _ := teechain.NewNetwork()
//	alice, _ := net.AddNode("alice", teechain.SiteUK, teechain.NodeOptions{})
//	bob, _ := net.AddNode("bob", teechain.SiteUS, teechain.NodeOptions{})
//	ch, _ := net.OpenChannel(alice, bob, 1000, 0) // funded instantly
//	alice.Pay(ch, 250, nil)
//	net.Run()
//
// The underlying protocol engine (internal/core) is transport-agnostic;
// cmd/teechain-demo drives the same enclaves over real TCP sockets.
package teechain

import (
	"time"

	"teechain/internal/chain"
	"teechain/internal/core"
	"teechain/internal/cryptoutil"
	"teechain/internal/harness"
	"teechain/internal/wire"
)

// Re-exported fundamental types.
type (
	// Amount is a quantity of currency in base units.
	Amount = chain.Amount
	// ChannelID identifies a payment channel.
	ChannelID = wire.ChannelID
	// PaymentID identifies a multi-hop payment.
	PaymentID = wire.PaymentID
	// PublicKey is an enclave identity key.
	PublicKey = cryptoutil.PublicKey
	// Node is a Teechain participant: an untrusted host plus its
	// enclave.
	Node = core.Node
	// Client is a TEE-less participant driving a remote enclave.
	Client = core.Client
	// PayDone receives a payment's outcome.
	PayDone = core.PayDone
	// Event is an enclave-to-host notification; see the Ev* types in
	// internal/core.
	Event = core.Event
	// SettleResult reports how a channel terminated.
	SettleResult = core.SettleResult
	// Site is a geographic location of the simulated testbed.
	Site = harness.Site
)

// Testbed sites (Fig. 3 of the paper).
const (
	SiteUK = harness.SiteUK
	SiteUS = harness.SiteUS
	SiteIL = harness.SiteIL
)

// NodeOptions configures a node.
type NodeOptions struct {
	// StableStorage enables sealed, monotonic-counter-protected
	// persistence (crash fault tolerance without committees, §6.2).
	StableStorage bool
	// AllowOutsource permits one TEE-less client to drive this node's
	// enclave remotely (§3).
	AllowOutsource bool
	// BatchWindow enables client-side payment batching when positive.
	BatchWindow time.Duration
	// MaxRetries bounds multi-hop payment retries.
	MaxRetries int
	// MinConfirmations is the deposit-approval policy (default 1).
	MinConfirmations uint64
}

// Network is a Teechain deployment: nodes, the simulated wide-area
// network, the blockchain, and the identity directory.
type Network struct {
	d *harness.Deployment
}

// NewNetwork creates an empty deployment.
func NewNetwork() (*Network, error) {
	d, err := harness.NewDeployment()
	if err != nil {
		return nil, err
	}
	return &Network{d: d}, nil
}

// AddNode creates a node (host + enclave) at a site.
func (n *Network) AddNode(name string, site Site, opts NodeOptions) (*Node, error) {
	if opts.MinConfirmations == 0 {
		opts.MinConfirmations = 1
	}
	return n.d.AddNode(name, site, core.NodeConfig{
		Enclave: core.Config{
			MinConfirmations: opts.MinConfirmations,
			StableStorage:    opts.StableStorage,
			AllowOutsource:   opts.AllowOutsource,
		},
		BatchWindow: opts.BatchWindow,
		MaxRetries:  opts.MaxRetries,
	})
}

// AddClient creates a TEE-less participant at a site; attach it to a
// node created with AllowOutsource.
func (n *Network) AddClient(name string, site Site) (*Client, error) {
	return n.d.AddClient(name, site)
}

// Connect performs mutual remote attestation between two nodes,
// establishing their secure channel.
func (n *Network) Connect(a, b *Node) error { return n.d.Connect(a, b) }

// FormCommittee builds a's committee chain (§6) from the given member
// nodes with threshold m signatures over len(members)+1 keys.
func (n *Network) FormCommittee(owner *Node, members []*Node, m int) error {
	return n.d.FormCommittee(owner, members, m)
}

// OpenChannel opens a payment channel between two nodes and funds it
// with fundA from a's side and fundB from b's (either may be zero).
// No blockchain write occurs on the critical path: deposits are created
// in advance and assigned dynamically (§4).
func (n *Network) OpenChannel(a, b *Node, fundA, fundB Amount) (ChannelID, error) {
	return n.d.OpenChannel(a, b, fundA, fundB)
}

// Paths returns up to k identity paths from a to b over opened
// channels, shortest first, considering paths at most extra hops longer
// than the shortest (dynamic routing, §7.4).
func (n *Network) Paths(a, b *Node, k, extra int) [][]PublicKey {
	return n.d.Paths(a.Identity(), b.Identity(), k, extra)
}

// Run drains the simulator: all in-flight protocol activity completes.
func (n *Network) Run() { n.d.Sim.Run() }

// RunFor advances virtual time by d.
func (n *Network) RunFor(d time.Duration) { n.d.Sim.RunFor(d) }

// Until runs the simulation until cond holds.
func (n *Network) Until(cond func() bool) error { return n.d.Until(cond) }

// Now returns the current virtual time since deployment start.
func (n *Network) Now() time.Duration { return time.Duration(n.d.Sim.Now()) }

// MineBlock mines the next block on the simulated blockchain.
func (n *Network) MineBlock() { n.d.Chain.MineBlock() }

// MineBlocks mines k consecutive blocks.
func (n *Network) MineBlocks(k int) { n.d.Chain.MineBlocks(k) }

// OnChainBalance returns a node's confirmed funds at its payout
// address.
func (n *Network) OnChainBalance(node *Node) Amount {
	return n.d.Chain.BalanceByAddress(node.WalletKey().Address())
}

// Chain exposes the underlying blockchain simulator for advanced use
// (censorship experiments, direct inspection).
func (n *Network) Chain() *chain.Chain { return n.d.Chain }
