package harness

import (
	"fmt"
	"net"
	"sync"
	"time"

	"teechain/internal/api"
	"teechain/internal/api/client"
	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/tee"
	"teechain/internal/transport"
)

// Cluster spawns an in-process N-node Teechain deployment over real
// TCP sockets: one transport.Host per node, each with its own peer
// listener AND its own control listener (the typed control-plane port
// teechain-node serves), all sharing one blockchain. Cluster
// operations are driven end to end through the typed control-plane
// client SDK (internal/api/client) — exactly the path external
// tooling uses against deployed daemons — while Host accessors remain
// for fault injection and enclave-state inspection. Integration tests
// use it to run hub-and-spoke, multihop, and failover topologies as
// real concurrent processes with deterministic protocol outcomes
// (wallet and enclave keys derive from node names, so final balances
// are exact).
type Cluster struct {
	// Chain is the shared ledger every node reads and settles against.
	Chain *transport.LocalChain

	hosts    map[string]*transport.Host
	ctls     map[string]*api.Server
	ctlAddrs map[string]string
	names    []string

	// auth and mut are kept so RestartNode can rebuild a killed node
	// with its original configuration (same authority, same Config
	// hook — and therefore the same DataDir for durable nodes).
	auth *tee.Authority
	mut  func(*transport.Config)

	mu      sync.Mutex
	clients map[string]*client.Conn
}

// ClusterTimeout bounds every blocking cluster operation; generous so
// race-instrumented CI runs never flake on scheduling stalls.
const ClusterTimeout = 60 * time.Second

// NewCluster starts one host per name, each listening on a fresh
// loopback port. Close the cluster when done.
func NewCluster(names ...string) (*Cluster, error) {
	return NewClusterWith(nil, names...)
}

// NewClusterWith is NewCluster with a per-host Config hook, applied
// after the defaults (name, authority, chain) are filled in — the
// benchmark program uses it to give one host a data directory or every
// host its fee policy, the overload suite to shrink admission budgets.
func NewClusterWith(mut func(*transport.Config), names ...string) (*Cluster, error) {
	auth, err := tee.NewAuthority("cluster")
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		Chain:    transport.NewLocalChain(chain.New()),
		hosts:    make(map[string]*transport.Host, len(names)),
		ctls:     make(map[string]*api.Server, len(names)),
		ctlAddrs: make(map[string]string, len(names)),
		clients:  make(map[string]*client.Conn, len(names)),
		names:    append([]string(nil), names...),
		auth:     auth,
		mut:      mut,
	}
	for _, name := range names {
		if err := c.startNode(name); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// startNode builds and starts one node: host, peer listener, control
// server. Used for initial bringup and by RestartNode.
func (c *Cluster) startNode(name string) error {
	cfg := transport.Config{
		Name:      name,
		Authority: c.auth,
		Chain:     c.Chain,
	}
	if c.mut != nil {
		c.mut(&cfg)
	}
	h, err := transport.NewHost(cfg)
	if err != nil {
		return err
	}
	if _, err := h.Listen("127.0.0.1:0"); err != nil {
		h.Close()
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.Close()
		return err
	}
	ctl := api.Serve(ln, h.API(), cfg.Logf)
	// Control operations share the cluster's generous timeout so
	// race-instrumented CI and failover phases never flake on the
	// server-side default.
	ctl.Handler().Timeout = ClusterTimeout
	c.hosts[name] = h
	c.ctls[name] = ctl
	c.ctlAddrs[name] = ln.Addr().String()
	return nil
}

// Close shuts every client, host, and control server down — hosts
// before control servers, so any control operation still blocked in a
// host wait fails fast (ErrClosed) instead of running out its timeout
// while the control server drains.
func (c *Cluster) Close() {
	c.mu.Lock()
	clients := c.clients
	c.clients = map[string]*client.Conn{}
	c.mu.Unlock()
	for _, cc := range clients {
		cc.Close()
	}
	for _, h := range c.hosts {
		h.Close()
	}
	for _, s := range c.ctls {
		s.Close()
	}
}

// Host returns the named node's host (fault injection, enclave
// inspection; cluster operations go through Client).
func (c *Cluster) Host(name string) *transport.Host { return c.hosts[name] }

// ControlAddr returns the named node's control listener address.
func (c *Cluster) ControlAddr(name string) string { return c.ctlAddrs[name] }

// Client returns a typed control-plane client for the named node,
// dialing it on first use. It panics on an unknown name or a failed
// dial — both mean the harness itself is broken.
func (c *Cluster) Client(name string) *client.Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cc := c.clients[name]; cc != nil {
		return cc
	}
	addr, ok := c.ctlAddrs[name]
	if !ok {
		panic(fmt.Sprintf("harness: unknown cluster node %q", name))
	}
	cc, err := client.Dial(addr)
	if err != nil {
		panic(fmt.Sprintf("harness: dialing %s control: %v", name, err))
	}
	cc.SetTimeout(ClusterTimeout)
	c.clients[name] = cc
	return cc
}

// KillNode models `kill -9` on one node: its host goes down without
// flushing or goodbye, its control server stops, and any cached client
// connection is dropped. The node's durable files (when it has a
// DataDir) survive for RestartNode.
func (c *Cluster) KillNode(name string) {
	c.mu.Lock()
	cc := c.clients[name]
	delete(c.clients, name)
	c.mu.Unlock()
	if cc != nil {
		cc.Close()
	}
	if h := c.hosts[name]; h != nil {
		h.Kill()
	}
	if s := c.ctls[name]; s != nil {
		s.Close()
	}
	delete(c.hosts, name)
	delete(c.ctls, name)
	delete(c.ctlAddrs, name)
}

// RestartNode brings a killed node back with its original
// configuration. A durable node restores its snapshot and replays its
// WAL inside transport.NewHost; reconnect it to its peers (Connect
// dials fresh listeners) and run Recover through its control client to
// finish reconciliation.
func (c *Cluster) RestartNode(name string) error {
	if c.hosts[name] != nil {
		return fmt.Errorf("harness: node %q is still running", name)
	}
	return c.startNode(name)
}

// Identity returns the named node's enclave identity.
func (c *Cluster) Identity(name string) cryptoutil.PublicKey {
	return c.hosts[name].Identity()
}

// Connect has `from` dial `to`'s peer listener and performs mutual
// attestation, blocking until the secure channel is up.
func (c *Cluster) Connect(from, to string) error {
	dst := c.hosts[to]
	if c.hosts[from] == nil || dst == nil {
		return fmt.Errorf("harness: unknown cluster node in %s->%s", from, to)
	}
	cc := c.Client(from)
	if err := cc.DialPeer(dst.ListenAddr()); err != nil {
		return err
	}
	return cc.Attest(to)
}

// FormCommittee forms owner's committee chain from the named member
// nodes (in chain order) with threshold m, dialing and attesting the
// chain links first: the owner talks to every member (attach and
// updates to the first backup) and consecutive members relay down the
// chain. Blocks until the chain is ready for deposits.
func (c *Cluster) FormCommittee(owner string, members []string, m int) error {
	for i, name := range members {
		if err := c.Connect(owner, name); err != nil {
			return err
		}
		if i+1 < len(members) {
			if err := c.Connect(name, members[i+1]); err != nil {
				return err
			}
		}
	}
	_, err := c.Client(owner).Committee(m, members...)
	return err
}

// OpenChannel opens and funds a channel from -> to, returning its id.
// value == 0 skips funding.
func (c *Cluster) OpenChannel(from, to string, value chain.Amount) (string, error) {
	cc := c.Client(from)
	chID, err := cc.OpenChannel(to)
	if err != nil {
		return "", err
	}
	if value > 0 {
		if _, err := cc.Deposit(chID, value); err != nil {
			return "", err
		}
	}
	return string(chID), nil
}

// Balance reads a node's on-chain wallet balance (through the typed
// API).
func (c *Cluster) Balance(name string) chain.Amount {
	bal, _ := c.Client(name).Balance()
	return bal
}

// MineBlocks mines n blocks on the shared chain.
func (c *Cluster) MineBlocks(n int) {
	c.Chain.MineBlocks(n) //nolint:errcheck // LocalChain mining cannot fail
}
