package core

import (
	"errors"
	"fmt"
	"time"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/netsim"
	"teechain/internal/route"
	"teechain/internal/sim"
	"teechain/internal/tee"
	"teechain/internal/wire"
)

// Directory is the out-of-band identity exchange the paper assumes:
// it maps enclave identity keys to network locations and carries payout
// keys. All hosts in a deployment share one.
type Directory struct {
	byIdentity map[cryptoutil.PublicKey]netsim.NodeID
	// pools is the deployment-wide hot-path object pool: the directory
	// is the one structure every node of a deployment shares.
	pools *hotPools
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{
		byIdentity: make(map[cryptoutil.PublicKey]netsim.NodeID),
		pools:      newHotPools(),
	}
}

// Register binds an identity to a network node.
func (d *Directory) Register(id cryptoutil.PublicKey, node netsim.NodeID) {
	d.byIdentity[id] = node
}

// NodeOf resolves an identity to its network node.
func (d *Directory) NodeOf(id cryptoutil.PublicKey) (netsim.NodeID, bool) {
	n, ok := d.byIdentity[id]
	return n, ok
}

// Envelope is the unit the host transports: a protocol message, its
// encoded payload and the session freshness token the sending enclave
// bound to it. Code and Payload are the frame body the socket host would
// write for Msg; the receiver verifies the token against them.
type Envelope struct {
	From    cryptoutil.PublicKey
	Msg     wire.Message
	Token   []byte
	Code    byte
	Payload []byte

	// pooled marks envelopes obtained from getEnvelope. Only those are
	// recycled on release: hosts send each pooled envelope exactly once,
	// while externally constructed envelopes (tests model replay attacks
	// by delivering one envelope twice) are left to the garbage
	// collector, so a duplicate delivery can never alias a recycled one.
	pooled bool
}

// seal does for Msg what the socket host does before it writes a frame
// (transport.Host.sendLocked): it encodes the payload into Payload and,
// given the peer session, seals into Token a freshness token bound to
// the frame's type code and payload (Attest travels without one). It
// returns the frame's length, which is what the simulated network
// charges, or the error on which the socket host would drop the frame.
func (env *Envelope) seal(sess *cryptoutil.Session) (int, error) {
	payload, code, _, err := wire.EncodePayload(env.Payload[:0], env.Msg)
	if err != nil {
		return 0, err
	}
	env.Code, env.Payload = code, payload
	env.Token = env.Token[:0]
	if sess != nil {
		env.Token = sess.SealAppendBound(env.Token, code, payload)
	}
	return wire.FrameLen(len(env.Token), len(payload))
}

// NodeConfig bundles host-level policy.
type NodeConfig struct {
	Enclave Config
	// StableStorage selects the §6.2 crash-fault persistence mode's cost
	// model: every state-changing message, and every outgoing payment,
	// pays one monotonic counter increment (CostModel, sendPay). The
	// simulator models the mode's timing only; the socket host's WAL
	// (transport.Config.DataDir) is its implementation.
	StableStorage bool
	// BatchWindow, when positive, enables client-side payment batching
	// with that flush interval (§7.2 uses 100 ms).
	BatchWindow time.Duration
	// MaxRetries bounds the retries of PayRetry and of a multi-hop
	// payment (0 = no retries); route.Paper paces them.
	MaxRetries int
	// Seed differentiates per-node randomness.
	Seed uint64
}

// PayDone reports the fate of a payment to its issuer.
type PayDone func(ok bool, latency time.Duration, reason string)

// batchEntry tracks one logical payment inside a batch with its issue
// time, so acknowledgement latency covers the batching wait the user
// actually experienced.
type batchEntry struct {
	done     PayDone
	issuedAt sim.Time
}

type pendingBatch struct {
	amount  chain.Amount
	count   int
	entries []batchEntry
	timer   *sim.Event
}

type inflightBatch struct {
	count   int
	entries []batchEntry
	sentAt  sim.Time
}

// chanRuntime is the host's per-channel bookkeeping, merged into one
// record so the payment path pays one map lookup instead of three. The
// in-flight queue pops from head and compacts when drained, keeping one
// backing array per channel in steady state.
type chanRuntime struct {
	batch    *pendingBatch
	inflight []*inflightBatch
	head     int
}

// peerRoute caches what the host needs per attested peer: its network
// endpoint (dense netsim handle) and, once established, the transport
// session used to seal freshness tokens. One identity-key map lookup
// replaces the directory, endpoint, and session lookups per message.
type peerRoute struct {
	ep   *netsim.Endpoint
	sess *peerSession
}

type mhAttempt struct {
	id     wire.PaymentID
	amount chain.Amount
	count  int
	paths  [][]cryptoutil.PublicKey
	// fees, when non-nil, aligns with paths: the forwarding fee
	// schedule to attach when launching over the matching path.
	fees    [][]chain.Amount
	retry   route.Retry
	done    func(ok bool, latency time.Duration, reason string, path int)
	started sim.Time
}

// Node is the untrusted Teechain host: it owns the network endpoint,
// the blockchain client, the wallet, batching, retries, and reacts to
// enclave events. One node hosts one enclave.
type Node struct {
	ID      netsim.NodeID
	enclave *Enclave

	net   *netsim.Network
	ep    *netsim.Endpoint
	sim   *sim.Simulator
	chain *chain.Chain
	dir   *Directory
	cfg   NodeConfig
	rnd   *sim.Rand

	wallet *cryptoutil.KeyPair // host payout/wallet key (cold storage)

	// deposit bookkeeping outside the enclave
	depositScripts  map[chain.OutPoint]chain.Script
	pendingDeposits []pendingDeposit                  // wallet-funded, awaiting confirmations
	watched         map[chain.OutPoint]wire.PaymentID // τ inputs under watch
	// watchedDeposits tracks deposits associated with our channels so
	// counterparty settlements are detected on chain.
	watchedDeposits map[chain.OutPoint]wire.ChannelID

	// payment tracking
	chans map[wire.ChannelID]*chanRuntime
	mh    map[wire.PaymentID]*mhAttempt
	mhSeq uint64

	// peers caches routing and session state per attested identity.
	peers map[cryptoutil.PublicKey]*peerRoute
	// pools is the deployment-shared hot-path object pool (dir.pools).
	pools *hotPools
	// lastRoute/lastCr are one-entry lookup caches for the payment path
	// (see State.lastCh); neither map's entries are ever replaced.
	lastRoute *peerRoute
	lastTo    cryptoutil.PublicKey
	lastCr    *chanRuntime
	lastCrID  wire.ChannelID
	// costFn is the node's message cost model, resolved once.
	costFn func(payload any) (cpu, delay time.Duration)
	// freeBatches and freePending recycle payment batch records; the
	// node's deployment runs on one goroutine, so plain freelists work.
	freeBatches []*inflightBatch
	freePending []*pendingBatch
	// replBatch is the pooled frame the next replication flush fills;
	// it leaves with the envelope once sent.
	replBatch *wire.ReplBatch

	// temporary channel setup and merge bookkeeping (§5.2)
	tempSetup     []tempSetup
	tempAssoc     []tempSetup
	pendingMerges []wire.ChannelID

	onEvent func(Event)

	// Metrics
	PaymentsSent     uint64
	PaymentsAcked    uint64
	PaymentsReceived uint64
	MultihopsOK      uint64
	MultihopsFailed  uint64
	// Dropped counts outbound messages that never left the host: no
	// route or session, an encoding the socket host could not frame
	// either, or a partitioned link.
	Dropped uint64
}

// NewNode creates a host plus its enclave, attaches it to the network,
// and registers it in the directory.
func NewNode(id netsim.NodeID, net *netsim.Network, bc *chain.Chain, dir *Directory, authority *tee.Authority, cfg NodeConfig) (*Node, error) {
	platform := tee.NewPlatform(authority, string(id))
	wallet, err := cryptoutil.GenerateKeyPair(cryptoutil.NewDeterministicReader([]byte("wallet"), []byte(id)))
	if err != nil {
		return nil, err
	}
	encCfg := cfg.Enclave
	encCfg.PayoutKey = wallet.Public()
	enclave, err := NewEnclave(platform, authority.PublicKey(), encCfg)
	if err != nil {
		return nil, err
	}
	n := &Node{
		ID:              id,
		enclave:         enclave,
		net:             net,
		sim:             net.Sim(),
		chain:           bc,
		dir:             dir,
		cfg:             cfg,
		rnd:             sim.NewRand(cfg.Seed ^ 0x7ee), // per-node stream
		wallet:          wallet,
		depositScripts:  make(map[chain.OutPoint]chain.Script),
		watched:         make(map[chain.OutPoint]wire.PaymentID),
		watchedDeposits: make(map[chain.OutPoint]wire.ChannelID),
		chans:           make(map[wire.ChannelID]*chanRuntime),
		mh:              make(map[wire.PaymentID]*mhAttempt),
		peers:           make(map[cryptoutil.PublicKey]*peerRoute),
		pools:           dir.pools,
		costFn:          CostModel(cfg.StableStorage),
	}
	enclave.pools = dir.pools
	n.ep = net.AddNode(id, n.handleNetMessage, n.messageCost)
	n.ep.OnHeal(n.flushRepl)
	dir.Register(enclave.Identity(), id)
	bc.OnBlock(n.onBlock)
	return n, nil
}

// chargeLocal runs fn after occupying the node's processor for cost,
// modelling enclave work triggered by local operator commands (e.g. the
// monotonic counter increment that guards every state change in
// stable-storage mode, §6.2).
func (n *Node) chargeLocal(cost time.Duration, fn func()) {
	n.ep.Processor().Do(cost, fn)
}

// Enclave exposes the node's enclave (the trusted component).
func (n *Node) Enclave() *Enclave { return n.enclave }

// Identity returns the enclave identity this node hosts.
func (n *Node) Identity() cryptoutil.PublicKey { return n.enclave.Identity() }

// WalletKey returns the host's cold payout key.
func (n *Node) WalletKey() cryptoutil.PublicKey { return n.wallet.Public() }

// OnEvent installs a user event callback (called after built-in
// handling).
func (n *Node) OnEvent(fn func(Event)) { n.onEvent = fn }

func (n *Node) messageCost(payload any) (time.Duration, time.Duration) {
	env, ok := payload.(*Envelope)
	if !ok {
		return CostPayBase, 0
	}
	return n.costFn(env.Msg)
}

// Dispatch sends an enclave result's outbound messages and surfaces its
// events. The Node convenience methods call it internally; it is
// exported for advanced flows that drive the enclave directly (e.g.
// committee failover, where a member settles a crashed owner's
// channels).
func (n *Node) Dispatch(res *Result) { n.dispatch(res) }

// dispatch sends an enclave result's outbound messages, drains the
// replication log behind them and surfaces the result's events. Pooled
// results recycle once consumed.
func (n *Node) dispatch(res *Result) {
	if res != nil {
		for i := range res.Out {
			if !n.send(res.Out[i]) {
				n.pools.recycleMsg(res.Out[i].Msg)
			}
		}
	}
	n.flushRepl()
	if res == nil {
		return
	}
	if res.pay.kind != PayNone {
		n.handlePayEvent(res.pay)
	}
	for _, ev := range res.Events {
		n.handleEvent(ev)
	}
	n.pools.putResult(res)
}

// handlePayEvent is handleEvent for the unboxed payment events; the
// boxed form is built only when a user callback wants it.
func (n *Node) handlePayEvent(p payEvent) {
	switch p.kind {
	case PayAcked:
		n.completeBatch(p.channel, true, "")
	case PayNacked:
		n.completeBatch(p.channel, false, p.reason)
	case PayReceived:
		// metrics only; hookIncoming counted it
	}
	if n.onEvent != nil {
		n.onEvent(p.box())
	}
}

// route returns the cached peer route for an identity, resolving the
// directory and endpoint on first use.
func (n *Node) route(to cryptoutil.PublicKey) *peerRoute {
	if pr := n.lastRoute; pr != nil && n.lastTo == to {
		return pr
	}
	if pr, ok := n.peers[to]; ok {
		n.lastRoute, n.lastTo = pr, to
		return pr
	}
	node, ok := n.dir.NodeOf(to)
	if !ok {
		return nil
	}
	ep := n.net.Endpoint(node)
	if ep == nil {
		return nil
	}
	pr := &peerRoute{ep: ep}
	n.peers[to] = pr
	return pr
}

// flushRepl hands every flushable op of the enclave's replication log
// to the network as the socket host's flusher does, but one op per
// frame: a payment op leaves as a one-op ReplBatch, a cold op as a solo
// ReplUpdate, so a backup acknowledges and releases one entry at a time
// — the chain Table 1's committee rows are calibrated on.
// Retransmissions a mirror's NACK scheduled go first. A frame the
// network refuses is rewound and re-offered by the next dispatch, or
// when a partitioned link of this node heals.
func (n *Node) flushRepl() {
	for {
		if n.replBatch == nil {
			n.replBatch = n.pools.getReplBatchMsg()
		}
		to, msg, k := n.enclave.ReplNextFlush(n.replBatch, 1, replMaxPending)
		if k == 0 {
			return
		}
		if msg == wire.Message(n.replBatch) {
			n.replBatch = nil // it travels with the envelope now
		}
		if !n.send(Outbound{To: to, Msg: msg}) {
			n.enclave.ReplRewind(msg, k)
			n.pools.recycleMsg(msg)
			return
		}
	}
}

// send seals out and hands it to the network. It reports false when
// the message never left — no route, no session, an unencodable message
// or a partitioned link — counting it in Dropped; the message is then
// still the caller's.
func (n *Node) send(out Outbound) bool {
	pr := n.route(out.To)
	if pr == nil {
		n.drop(out.Msg, "no route to identity %s", out.To)
		return false
	}
	var sess *cryptoutil.Session
	if _, isAttest := out.Msg.(*wire.Attest); !isAttest {
		if pr.sess == nil {
			// Sessions are never replaced once established, so the
			// route may cache the transport for the peer's lifetime.
			if pr.sess = n.enclave.establishedSession(out.To); pr.sess == nil {
				n.drop(out.Msg, "no established session with %s", out.To)
				return false
			}
		}
		sess = pr.sess.transport
	}
	env := n.pools.getEnvelope()
	env.From = n.enclave.Identity()
	env.Msg = out.Msg
	size, err := env.seal(sess)
	if err == nil {
		err = n.net.SendEp(n.ep, pr.ep, env, size)
	}
	if err != nil {
		// The message was never handed to the network, so the envelope
		// is still exclusively ours to recycle — a partition retry
		// storm stays allocation-free.
		n.drop(out.Msg, "sending to %s: %v", pr.ep.ID(), err)
		env.Msg = nil
		n.pools.putEnvelope(env)
		return false
	}
	return true
}

// drop counts and logs a message that never left this host.
func (n *Node) drop(msg wire.Message, format string, args ...any) {
	n.Dropped++
	n.logf("dropping %T: "+format, append([]any{msg}, args...)...)
}

func (n *Node) handleNetMessage(from netsim.NodeID, payload any) {
	env, ok := payload.(*Envelope)
	if !ok {
		n.logf("dropping non-envelope payload %T", payload)
		return
	}
	if _, isAttest := env.Msg.(*wire.Attest); isAttest {
		// An inbound attest may replace the peer's session (outsourced
		// user re-attaching, §3); drop the cached transport so tokens
		// are sealed with whatever session the enclave ends up with.
		if pr, ok := n.peers[env.From]; ok {
			pr.sess = nil
		}
	}
	res, err := n.enclave.HandleSealedBound(env.From, env.Token, env.Code, env.Payload, env.Msg)
	if err != nil {
		n.logf("dropping %T from %s: %v", env.Msg, from, err)
		n.pools.putEnvelope(env)
		return
	}
	n.hookIncoming(env.Msg)
	n.dispatch(res)
	n.pools.putEnvelope(env)
}

// hookIncoming updates host bookkeeping keyed off specific messages:
// payment metrics, and blockchain watches on τ inputs once τ is known
// (so premature settlements by other path members trigger PoPT
// ejection, §5.1).
func (n *Node) hookIncoming(msg wire.Message) {
	switch m := msg.(type) {
	case *wire.Pay:
		n.PaymentsReceived += uint64(m.Count)
	case *wire.MhLock:
		n.watchTau(m.Payment)
	case *wire.MhSign:
		n.watchTau(m.Payment)
	case *wire.MhPreUpdate:
		n.watchTau(m.Payment)
	}
}

// Logf, when set, receives host diagnostics (dropped messages, rejected
// settlements). The demo binaries and debugging tests install printers;
// production hosts would wire a real logger.
var Logf func(node netsim.NodeID, format string, args ...any)

func (n *Node) logf(format string, args ...any) {
	if Logf != nil {
		Logf(n.ID, format, args...)
	}
}

// --- Built-in event reactions ---

func (n *Node) handleEvent(ev Event) {
	switch e := ev.(type) {
	case EvChannelRequest:
		// Auto-accept inbound channels with our wallet as settlement
		// target.
		res, err := n.enclave.AcceptChannel(e.Channel, e.Remote, e.RemoteAddr, n.wallet.Address(), false)
		if err != nil {
			n.logf("accepting channel %s: %v", e.Channel, err)
			break
		}
		n.dispatch(res)
	case EvChannelOpen:
		// runtime state is created lazily on first payment
	case EvDepositApprovalNeeded:
		// Verify the deposit on the blockchain per local policy (§4.1).
		conf := n.chain.Confirmations(e.Deposit.Point.Tx)
		res, err := n.enclave.ConfirmRemoteDeposit(e.Remote, e.Deposit, conf)
		if err != nil {
			n.logf("deposit approval %s: %v", e.Deposit.Point, err)
			break
		}
		n.dispatch(res)
	case EvDepositAssociated:
		n.watchedDeposits[e.Point] = e.Channel
	case EvDepositDissociated:
		delete(n.watchedDeposits, e.Point)
	case EvPayAcked:
		n.completeBatch(e.Channel, true, "")
	case EvPayNacked:
		n.completeBatch(e.Channel, false, e.Reason)
	case EvPaymentReceived:
		// metrics only; hookIncoming counted it
	case EvMultihopComplete:
		n.finishMultihop(e)
	case EvMultihopArrived:
		n.PaymentsReceived += uint64(e.Count)
	case EvSettlementReady:
		if e.Tx != nil {
			n.completeAndSubmit(e.Tx, e.Needs)
		}
	case EvSigComplete:
		if _, err := n.chain.Submit(e.Tx); err != nil {
			n.logf("submitting completed settlement: %v", err)
		}
	case EvFrozen:
		// The host of a frozen chain settles everything it can.
		n.logf("chain %s frozen: %s", e.Chain, e.Reason)
	}
	if n.onEvent != nil {
		n.onEvent(ev)
	}
}

// completeAndSubmit drives committee signature collection for a
// settlement and submits when satisfied.
func (n *Node) completeAndSubmit(tx *chain.Transaction, needs []SigNeed) {
	if len(needs) == 0 {
		if _, err := n.chain.Submit(tx); err != nil {
			n.logf("submitting settlement: %v", err)
		}
		return
	}
	res, err := n.enclave.CollectSignatures(tx, n.enclave.DepsForTx(tx), needs)
	if err != nil {
		n.logf("collecting signatures: %v", err)
		return
	}
	n.dispatch(res)
}

// --- Setup operations ---

// Connect performs mutual attestation with a peer node and exchanges
// payout keys (identities are in the shared directory, i.e. exchanged
// out of band). Completion is asynchronous; run the simulator and check
// Connected.
func (n *Node) Connect(peer *Node) error {
	res, err := n.enclave.StartAttest(peer.Identity())
	if err != nil {
		return err
	}
	r1, err := n.enclave.RegisterPayoutKey(peer.WalletKey())
	if err != nil {
		return err
	}
	r2, err := peer.enclave.RegisterPayoutKey(n.WalletKey())
	if err != nil {
		return err
	}
	peer.dispatch(r2)
	n.dispatch(res.merge(r1))
	return nil
}

// Connected reports whether the secure channel with peer is up.
func (n *Node) Connected(peer *Node) bool {
	return n.enclave.SessionEstablished(peer.Identity())
}

// FormCommittee configures this node's committee chain (§6) with the
// given member nodes and threshold m (of len(members)+1).
func (n *Node) FormCommittee(members []*Node, m int) error {
	ids := make([]cryptoutil.PublicKey, len(members))
	for i, mem := range members {
		ids[i] = mem.Identity()
	}
	res, err := n.enclave.FormCommittee(ids, m)
	if err != nil {
		return err
	}
	n.dispatch(res)
	return nil
}

// CreateDepositInstant funds a deposit directly via the chain faucet
// and registers it immediately — the setup shortcut used by benchmarks
// (deposits are created "in advance", §4). CreateDeposit is the full
// asynchronous path.
func (n *Node) CreateDepositInstant(value chain.Amount) (chain.OutPoint, error) {
	script, err := n.enclave.NewDepositScript()
	if err != nil {
		return chain.OutPoint{}, err
	}
	point, err := n.chain.Fund(script, value)
	if err != nil {
		return chain.OutPoint{}, err
	}
	n.depositScripts[point] = script
	info := n.enclave.DepositInfoFor(point, value, script)
	res, err := n.enclave.RegisterDeposit(info)
	if err != nil {
		return chain.OutPoint{}, err
	}
	n.dispatch(res)
	return point, nil
}

// CreateDeposit funds a deposit from the host wallet with a real
// blockchain transaction and registers it once it has confirmations
// confirmations. The returned outpoint identifies the future deposit;
// registration happens asynchronously as blocks arrive.
func (n *Node) CreateDeposit(walletUTXO chain.OutPoint, value chain.Amount, confirmations uint64) (chain.OutPoint, error) {
	prev, ok := n.chain.UTXO(walletUTXO)
	if !ok {
		return chain.OutPoint{}, fmt.Errorf("core: wallet utxo %s unknown", walletUTXO)
	}
	if prev.Value < value {
		return chain.OutPoint{}, fmt.Errorf("core: wallet utxo %d below deposit value %d", prev.Value, value)
	}
	script, err := n.enclave.NewDepositScript()
	if err != nil {
		return chain.OutPoint{}, err
	}
	tx := &chain.Transaction{
		Inputs:  []chain.TxIn{{Prev: walletUTXO}},
		Outputs: []chain.TxOut{{Value: value, Script: script}},
	}
	if change := prev.Value - value; change > 0 {
		tx.Outputs = append(tx.Outputs, chain.TxOut{Value: change, Script: chain.PayToKey(n.wallet.Public())})
	}
	if err := tx.SignInput(0, prev.Script, n.wallet); err != nil {
		return chain.OutPoint{}, err
	}
	txid, err := n.chain.Submit(tx)
	if err != nil {
		return chain.OutPoint{}, err
	}
	point := chain.OutPoint{Tx: txid, Index: 0}
	n.depositScripts[point] = script
	// Register once buried deeply enough; the chain watcher below
	// triggers on each block.
	n.pendingDeposits = append(n.pendingDeposits, pendingDeposit{
		point: point, value: value, script: script, confirmations: confirmations,
	})
	return point, nil
}

type pendingDeposit struct {
	point         chain.OutPoint
	value         chain.Amount
	script        chain.Script
	confirmations uint64
}

// ApproveDeposit runs the approval handshake for one of our deposits
// with a channel peer.
func (n *Node) ApproveDeposit(peer *Node, point chain.OutPoint) error {
	res, err := n.enclave.RequestDepositApproval(peer.Identity(), point)
	if err != nil {
		return err
	}
	n.dispatch(res)
	return nil
}

// OpenChannel initiates a payment channel with peer and returns its ID.
func (n *Node) OpenChannel(peer *Node) (wire.ChannelID, error) {
	id := n.newChannelID(peer)
	res, err := n.enclave.OpenChannel(id, peer.Identity(), n.wallet.Address(), false)
	if err != nil {
		return "", err
	}
	n.dispatch(res)
	return id, nil
}

func (n *Node) newChannelID(peer *Node) wire.ChannelID {
	n.mhSeq++
	sum := cryptoutil.Hash256([]byte(n.ID), []byte(peer.ID), []byte(fmt.Sprint(n.mhSeq)))
	return wire.ChannelID(fmt.Sprintf("ch-%x", sum[:8]))
}

// AssociateDeposit binds an approved deposit to a channel.
func (n *Node) AssociateDeposit(channel wire.ChannelID, point chain.OutPoint) error {
	res, err := n.enclave.AssociateDeposit(channel, point)
	if err != nil {
		return err
	}
	n.dispatch(res)
	return nil
}

// DissociateDeposit removes a deposit from a channel.
func (n *Node) DissociateDeposit(channel wire.ChannelID, point chain.OutPoint) error {
	res, err := n.enclave.DissociateDeposit(channel, point)
	if err != nil {
		return err
	}
	n.dispatch(res)
	return nil
}

// --- Payments ---

// chanRt returns (creating on first use) the per-channel runtime
// record.
func (n *Node) chanRt(channel wire.ChannelID) *chanRuntime {
	if cr := n.lastCr; cr != nil && n.lastCrID == channel {
		return cr
	}
	cr := n.chans[channel]
	if cr == nil {
		cr = &chanRuntime{}
		n.chans[channel] = cr
	}
	n.lastCr, n.lastCrID = cr, channel
	return cr
}

func (n *Node) getBatch() *inflightBatch {
	if k := len(n.freeBatches); k > 0 {
		b := n.freeBatches[k-1]
		n.freeBatches = n.freeBatches[:k-1]
		return b
	}
	return &inflightBatch{}
}

func (n *Node) putBatch(b *inflightBatch) {
	for i := range b.entries {
		b.entries[i] = batchEntry{}
	}
	b.entries = b.entries[:0]
	b.count = 0
	n.freeBatches = append(n.freeBatches, b)
}

func (n *Node) failBatch(b *inflightBatch, reason string) {
	for i := range b.entries {
		if e := b.entries[i]; e.done != nil {
			e.done(false, 0, reason)
		}
	}
	n.putBatch(b)
}

// Pay sends amount over channel; done (optional) fires on remote
// acknowledgement. With batching enabled the payment may share a
// message with others in the same window.
func (n *Node) Pay(channel wire.ChannelID, amount chain.Amount, done PayDone) error {
	n.PaymentsSent++
	cr := n.chanRt(channel)
	if n.cfg.BatchWindow <= 0 {
		b := n.getBatch()
		b.count = 1
		b.entries = append(b.entries, batchEntry{done: done, issuedAt: n.sim.Now()})
		err := n.sendPay(channel, cr, amount, b)
		if err != nil {
			n.putBatch(b)
		}
		return err
	}
	pb := cr.batch
	if pb == nil {
		if k := len(n.freePending); k > 0 {
			pb = n.freePending[k-1]
			n.freePending = n.freePending[:k-1]
		} else {
			pb = &pendingBatch{}
		}
		cr.batch = pb
		pb.timer = n.sim.Schedule(n.cfg.BatchWindow, func() { n.flushBatch(channel) })
	}
	pb.amount += amount
	pb.count++
	pb.entries = append(pb.entries, batchEntry{done: done, issuedAt: n.sim.Now()})
	return nil
}

func (n *Node) flushBatch(channel wire.ChannelID) {
	cr := n.chanRt(channel)
	if cr.batch == nil {
		return
	}
	pb := cr.batch
	cr.batch = nil
	if pb.count > 0 {
		b := n.getBatch()
		b.count = pb.count
		// Hand the accumulated entries to the in-flight batch and take
		// its (cleared) backing array for the next window.
		b.entries, pb.entries = pb.entries, b.entries
		if err := n.sendPay(channel, cr, pb.amount, b); err != nil {
			n.failBatch(b, err.Error())
		}
	}
	pb.amount, pb.count, pb.timer = 0, 0, nil
	n.freePending = append(n.freePending, pb)
}

func (n *Node) sendPay(channel wire.ChannelID, cr *chanRuntime, amount chain.Amount, b *inflightBatch) error {
	if !n.cfg.StableStorage {
		return n.doSendPay(channel, cr, amount, b)
	}
	// Stable storage pays for sealing state under a monotonic counter
	// before the payment leaves the enclave.
	n.chargeLocal(tee.CounterIncrementLatency, func() {
		if err := n.doSendPay(channel, cr, amount, b); err != nil {
			n.failBatch(b, err.Error())
		}
	})
	return nil
}

func (n *Node) doSendPay(channel wire.ChannelID, cr *chanRuntime, amount chain.Amount, b *inflightBatch) error {
	res, err := n.enclave.Pay(channel, amount, b.count)
	if err != nil {
		return err
	}
	b.sentAt = n.sim.Now()
	cr.inflight = append(cr.inflight, b)
	n.dispatch(res)
	return nil
}

// completeBatch resolves the oldest in-flight batch on a channel with
// the remote's verdict: acknowledgements and nacks arrive in issue
// order per channel (the enclave orders both behind replication).
func (n *Node) completeBatch(channel wire.ChannelID, ok bool, reason string) {
	cr := n.chanRt(channel)
	if cr.head >= len(cr.inflight) {
		return
	}
	b := cr.inflight[cr.head]
	cr.inflight[cr.head] = nil
	cr.head++
	if cr.head == len(cr.inflight) {
		cr.inflight = cr.inflight[:0]
		cr.head = 0
	} else if cr.head >= 32 && cr.head*2 >= len(cr.inflight) {
		// Compact once the dead prefix dominates, so a queue that
		// never fully drains (sustained windowed load) stays O(window)
		// rather than growing one slot per batch ever sent.
		live := copy(cr.inflight, cr.inflight[cr.head:])
		for i := live; i < len(cr.inflight); i++ {
			cr.inflight[i] = nil
		}
		cr.inflight = cr.inflight[:live]
		cr.head = 0
	}
	now := n.sim.Now()
	if ok {
		n.PaymentsAcked += uint64(b.count)
	}
	for i := range b.entries {
		if e := b.entries[i]; e.done != nil {
			e.done(ok, now.Sub(e.issuedAt), reason)
		}
	}
	n.putBatch(b)
}

// PayRetry is Pay with the §7.4 retry discipline: local failures and
// remote nacks (channel locked by a crossing multi-hop payment) retry
// after a route.Paper backoff, up to MaxRetries. Every failure is
// retried: a direct payment has no path to change.
func (n *Node) PayRetry(channel wire.ChannelID, amount chain.Amount, done PayDone) {
	start, r := n.sim.Now(), route.Retry{Policy: route.Paper}
	var attempt func()
	settle := func(ok bool, _ time.Duration, reason string) {
		if ok || r.Tries >= n.cfg.MaxRetries {
			if done != nil {
				done(ok, n.sim.Now().Sub(start), reason)
			}
			return
		}
		wait, _ := r.Failed(true, 1, n.rnd.Int63n)
		n.sim.Schedule(wait, attempt)
	}
	attempt = func() {
		if err := n.Pay(channel, amount, settle); err != nil {
			settle(false, 0, err.Error())
		}
	}
	attempt()
}

// PayMultihop routes amount along one of the given identity paths
// (primary first); transient aborts retry under route.Paper, advancing
// to alternate paths round-robin (dynamic routing, §7.4).
func (n *Node) PayMultihop(paths [][]cryptoutil.PublicKey, amount chain.Amount, count int, done PayDone) error {
	return n.PayMultihopFees(paths, nil, amount, count, done)
}

// PayMultihopFees is PayMultihop with per-path forwarding fee
// schedules: fees, when non-nil, aligns with paths and each schedule
// aligns with its path (route.Route supplies both halves).
func (n *Node) PayMultihopFees(paths [][]cryptoutil.PublicKey, fees [][]chain.Amount, amount chain.Amount, count int, done PayDone) error {
	return n.startMultihop(paths, fees, amount, count, func(ok bool, latency time.Duration, reason string, _ int) {
		if done != nil {
			done(ok, latency, reason)
		}
	})
}

// PayMultihopPath is PayMultihop whose done also receives the index
// into paths of the path the last attempt took: on success, the path
// that carried the payment, which is not the primary once a retry
// rotated to an alternate.
func (n *Node) PayMultihopPath(paths [][]cryptoutil.PublicKey, amount chain.Amount, count int, done func(ok bool, latency time.Duration, reason string, path int)) error {
	return n.startMultihop(paths, nil, amount, count, done)
}

func (n *Node) startMultihop(paths [][]cryptoutil.PublicKey, fees [][]chain.Amount, amount chain.Amount, count int, done func(ok bool, latency time.Duration, reason string, path int)) error {
	if len(paths) == 0 {
		return errors.New("core: no paths supplied")
	}
	if fees != nil && len(fees) != len(paths) {
		return fmt.Errorf("core: %d fee schedules for %d paths", len(fees), len(paths))
	}
	n.mhSeq++
	n.PaymentsSent += uint64(count)
	n.launchMultihop(&mhAttempt{paths: paths, fees: fees, amount: amount, count: count, done: done, retry: route.Retry{Policy: route.Paper}, started: n.sim.Now()})
	return nil
}

func (n *Node) launchMultihop(att *mhAttempt) {
	n.mhSeq++
	att.id = wire.PaymentID(fmt.Sprintf("mh-%s-%d", n.ID, n.mhSeq))
	var fees []chain.Amount
	if att.fees != nil {
		fees = att.fees[att.retry.Path]
	}
	res, err := n.enclave.PayMultihopFees(att.id, att.amount, att.count, att.paths[att.retry.Path], fees)
	if err != nil {
		// Local failure: our own channel busy or short of funds is
		// transient, like a remote busy hop.
		n.retryMultihop(att, err.Error(), errors.Is(err, ErrChannelLocked))
		return
	}
	n.mh[att.id] = att
	n.watchTau(att.id)
	n.dispatch(res)
}

func (n *Node) finishMultihop(e EvMultihopComplete) {
	att, ok := n.mh[e.Payment]
	if !ok {
		return
	}
	if e.OK {
		delete(n.mh, e.Payment)
		n.unwatch(e.Payment)
		n.MultihopsOK++
		n.PaymentsAcked += uint64(att.count)
		att.done(true, n.sim.Now().Sub(att.started), "", att.retry.Path)
		return
	}
	delete(n.mh, e.Payment)
	n.retryMultihop(att, e.Reason, e.Transient)
}

// retryMultihop schedules the next attempt of a failed multi-hop
// payment as route.Paper says, or reports the failure once the abort
// is not transient or MaxRetries is spent.
func (n *Node) retryMultihop(att *mhAttempt, reason string, transient bool) {
	if att.retry.Tries < n.cfg.MaxRetries {
		if wait, ok := att.retry.Failed(transient, len(att.paths), n.rnd.Int63n); ok {
			n.sim.Schedule(wait, func() { n.launchMultihop(att) })
			return
		}
	}
	n.MultihopsFailed++
	att.done(false, n.sim.Now().Sub(att.started), reason, att.retry.Path)
}

// watchTau registers the τ inputs of an in-flight payment for
// blockchain watching so premature settlements by other participants
// are detected and answered with PoPT ejection.
func (n *Node) watchTau(pid wire.PaymentID) {
	mh, ok := n.enclave.State().Multihop[pid]
	if !ok || mh.Tau == nil {
		return
	}
	for _, in := range mh.Tau.Inputs {
		n.watched[in.Prev] = pid
	}
}

// --- Settlement ---

// Settle terminates a channel; off-chain when neutral, otherwise the
// settlement transaction is completed and submitted automatically.
func (n *Node) Settle(channel wire.ChannelID) (*SettleResult, error) {
	sr, err := n.enclave.Settle(channel)
	if err != nil {
		return nil, err
	}
	n.dispatch(sr.Result)
	return sr, nil
}

// EjectPayment prematurely terminates a multi-hop payment and submits
// the resulting settlements.
func (n *Node) EjectPayment(pid wire.PaymentID) (*SettleResult, error) {
	sr, err := n.enclave.EjectPayment(pid)
	if err != nil {
		return nil, err
	}
	n.dispatch(sr.Result)
	for i, tx := range sr.Txs {
		n.completeAndSubmit(tx, sr.Needs[i])
	}
	return sr, nil
}

// ReleaseDeposit spends a free deposit back to the wallet.
func (n *Node) ReleaseDeposit(point chain.OutPoint) error {
	tx, needs, res, err := n.enclave.ReleaseDeposit(point)
	if err != nil {
		return err
	}
	n.dispatch(res)
	n.completeAndSubmit(tx, needs)
	return nil
}

// onBlock reacts to new blocks: registers matured deposits and detects
// spends of watched τ inputs (PoPT trigger).
func (n *Node) onBlock(b *chain.Block) {
	// Mature wallet-funded deposits.
	if len(n.pendingDeposits) > 0 {
		var keep []pendingDeposit
		for _, pd := range n.pendingDeposits {
			if n.chain.Confirmations(pd.point.Tx) >= pd.confirmations {
				info := n.enclave.DepositInfoFor(pd.point, pd.value, pd.script)
				if res, err := n.enclave.RegisterDeposit(info); err == nil {
					n.dispatch(res)
				} else {
					n.logf("registering matured deposit: %v", err)
				}
				continue
			}
			keep = append(keep, pd)
		}
		n.pendingDeposits = keep
	}
	// Detect premature settlements of in-flight multi-hop payments and
	// counterparty settlements of our channels.
	for _, tx := range b.Txs {
		for _, in := range tx.Inputs {
			if pid, ok := n.watched[in.Prev]; ok {
				delete(n.watched, in.Prev)
				n.reactToSpend(pid, in.Prev, tx)
				continue
			}
			if chID, ok := n.watchedDeposits[in.Prev]; ok {
				delete(n.watchedDeposits, in.Prev)
				n.reactToChannelSpend(chID, in.Prev, tx)
			}
		}
	}
}

// reactToChannelSpend handles an on-chain spend of one of our channel
// deposits: the counterparty (or a τ) settled the channel. The enclave
// closes the channel; if a multi-hop payment was in flight over it, the
// remaining channels eject consistently.
func (n *Node) reactToChannelSpend(chID wire.ChannelID, point chain.OutPoint, tx *chain.Transaction) {
	var pid wire.PaymentID
	if c, ok := n.enclave.State().Channels[chID]; ok {
		pid = c.Payment
	}
	if res, err := n.enclave.ObserveSpent(point, tx); err == nil {
		n.dispatch(res)
	}
	if pid == "" {
		return
	}
	if _, ok := n.enclave.State().Multihop[pid]; !ok {
		return
	}
	sr, err := n.enclave.EjectWithPoPT(pid, tx)
	if err != nil {
		sr, err = n.enclave.EjectPayment(pid)
		if err != nil {
			return
		}
	}
	n.dispatch(sr.Result)
	for i, stx := range sr.Txs {
		n.completeAndSubmit(stx, sr.Needs[i])
	}
}

func (n *Node) reactToSpend(pid wire.PaymentID, point chain.OutPoint, tx *chain.Transaction) {
	// Our own channel's deposit: the enclave observes and closes.
	if res, err := n.enclave.ObserveSpent(point, tx); err == nil {
		n.dispatch(res)
	}
	if _, ok := n.enclave.State().Multihop[pid]; !ok {
		return
	}
	// A foreign channel of an in-flight payment settled prematurely:
	// eject with the observed transaction as PoPT. When the PoPT rules
	// do not apply (our channel was the one settled, or we are still in
	// a stage permitting individual settlement), fall back to voluntary
	// ejection so our remaining channels settle too.
	sr, err := n.enclave.EjectWithPoPT(pid, tx)
	if err != nil {
		sr, err = n.enclave.EjectPayment(pid)
		if err != nil {
			return
		}
	}
	n.dispatch(sr.Result)
	for i, stx := range sr.Txs {
		n.completeAndSubmit(stx, sr.Needs[i])
	}
}

// unwatch clears blockchain watches for a finished payment.
func (n *Node) unwatch(pid wire.PaymentID) {
	for p, id := range n.watched {
		if id == pid {
			delete(n.watched, p)
		}
	}
}
