package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/netsim"
	"teechain/internal/sim"
	"teechain/internal/tee"
	"teechain/internal/wire"
)

// TEE outsourcing (§3): a user without a local TEE attests a remote
// enclave, provisions a session key, and drives it like a local one.
// The remote host is untrusted; the enclave only honours commands from
// the provisioned user session, and the user's funds are protected by
// the enclave (plus its committee chain) exactly as a local user's
// would be.

// OutCmd is the operator command envelope an outsourced user sends.
type OutCmd struct {
	Op      string // "pay"
	Channel wire.ChannelID
	Amount  chain.Amount
	Count   int
}

func encodeOutCmd(c OutCmd) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		return nil, fmt.Errorf("core: encoding outsource command: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeOutCmd(data []byte) (OutCmd, error) {
	var c OutCmd
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&c); err != nil {
		return OutCmd{}, fmt.Errorf("core: decoding outsource command: %w", err)
	}
	return c, nil
}

// handleSoftwareAttest admits a TEE-less user as this enclave's
// outsourced operator: no quote to verify, but the session still binds
// the user's long-term key, and exactly one user may attach.
func (e *Enclave) handleSoftwareAttest(from cryptoutil.PublicKey, m *wire.Attest) (*Result, error) {
	if !e.cfg.AllowOutsource {
		return nil, errors.New("core: outsourcing not enabled on this enclave")
	}
	if !e.outsourceUser.IsZero() && e.outsourceUser != from {
		return nil, errors.New("core: enclave already serves another outsourced user")
	}
	if m.Identity != from {
		return nil, errors.New("core: attest identity does not match sender")
	}
	dh, err := cryptoutil.GenerateDHKeyPair(e.platform.Rand())
	if err != nil {
		return nil, err
	}
	s := &peerSession{remote: from, dh: dh}
	e.sessions[from] = s
	// This is the one place an *established* session can be replaced
	// (the user re-attaching after a crash, §3): drop the lookup cache
	// so no caller keeps sealing with the old transport.
	if cached := e.lastSess.Load(); cached != nil && cached.remote == from {
		e.lastSess.Store(nil)
	}
	if err := e.finishSession(s, m.DHPublic); err != nil {
		return nil, err
	}
	e.outsourceUser = from
	quote, err := e.platform.Quote(e.measurement, reportDataFor(e.identity.Public(), dh.PublicBytes()))
	if err != nil {
		return nil, err
	}
	return &Result{Out: oneOut(from, &wire.Attest{
		Quote:    quote,
		Identity: e.identity.Public(),
		DHPublic: dh.PublicBytes(),
		Response: true,
	})}, nil
}

func (e *Enclave) handleOutsourceCmd(from cryptoutil.PublicKey, m *wire.OutsourceCmd) (*Result, error) {
	if from != e.outsourceUser {
		return nil, errors.New("core: outsource command from unauthorised key")
	}
	sess, err := e.session(from)
	if err != nil {
		return nil, err
	}
	raw, err := cryptoutil.OpenDetached(sess.key, m.Payload, []byte("outsource"))
	if err != nil {
		return nil, fmt.Errorf("core: opening outsourced command: %w", err)
	}
	cmd, err := decodeOutCmd(raw)
	if err != nil {
		return nil, err
	}
	switch cmd.Op {
	case "pay":
		res, err := e.Pay(cmd.Channel, cmd.Amount, cmd.Count)
		if err != nil {
			fail := oneOut(from, &wire.OutsourceResult{Seq: m.Seq, OK: false})
			return &Result{Out: fail}, nil
		}
		// Remember the sequence so the eventual PayAck answers the user.
		e.outsourcePending[cmd.Channel] = append(e.outsourcePending[cmd.Channel], m.Seq)
		return res, nil
	default:
		return nil, fmt.Errorf("core: unknown outsourced op %q", cmd.Op)
	}
}

// outsourceAckHook converts a payment acknowledgement into an
// OutsourceResult for the remote user, when one is waiting.
func (e *Enclave) outsourceAckHook(channel wire.ChannelID) []Outbound {
	q := e.outsourcePending[channel]
	if len(q) == 0 {
		return nil
	}
	seq := q[0]
	e.outsourcePending[channel] = q[1:]
	return oneOut(e.outsourceUser, &wire.OutsourceResult{Seq: seq, OK: true})
}

// Client is a TEE-less participant driving a remote enclave (Dave in
// Fig. 1). It holds only a software key pair and a session.
type Client struct {
	ID  netsim.NodeID
	net *netsim.Network
	sim *sim.Simulator
	dir *Directory

	key       *cryptoutil.KeyPair
	dh        *cryptoutil.DHKeyPair
	authority cryptoutil.PublicKey

	remote     cryptoutil.PublicKey
	sessionKey [32]byte
	transport  *cryptoutil.Session
	attached   bool
	rnd        *cryptoutil.DeterministicReader

	seq     uint64
	pending map[uint64]clientPending
}

type clientPending struct {
	done     PayDone
	issuedAt sim.Time
	count    int
}

// NewClient creates a TEE-less participant on the network.
func NewClient(id netsim.NodeID, net *netsim.Network, dir *Directory, authority *tee.Authority) (*Client, error) {
	rnd := cryptoutil.NewDeterministicReader([]byte("client"), []byte(id))
	key, err := cryptoutil.GenerateKeyPair(rnd)
	if err != nil {
		return nil, err
	}
	c := &Client{
		ID:        id,
		net:       net,
		sim:       net.Sim(),
		dir:       dir,
		key:       key,
		authority: authority.PublicKey(),
		rnd:       rnd,
		pending:   make(map[uint64]clientPending),
	}
	net.AddNode(id, c.handleNetMessage, func(payload any) (time.Duration, time.Duration) {
		// The client verifies the remote enclave's quote during attach;
		// everything else is cheap bookkeeping.
		if env, ok := payload.(*Envelope); ok {
			if a, ok := env.Msg.(*wire.Attest); ok && a.Response {
				return CostAttestVerify, 0
			}
		}
		return CostPayBase, 0
	})
	dir.Register(key.Public(), id)
	return c, nil
}

// Identity returns the client's software key.
func (c *Client) Identity() cryptoutil.PublicKey { return c.key.Public() }

// Attach begins attestation of the remote enclave. Run the simulator
// and check Attached.
func (c *Client) Attach(remote *Node) error {
	if c.attached {
		return errors.New("core: already attached")
	}
	dh, err := cryptoutil.GenerateDHKeyPair(c.rnd)
	if err != nil {
		return err
	}
	c.dh = dh
	c.remote = remote.Identity()
	return c.send(remote.ID, nil, &wire.Attest{
		Identity: c.key.Public(),
		DHPublic: dh.PublicBytes(),
		Software: true,
	})
}

// send seals msg the way a host does (Envelope.seal; sess is nil for
// Attest) and hands it to the network.
func (c *Client) send(to netsim.NodeID, sess *cryptoutil.Session, msg wire.Message) error {
	env := &Envelope{From: c.key.Public(), Msg: msg}
	size, err := env.seal(sess)
	if err != nil {
		return err
	}
	return c.net.Send(c.ID, to, env, size)
}

// Attached reports whether the remote enclave session is established.
func (c *Client) Attached() bool { return c.attached }

func (c *Client) handleNetMessage(from netsim.NodeID, payload any) {
	env, ok := payload.(*Envelope)
	if !ok {
		return
	}
	switch m := env.Msg.(type) {
	case *wire.Attest:
		if !m.Response || c.attached || c.dh == nil {
			return
		}
		// The client verifies the REMOTE's quote: this is the step that
		// lets a TEE-less user trust an enclave it does not operate.
		if err := tee.VerifyQuote(c.authority, m.Quote, tee.MeasurementOf(ProgramName)); err != nil {
			return
		}
		if m.Quote.ReportData != reportDataFor(m.Identity, m.DHPublic) {
			return
		}
		key, err := c.dh.SharedKey(m.DHPublic, c.key.Public(), m.Identity)
		if err != nil {
			return
		}
		transport, err := cryptoutil.NewSession(key)
		if err != nil {
			return
		}
		c.sessionKey = key
		c.transport = transport
		c.attached = true
	case *wire.OutsourceResult:
		p, ok := c.pending[m.Seq]
		if !ok {
			return
		}
		delete(c.pending, m.Seq)
		if p.done != nil {
			p.done(m.OK, c.sim.Now().Sub(p.issuedAt), "")
		}
	}
}

// Pay instructs the remote enclave to pay over channel; done fires when
// the remote acknowledgement arrives back at the client.
func (c *Client) Pay(channel wire.ChannelID, amount chain.Amount, count int, done PayDone) error {
	if !c.attached {
		return errors.New("core: not attached to a remote enclave")
	}
	raw, err := encodeOutCmd(OutCmd{Op: "pay", Channel: channel, Amount: amount, Count: count})
	if err != nil {
		return err
	}
	sealed, err := cryptoutil.SealDetached(c.sessionKey, c.rnd, raw, []byte("outsource"))
	if err != nil {
		return err
	}
	c.seq++
	seq := c.seq
	c.pending[seq] = clientPending{done: done, issuedAt: c.sim.Now(), count: count}
	remoteNode, ok := c.dir.NodeOf(c.remote)
	if !ok {
		return errors.New("core: remote enclave not in directory")
	}
	return c.send(remoteNode, c.transport, &wire.OutsourceCmd{Seq: seq, Payload: sealed})
}
