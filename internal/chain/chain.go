package chain

import (
	"errors"
	"fmt"

	"teechain/internal/cryptoutil"
)

// TxStatus describes where a submitted transaction stands.
type TxStatus int

// Transaction statuses.
const (
	StatusUnknown   TxStatus = iota // never seen
	StatusPending                   // in the mempool
	StatusConfirmed                 // included in a block
	StatusRejected                  // permanently invalid (e.g. conflicted)
)

func (s TxStatus) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusConfirmed:
		return "confirmed"
	case StatusRejected:
		return "rejected"
	default:
		return "unknown"
	}
}

// Block is one mined block.
type Block struct {
	Height uint64
	Txs    []*Transaction
}

// utxoEntry is an unspent output plus the height it was created at
// (needed for relative timelocks).
type utxoEntry struct {
	out    TxOut
	height uint64
}

// spentEntry is one UTXO a block consumed, retained so a reorg can
// restore it.
type spentEntry struct {
	op OutPoint
	e  utxoEntry
}

// blockUndo records what connecting one block changed to the UTXO set,
// enabling disconnection (Reorg).
type blockUndo struct {
	spent   []spentEntry
	created []OutPoint
}

// Chain is the ledger: an ordered list of blocks, the UTXO set they
// imply, and a mempool of submitted-but-unconfirmed transactions.
//
// Writes are asynchronous by construction — Submit only places the
// transaction in the mempool, and inclusion can be delayed arbitrarily
// by the censorship policy. This models the paper's core observation
// that blockchains offer best-effort write latencies.
//
// Chain is not safe for concurrent use; under the discrete-event
// simulator all access is single-threaded, and the TCP demo wraps it in
// its own lock.
type Chain struct {
	blocks  []*Block
	undo    []*blockUndo // parallel to blocks; what each connect changed
	utxo    map[OutPoint]utxoEntry
	mempool []*Transaction
	inPool  map[TxID]bool

	status    map[TxID]TxStatus
	confirmed map[TxID]uint64 // txid -> block height
	rejectLog map[TxID]string

	// censorUntil holds transactions the adversary keeps out of blocks
	// until the given height. This is the delay attack of §1/§2.2.
	censorUntil map[TxID]uint64

	// onBlock subscribers run after each block is connected.
	onBlock []func(*Block)

	minted Amount // total value created via Fund, for conservation checks
	txSeen map[TxID]*Transaction
}

// New returns an empty chain at height 0 with no outputs.
func New() *Chain {
	return &Chain{
		utxo:        make(map[OutPoint]utxoEntry),
		inPool:      make(map[TxID]bool),
		status:      make(map[TxID]TxStatus),
		confirmed:   make(map[TxID]uint64),
		rejectLog:   make(map[TxID]string),
		censorUntil: make(map[TxID]uint64),
		txSeen:      make(map[TxID]*Transaction),
	}
}

// errImmature marks transactions whose relative timelocks have not yet
// matured: they stay in the mempool instead of being rejected.
var errImmature = errors.New("chain: relative timelock not yet mature")

// Height returns the current block height (number of mined blocks).
func (c *Chain) Height() uint64 { return uint64(len(c.blocks)) }

// Fund mints value to a fresh output locked under script, bypassing
// validation (a coinbase). It returns the outpoint holding the funds.
// The output is available immediately; tests and genesis setup use it.
func (c *Chain) Fund(script Script, value Amount) (OutPoint, error) {
	if err := script.Validate(); err != nil {
		return OutPoint{}, err
	}
	if value <= 0 {
		return OutPoint{}, fmt.Errorf("chain: funding value %d must be positive", value)
	}
	tx := &Transaction{
		Outputs: []TxOut{{Value: value, Script: script}},
		// A unique marker input makes every coinbase distinct.
		Inputs: []TxIn{{Prev: OutPoint{Tx: c.nextCoinbaseMark(), Index: ^uint32(0)}}},
	}
	id := tx.ID()
	op := OutPoint{Tx: id, Index: 0}
	c.utxo[op] = utxoEntry{out: tx.Outputs[0], height: c.Height()}
	c.status[id] = StatusConfirmed
	c.confirmed[id] = c.Height()
	c.txSeen[id] = tx
	c.minted += value
	return op, nil
}

// FundKey is shorthand for Fund with a 1-of-1 script.
func (c *Chain) FundKey(key cryptoutil.PublicKey, value Amount) (OutPoint, error) {
	return c.Fund(PayToKey(key), value)
}

func (c *Chain) nextCoinbaseMark() TxID {
	var mark TxID
	sum := cryptoutil.Hash256([]byte("coinbase"), appendUint64(nil, uint64(len(c.txSeen))), appendUint64(nil, uint64(c.minted)))
	copy(mark[:], sum[:])
	return mark
}

// Submit places a transaction in the mempool after stateless checks.
// Stateful validity (inputs unspent, signatures correct) is evaluated at
// mining time, as on a real network. Submitting a transaction that
// conflicts with a pending one is allowed — the conflict resolves when a
// block is mined (first-submitted wins).
func (c *Chain) Submit(tx *Transaction) (TxID, error) {
	id := tx.ID()
	if c.status[id] == StatusConfirmed {
		return id, nil // idempotent re-broadcast
	}
	if c.inPool[id] {
		return id, nil
	}
	if err := c.checkStateless(tx); err != nil {
		c.reject(id, err.Error())
		return id, err
	}
	c.mempool = append(c.mempool, tx)
	c.inPool[id] = true
	c.status[id] = StatusPending
	c.txSeen[id] = tx
	return id, nil
}

func (c *Chain) checkStateless(tx *Transaction) error {
	if len(tx.Inputs) == 0 {
		return errors.New("chain: transaction has no inputs")
	}
	if len(tx.Outputs) == 0 {
		return errors.New("chain: transaction has no outputs")
	}
	seen := make(map[OutPoint]bool, len(tx.Inputs))
	for _, in := range tx.Inputs {
		if seen[in.Prev] {
			return errors.New("chain: transaction spends an outpoint twice")
		}
		seen[in.Prev] = true
	}
	for _, o := range tx.Outputs {
		if o.Value <= 0 {
			return fmt.Errorf("chain: output value %d must be positive", o.Value)
		}
		if err := o.Script.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// validate checks a transaction against the current UTXO set.
func (c *Chain) validate(tx *Transaction, height uint64) error {
	if tx.LockHeight > height {
		return fmt.Errorf("chain: locked until height %d (current %d)", tx.LockHeight, height)
	}
	var inValue Amount
	for i, in := range tx.Inputs {
		prev, ok := c.utxo[in.Prev]
		if !ok {
			return fmt.Errorf("chain: input %d spends missing or spent outpoint %s", i, in.Prev)
		}
		if in.MinAge > 0 && height < prev.height+in.MinAge {
			return fmt.Errorf("%w: input %d age %d below relative lock %d",
				errImmature, i, height-prev.height, in.MinAge)
		}
		if err := tx.VerifyInput(i, prev.out.Script); err != nil {
			return err
		}
		inValue += prev.out.Value
	}
	if out := tx.OutputValue(); out != inValue {
		return fmt.Errorf("chain: outputs %d do not balance inputs %d", out, inValue)
	}
	return nil
}

// Censor keeps a transaction out of blocks until the chain reaches the
// given height. This is the adversarial write-delay capability the
// paper's threat model grants attackers (§2.2): on real blockchains,
// spam, fee manipulation, and eclipse attacks delay victim transactions.
func (c *Chain) Censor(id TxID, untilHeight uint64) {
	c.censorUntil[id] = untilHeight
}

// MineBlock assembles the next block from the mempool (in submission
// order, skipping censored and still-locked transactions, dropping
// permanently invalid ones) and connects it. It returns the new block.
func (c *Chain) MineBlock() *Block {
	height := c.Height() + 1
	block := &Block{Height: height}
	u := &blockUndo{}
	var keep []*Transaction
	for _, tx := range c.mempool {
		id := tx.ID()
		if until, held := c.censorUntil[id]; held && height < until {
			keep = append(keep, tx)
			continue
		}
		if tx.LockHeight > height {
			keep = append(keep, tx)
			continue
		}
		if err := c.validate(tx, height); err != nil {
			// Timelocked-but-otherwise-valid transactions wait in the
			// mempool; everything else is permanently invalid.
			if errors.Is(err, errImmature) {
				keep = append(keep, tx)
				continue
			}
			c.reject(id, err.Error())
			delete(c.inPool, id)
			continue
		}
		c.connect(tx, height, u)
		block.Txs = append(block.Txs, tx)
		delete(c.inPool, id)
	}
	c.mempool = keep
	c.blocks = append(c.blocks, block)
	c.undo = append(c.undo, u)
	for _, fn := range c.onBlock {
		fn(block)
	}
	return block
}

// MineBlocks mines n consecutive blocks.
func (c *Chain) MineBlocks(n int) {
	for i := 0; i < n; i++ {
		c.MineBlock()
	}
}

func (c *Chain) connect(tx *Transaction, height uint64, u *blockUndo) {
	id := tx.ID()
	for _, in := range tx.Inputs {
		if e, ok := c.utxo[in.Prev]; ok {
			u.spent = append(u.spent, spentEntry{op: in.Prev, e: e})
		}
		delete(c.utxo, in.Prev)
	}
	for i, o := range tx.Outputs {
		op := OutPoint{Tx: id, Index: uint32(i)}
		c.utxo[op] = utxoEntry{out: o, height: height}
		u.created = append(u.created, op)
	}
	c.status[id] = StatusConfirmed
	c.confirmed[id] = height
}

// Reorg disconnects the top depth blocks, modeling a competing fork
// displacing them (the chain "reorganizes" onto a branch in which those
// blocks never happened). Spent outputs are restored at their original
// creation heights, created outputs are removed, and the displaced
// transactions return to the front of the mempool as pending — the new
// branch's miners may or may not re-include them, and a settling node
// watching Confirmations sees its settlement drop back to 0 until they
// do. Conservation (TotalUnspent == Minted) holds across the
// disconnect: Fund mints outside blocks, so reorgs never touch minted
// value.
func (c *Chain) Reorg(depth int) error {
	if depth <= 0 {
		return fmt.Errorf("chain: reorg depth %d must be positive", depth)
	}
	if uint64(depth) > c.Height() {
		return fmt.Errorf("chain: reorg depth %d exceeds height %d", depth, c.Height())
	}
	var displaced []*Transaction
	for i := 0; i < depth; i++ {
		top := len(c.blocks) - 1
		b, u := c.blocks[top], c.undo[top]
		c.blocks, c.undo = c.blocks[:top], c.undo[:top]
		// Restore spends first, then remove creations: an output both
		// created and consumed inside the block (a same-block tx chain)
		// must end up gone, not restored.
		for j := len(u.spent) - 1; j >= 0; j-- {
			c.utxo[u.spent[j].op] = u.spent[j].e
		}
		for _, op := range u.created {
			delete(c.utxo, op)
		}
		for j := len(b.Txs) - 1; j >= 0; j-- {
			tx := b.Txs[j]
			id := tx.ID()
			c.status[id] = StatusPending
			delete(c.confirmed, id)
			displaced = append(displaced, tx)
		}
	}
	// Displaced transactions re-enter the mempool in their original
	// order, ahead of anything submitted since.
	for i, j := 0, len(displaced)-1; i < j; i, j = i+1, j-1 {
		displaced[i], displaced[j] = displaced[j], displaced[i]
	}
	pool := make([]*Transaction, 0, len(displaced)+len(c.mempool))
	for _, tx := range displaced {
		if id := tx.ID(); !c.inPool[id] {
			pool = append(pool, tx)
			c.inPool[id] = true
		}
	}
	c.mempool = append(pool, c.mempool...)
	return nil
}

func (c *Chain) reject(id TxID, reason string) {
	c.status[id] = StatusRejected
	c.rejectLog[id] = reason
}

// Status returns a transaction's status.
func (c *Chain) Status(id TxID) TxStatus { return c.status[id] }

// RejectReason returns why a transaction was rejected, if it was.
func (c *Chain) RejectReason(id TxID) string { return c.rejectLog[id] }

// Confirmations returns how many blocks deep a transaction is (1 = in
// the tip block), or 0 if unconfirmed.
func (c *Chain) Confirmations(id TxID) uint64 {
	h, ok := c.confirmed[id]
	if !ok {
		return 0
	}
	if h == 0 {
		// Funded before any block: treat as buried below everything.
		return c.Height() + 1
	}
	if h > c.Height() {
		// Confirmed at a height a reorg has since disconnected (only
		// Fund entries can reach here — block transactions revert to
		// pending on disconnect): not currently confirmed.
		return 0
	}
	return c.Height() - h + 1
}

// Tx returns a transaction the chain has seen (pending or confirmed).
func (c *Chain) Tx(id TxID) (*Transaction, bool) {
	tx, ok := c.txSeen[id]
	return tx, ok
}

// UTXO looks up an unspent output.
func (c *Chain) UTXO(op OutPoint) (TxOut, bool) {
	e, ok := c.utxo[op]
	return e.out, ok
}

// Unspent reports whether an outpoint is currently unspent.
func (c *Chain) Unspent(op OutPoint) bool {
	_, ok := c.utxo[op]
	return ok
}

// BalanceByAddress sums unspent outputs whose script address matches.
func (c *Chain) BalanceByAddress(addr cryptoutil.Address) Amount {
	var total Amount
	for _, e := range c.utxo {
		if e.out.Script.Address() == addr {
			total += e.out.Value
		}
	}
	return total
}

// TotalUnspent sums the entire UTXO set; with no fees this must always
// equal the total minted value (conservation invariant, tested).
func (c *Chain) TotalUnspent() Amount {
	var total Amount
	for _, e := range c.utxo {
		total += e.out.Value
	}
	return total
}

// Minted returns the total value created via Fund.
func (c *Chain) Minted() Amount { return c.minted }

// MempoolSize returns the number of pending transactions.
func (c *Chain) MempoolSize() int { return len(c.mempool) }

// OnBlock registers fn to run after every newly mined block. Observers
// must not mine from within the callback.
func (c *Chain) OnBlock(fn func(*Block)) { c.onBlock = append(c.onBlock, fn) }
