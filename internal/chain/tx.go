// Package chain implements the blockchain substrate Teechain settles
// against: a Bitcoin-like UTXO ledger with pay-to-public-key and
// m-out-of-n multisignature outputs, a mempool, block production, and —
// crucially for this paper — adversarial transaction censorship. The
// ledger provides only best-effort, unbounded-latency writes, which is
// exactly the asynchronous access model Teechain assumes and existing
// payment networks do not survive.
package chain

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"

	"teechain/internal/cryptoutil"
)

// Amount is a quantity of currency in base units (satoshi-like).
type Amount int64

// TxID identifies a transaction: the SHA-256 hash of its full encoding.
type TxID [32]byte

// String returns a short hex prefix for logs.
func (id TxID) String() string { return hex.EncodeToString(id[:6]) }

// IsZero reports whether the ID is the zero value.
func (id TxID) IsZero() bool { return id == TxID{} }

// OutPoint references one output of a prior transaction.
type OutPoint struct {
	Tx    TxID
	Index uint32
}

// String formats the outpoint as txid:index.
func (op OutPoint) String() string { return fmt.Sprintf("%s:%d", op.Tx, op.Index) }

// Script is an output's locking condition: an m-out-of-n multisignature
// over the listed public keys. M = 1 with a single key is the ordinary
// pay-to-public-key case. This is the only script form Teechain needs
// (§4, §6.1).
type Script struct {
	M    int
	Keys []cryptoutil.PublicKey
}

// PayToKey returns the 1-of-1 script for a single key.
func PayToKey(key cryptoutil.PublicKey) Script {
	return Script{M: 1, Keys: []cryptoutil.PublicKey{key}}
}

// Multisig returns the m-of-n script over keys.
func Multisig(m int, keys ...cryptoutil.PublicKey) Script {
	ks := make([]cryptoutil.PublicKey, len(keys))
	copy(ks, keys)
	return Script{M: m, Keys: ks}
}

// Validate checks structural well-formedness.
func (s Script) Validate() error {
	if s.M < 1 {
		return fmt.Errorf("chain: script threshold %d < 1", s.M)
	}
	if len(s.Keys) == 0 {
		return errors.New("chain: script with no keys")
	}
	if s.M > len(s.Keys) {
		return fmt.Errorf("chain: script threshold %d exceeds %d keys", s.M, len(s.Keys))
	}
	seen := make(map[cryptoutil.PublicKey]bool, len(s.Keys))
	for _, k := range s.Keys {
		if k.IsZero() {
			return errors.New("chain: script with zero key")
		}
		if seen[k] {
			return errors.New("chain: script with duplicate key")
		}
		seen[k] = true
	}
	return nil
}

// Address derives the script's address: for a 1-of-1 script the key's
// address; otherwise the truncated hash of the script encoding
// (pay-to-script-hash style).
func (s Script) Address() cryptoutil.Address {
	if s.M == 1 && len(s.Keys) == 1 {
		return s.Keys[0].Address()
	}
	var buf []byte
	buf = appendUint32(buf, uint32(s.M))
	for _, k := range s.Keys {
		buf = append(buf, k[:]...)
	}
	sum := cryptoutil.Hash256(buf)
	var a cryptoutil.Address
	copy(a[:], sum[:20])
	return a
}

// Equal reports whether two scripts are identical (same threshold, same
// keys in the same order).
func (s Script) Equal(o Script) bool {
	if s.M != o.M || len(s.Keys) != len(o.Keys) {
		return false
	}
	for i := range s.Keys {
		if s.Keys[i] != o.Keys[i] {
			return false
		}
	}
	return true
}

// TxOut is a transaction output: an amount locked under a script.
type TxOut struct {
	Value  Amount
	Script Script
}

// TxIn spends a prior output. Sigs is parallel to the previous output
// script's Keys slice: Sigs[i], when non-zero, must be a valid signature
// by Keys[i] over the transaction's signature hash. At least M slots
// must verify.
//
// MinAge, when non-zero, is a relative timelock (CSV semantics): the
// input is only valid once the spent output has been buried under at
// least MinAge blocks. The Lightning baseline's to-self delay — the
// synchrony window τ that Teechain eliminates — is built on it.
type TxIn struct {
	Prev   OutPoint
	Sigs   []cryptoutil.Signature
	MinAge uint64
}

// Transaction moves value between outputs. LockHeight, when non-zero,
// prevents the transaction from being included in a block below that
// height (an absolute timelock, as used by the DMC and LN baselines).
type Transaction struct {
	Inputs     []TxIn
	Outputs    []TxOut
	LockHeight uint64
}

// ID returns the transaction's hash over its complete encoding,
// including signatures.
func (tx *Transaction) ID() TxID {
	return TxID(cryptoutil.Hash256(tx.encode(true)))
}

// SigHash returns the digest that input signatures cover: the encoding
// with all signature slots blanked (SIGHASH_ALL semantics).
func (tx *Transaction) SigHash() [32]byte {
	return cryptoutil.Hash256(tx.encode(false))
}

// SpendsAnyOf reports whether the transaction spends any outpoint in
// the given set. Two transactions conflict iff they spend a common
// outpoint; this is the mechanism τ uses to invalidate individual
// channel settlements (§5.1).
func (tx *Transaction) SpendsAnyOf(points map[OutPoint]bool) bool {
	for _, in := range tx.Inputs {
		if points[in.Prev] {
			return true
		}
	}
	return false
}

// ConflictsWith reports whether the two transactions spend at least one
// common outpoint.
func (tx *Transaction) ConflictsWith(other *Transaction) bool {
	set := make(map[OutPoint]bool, len(tx.Inputs))
	for _, in := range tx.Inputs {
		set[in.Prev] = true
	}
	return other.SpendsAnyOf(set)
}

// OutputValue returns the sum of output values.
func (tx *Transaction) OutputValue() Amount {
	var total Amount
	for _, o := range tx.Outputs {
		total += o.Value
	}
	return total
}

// NumKeys returns the number of public keys carried by the transaction's
// output scripts; NumSigs returns the number of populated signature
// slots across inputs. Together they drive the blockchain-cost
// accounting of §7.5 (cost unit = one public key + one signature).
func (tx *Transaction) NumKeys() int {
	n := 0
	for _, o := range tx.Outputs {
		n += len(o.Script.Keys)
	}
	return n
}

// NumSigs returns the number of populated signature slots.
func (tx *Transaction) NumSigs() int {
	n := 0
	for _, in := range tx.Inputs {
		for _, s := range in.Sigs {
			if !s.IsZero() {
				n++
			}
		}
	}
	return n
}

// CostUnits returns the §7.5 blockchain cost of the transaction: pairs
// of public keys and signatures placed on chain, where one unit is one
// key plus one signature (so keys and signatures each count half).
func (tx *Transaction) CostUnits() float64 {
	return float64(tx.NumKeys()+tx.NumSigs()) / 2
}

// encode produces the deterministic binary encoding. When withSigs is
// false, signature slots are encoded as counts only, yielding the
// signature-hash preimage.
func (tx *Transaction) encode(withSigs bool) []byte {
	var buf []byte
	buf = appendUint64(buf, tx.LockHeight)
	buf = appendUint32(buf, uint32(len(tx.Inputs)))
	for _, in := range tx.Inputs {
		buf = append(buf, in.Prev.Tx[:]...)
		buf = appendUint32(buf, in.Prev.Index)
		buf = appendUint64(buf, in.MinAge)
		if withSigs {
			// The signature-slot count is excluded from the sighash
			// preimage so that allocating slots during signing does not
			// invalidate earlier signatures on the same transaction.
			buf = appendUint32(buf, uint32(len(in.Sigs)))
			for _, s := range in.Sigs {
				buf = append(buf, s[:]...)
			}
		}
	}
	buf = appendUint32(buf, uint32(len(tx.Outputs)))
	for _, o := range tx.Outputs {
		buf = appendUint64(buf, uint64(o.Value))
		buf = appendUint32(buf, uint32(o.Script.M))
		buf = appendUint32(buf, uint32(len(o.Script.Keys)))
		for _, k := range o.Script.Keys {
			buf = append(buf, k[:]...)
		}
	}
	return buf
}

// Clone returns a deep copy of the transaction (inputs, signature
// slots, outputs, and script key slices are all fresh). Use it before
// signing a transaction received from elsewhere: under the in-memory
// simulator, messages share pointers, and signing a shallow copy would
// mutate the sender's object.
func (tx *Transaction) Clone() *Transaction {
	cp := &Transaction{LockHeight: tx.LockHeight}
	cp.Inputs = make([]TxIn, len(tx.Inputs))
	for i, in := range tx.Inputs {
		cp.Inputs[i].Prev = in.Prev
		cp.Inputs[i].MinAge = in.MinAge
		if in.Sigs != nil {
			cp.Inputs[i].Sigs = append([]cryptoutil.Signature(nil), in.Sigs...)
		}
	}
	cp.Outputs = make([]TxOut, len(tx.Outputs))
	for i, o := range tx.Outputs {
		cp.Outputs[i].Value = o.Value
		cp.Outputs[i].Script = Script{M: o.Script.M, Keys: append([]cryptoutil.PublicKey(nil), o.Script.Keys...)}
	}
	return cp
}

// SignInput fills the signature slot for key kp on input i, given the
// previous output's script. It is the caller's responsibility that all
// inputs and outputs are final before signing (SIGHASH_ALL).
func (tx *Transaction) SignInput(i int, prevScript Script, kp *cryptoutil.KeyPair) error {
	if i < 0 || i >= len(tx.Inputs) {
		return fmt.Errorf("chain: input index %d out of range", i)
	}
	slot := -1
	for j, k := range prevScript.Keys {
		if k == kp.Public() {
			slot = j
			break
		}
	}
	if slot < 0 {
		return errors.New("chain: signing key not in previous output script")
	}
	if len(tx.Inputs[i].Sigs) != len(prevScript.Keys) {
		tx.Inputs[i].Sigs = make([]cryptoutil.Signature, len(prevScript.Keys))
	}
	digest := tx.SigHash()
	sig, err := kp.Sign(digest[:])
	if err != nil {
		return err
	}
	tx.Inputs[i].Sigs[slot] = sig
	return nil
}

// VerifyInput checks that input i satisfies prevScript: at least M
// distinct slots carry valid signatures over the transaction's sighash.
func (tx *Transaction) VerifyInput(i int, prevScript Script) error {
	if i < 0 || i >= len(tx.Inputs) {
		return fmt.Errorf("chain: input index %d out of range", i)
	}
	in := tx.Inputs[i]
	if len(in.Sigs) != len(prevScript.Keys) {
		return fmt.Errorf("chain: input %d has %d signature slots, script has %d keys",
			i, len(in.Sigs), len(prevScript.Keys))
	}
	digest := tx.SigHash()
	valid := 0
	for j, sig := range in.Sigs {
		if sig.IsZero() {
			continue
		}
		if !cryptoutil.Verify(prevScript.Keys[j], digest[:], sig) {
			return fmt.Errorf("chain: input %d slot %d carries an invalid signature", i, j)
		}
		valid++
	}
	if valid < prevScript.M {
		return fmt.Errorf("chain: input %d has %d valid signatures, need %d", i, valid, prevScript.M)
	}
	return nil
}

// SortOutPoints returns the outpoints in a deterministic order; helper
// for building transactions whose encoding must not depend on map
// iteration.
func SortOutPoints(points []OutPoint) []OutPoint {
	out := make([]OutPoint, len(points))
	copy(out, points)
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i].Tx {
			if out[i].Tx[k] != out[j].Tx[k] {
				return out[i].Tx[k] < out[j].Tx[k]
			}
		}
		return out[i].Index < out[j].Index
	})
	return out
}

func appendUint32(b []byte, v uint32) []byte {
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], v)
	return append(b, tmp[:]...)
}

func appendUint64(b []byte, v uint64) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], v)
	return append(b, tmp[:]...)
}
