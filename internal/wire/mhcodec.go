package wire

import (
	"encoding/binary"
	"fmt"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
)

// Binary payload codecs for the multi-hop protocol (Alg. 2). A routed
// payment costs six of these frames per hop, and gob re-sent its type
// descriptors — and recompiled its decoder — on every one of them.
//
// Unlike the lane codecs, these decoders never reuse the receiver's
// slices: the enclave keeps a lock's Path, Fees and Tau in its Op log
// and State for the life of the payment, while FrameReader hands the
// same message struct to the next frame of the same code. Every decode
// therefore allocates them fresh.
//
// Layouts (big endian; "str16" is a uint16 length plus bytes):
//
//	MhLock        payment str16 · amount u64 · count u32 · channel str8 ·
//	              nPath u16 · nPath×65 identity · nFees u16 · nFees×8 ·
//	              tx
//	MhSign        payment str16 · tx
//	MhPreUpdate   payment str16 · tx
//	MhUpdate      payment str16
//	MhPostUpdate  payment str16
//	MhRelease     payment str16
//	MhAbort       payment str16 · transient u8 (0|1) · reason str16
//
//	tx            present u8 (0 = nil, then nothing follows) ·
//	              lockHeight u64 ·
//	              nIn u16 · nIn×{ prev txid 32 · prev index u32 ·
//	                minAge u64 · nSigs u16 · nSigs×64 } ·
//	              nOut u16 · nOut×{ value u64 · M u32 · nKeys u16 ·
//	                nKeys×65 }
//
// A count of zero decodes to a nil slice, which is also what gob did.

const (
	keySize      = len(cryptoutil.PublicKey{}) // an encoded identity
	sigSize      = len(cryptoutil.Signature{}) // an encoded signature
	txInMinSize  = 32 + 4 + 8 + 2              // outpoint, min-age, signature count
	txOutMinSize = 8 + 4 + 2                   // value, M, key count
)

func appendStr16(dst []byte, s string) ([]byte, error) {
	if len(s) > 0xffff {
		return dst, fmt.Errorf("wire: string of %d bytes exceeds uint16", len(s))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

func readStr16(src []byte) (string, []byte, error) {
	if len(src) < 2 {
		return "", nil, ErrFrameTruncated
	}
	n := int(binary.BigEndian.Uint16(src))
	if len(src) < 2+n {
		return "", nil, ErrFrameTruncated
	}
	return string(src[2 : 2+n]), src[2+n:], nil
}

// readCount parses a uint16 element count and checks that count
// elements of at least minSize bytes each can still follow, so a
// hostile count never sizes an allocation the frame could not fill.
func readCount(src []byte, minSize int) (int, []byte, error) {
	if len(src) < 2 {
		return 0, nil, ErrFrameTruncated
	}
	n := int(binary.BigEndian.Uint16(src))
	if n*minSize > len(src)-2 {
		return 0, nil, ErrFrameTruncated
	}
	return n, src[2:], nil
}

func appendCount(dst []byte, n int, what string) ([]byte, error) {
	if n > 0xffff {
		return dst, fmt.Errorf("wire: %d %s exceed uint16", n, what)
	}
	return binary.BigEndian.AppendUint16(dst, uint16(n)), nil
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func readBool(src []byte) (bool, []byte, error) {
	if len(src) < 1 {
		return false, nil, ErrFrameTruncated
	}
	if src[0] > 1 {
		return false, nil, fmt.Errorf("%w: bad flag byte %d", ErrFramePayload, src[0])
	}
	return src[0] == 1, src[1:], nil
}

// appendTx encodes a possibly-nil transaction: the one Transaction
// codec every message carrying τ shares.
func appendTx(dst []byte, tx *chain.Transaction) ([]byte, error) {
	if tx == nil {
		return append(dst, 0), nil
	}
	dst = append(dst, 1)
	dst = binary.BigEndian.AppendUint64(dst, tx.LockHeight)
	dst, err := appendCount(dst, len(tx.Inputs), "transaction inputs")
	if err != nil {
		return dst, err
	}
	for i := range tx.Inputs {
		in := &tx.Inputs[i]
		dst = append(dst, in.Prev.Tx[:]...)
		dst = binary.BigEndian.AppendUint32(dst, in.Prev.Index)
		dst = binary.BigEndian.AppendUint64(dst, in.MinAge)
		if dst, err = appendCount(dst, len(in.Sigs), "signature slots"); err != nil {
			return dst, err
		}
		for j := range in.Sigs {
			dst = append(dst, in.Sigs[j][:]...)
		}
	}
	if dst, err = appendCount(dst, len(tx.Outputs), "transaction outputs"); err != nil {
		return dst, err
	}
	for i := range tx.Outputs {
		out := &tx.Outputs[i]
		dst = binary.BigEndian.AppendUint64(dst, uint64(out.Value))
		dst = binary.BigEndian.AppendUint32(dst, uint32(out.Script.M))
		if dst, err = appendCount(dst, len(out.Script.Keys), "script keys"); err != nil {
			return dst, err
		}
		for j := range out.Script.Keys {
			dst = append(dst, out.Script.Keys[j][:]...)
		}
	}
	return dst, nil
}

// readTx decodes what appendTx wrote into a fresh transaction.
func readTx(src []byte) (*chain.Transaction, []byte, error) {
	present, src, err := readBool(src)
	if err != nil || !present {
		return nil, src, err
	}
	if len(src) < 8 {
		return nil, nil, ErrFrameTruncated
	}
	tx := &chain.Transaction{LockHeight: binary.BigEndian.Uint64(src)}
	nIn, src, err := readCount(src[8:], txInMinSize)
	if err != nil {
		return nil, nil, err
	}
	if nIn > 0 {
		tx.Inputs = make([]chain.TxIn, nIn)
	}
	for i := range tx.Inputs {
		in := &tx.Inputs[i]
		if len(src) < txInMinSize {
			return nil, nil, ErrFrameTruncated
		}
		copy(in.Prev.Tx[:], src)
		in.Prev.Index = binary.BigEndian.Uint32(src[32:])
		in.MinAge = binary.BigEndian.Uint64(src[36:])
		var nSigs int
		if nSigs, src, err = readCount(src[44:], sigSize); err != nil {
			return nil, nil, err
		}
		if nSigs > 0 {
			in.Sigs = make([]cryptoutil.Signature, nSigs)
		}
		for j := range in.Sigs {
			copy(in.Sigs[j][:], src)
			src = src[sigSize:]
		}
	}
	nOut, src, err := readCount(src, txOutMinSize)
	if err != nil {
		return nil, nil, err
	}
	if nOut > 0 {
		tx.Outputs = make([]chain.TxOut, nOut)
	}
	for i := range tx.Outputs {
		out := &tx.Outputs[i]
		if len(src) < txOutMinSize {
			return nil, nil, ErrFrameTruncated
		}
		out.Value = chain.Amount(binary.BigEndian.Uint64(src))
		out.Script.M = int(int32(binary.BigEndian.Uint32(src[8:])))
		var nKeys int
		if nKeys, src, err = readCount(src[12:], keySize); err != nil {
			return nil, nil, err
		}
		if nKeys > 0 {
			out.Script.Keys = make([]cryptoutil.PublicKey, nKeys)
		}
		for j := range out.Script.Keys {
			copy(out.Script.Keys[j][:], src)
			src = src[keySize:]
		}
	}
	return tx, src, nil
}

// AppendPayload implements BinaryMessage.
func (m *MhLock) AppendPayload(dst []byte) ([]byte, error) {
	dst, err := appendStr16(dst, string(m.Payment))
	if err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Amount))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.Count))
	if dst, err = appendChannelID(dst, m.Channel); err != nil {
		return dst, err
	}
	if dst, err = appendCount(dst, len(m.Path), "path hops"); err != nil {
		return dst, err
	}
	for i := range m.Path {
		dst = append(dst, m.Path[i].Identity[:]...)
	}
	if dst, err = appendCount(dst, len(m.Fees), "fees"); err != nil {
		return dst, err
	}
	for _, f := range m.Fees {
		dst = binary.BigEndian.AppendUint64(dst, uint64(f))
	}
	return appendTx(dst, m.Tau)
}

// DecodePayload implements BinaryMessage.
func (m *MhLock) DecodePayload(src []byte) error {
	pid, src, err := readStr16(src)
	if err != nil {
		return err
	}
	if len(src) < 12 {
		return ErrFrameTruncated
	}
	amount := chain.Amount(binary.BigEndian.Uint64(src))
	count := int(int32(binary.BigEndian.Uint32(src[8:])))
	ch, src, err := readChannelID(src[12:], m.Channel)
	if err != nil {
		return err
	}
	nPath, src, err := readCount(src, keySize)
	if err != nil {
		return err
	}
	var path []PathHop
	if nPath > 0 {
		path = make([]PathHop, nPath)
	}
	for i := range path {
		copy(path[i].Identity[:], src)
		src = src[keySize:]
	}
	nFees, src, err := readCount(src, 8)
	if err != nil {
		return err
	}
	var fees []chain.Amount
	if nFees > 0 {
		fees = make([]chain.Amount, nFees)
	}
	for i := range fees {
		fees[i] = chain.Amount(binary.BigEndian.Uint64(src))
		src = src[8:]
	}
	tau, src, err := readTx(src)
	if err != nil {
		return err
	}
	if len(src) != 0 {
		return ErrFrameTruncated
	}
	*m = MhLock{Payment: PaymentID(pid), Amount: amount, Count: count, Path: path, Channel: ch, Tau: tau, Fees: fees}
	return nil
}

// appendPaymentTau and readPaymentTau are the shared layout of the two
// τ-carrying stage messages (MhSign, MhPreUpdate).
func appendPaymentTau(dst []byte, pid PaymentID, tau *chain.Transaction) ([]byte, error) {
	dst, err := appendStr16(dst, string(pid))
	if err != nil {
		return dst, err
	}
	return appendTx(dst, tau)
}

func readPaymentTau(src []byte) (PaymentID, *chain.Transaction, error) {
	pid, src, err := readStr16(src)
	if err != nil {
		return "", nil, err
	}
	tau, src, err := readTx(src)
	if err != nil {
		return "", nil, err
	}
	if len(src) != 0 {
		return "", nil, ErrFrameTruncated
	}
	return PaymentID(pid), tau, nil
}

// AppendPayload implements BinaryMessage.
func (m *MhSign) AppendPayload(dst []byte) ([]byte, error) {
	return appendPaymentTau(dst, m.Payment, m.Tau)
}

// DecodePayload implements BinaryMessage.
func (m *MhSign) DecodePayload(src []byte) error {
	pid, tau, err := readPaymentTau(src)
	if err == nil {
		m.Payment, m.Tau = pid, tau
	}
	return err
}

// AppendPayload implements BinaryMessage.
func (m *MhPreUpdate) AppendPayload(dst []byte) ([]byte, error) {
	return appendPaymentTau(dst, m.Payment, m.Tau)
}

// DecodePayload implements BinaryMessage.
func (m *MhPreUpdate) DecodePayload(src []byte) error {
	pid, tau, err := readPaymentTau(src)
	if err == nil {
		m.Payment, m.Tau = pid, tau
	}
	return err
}

// readPaymentOnly is the whole payload of the three τ-free stage
// messages (MhUpdate, MhPostUpdate, MhRelease).
func readPaymentOnly(src []byte) (PaymentID, error) {
	pid, src, err := readStr16(src)
	if err != nil {
		return "", err
	}
	if len(src) != 0 {
		return "", ErrFrameTruncated
	}
	return PaymentID(pid), nil
}

// AppendPayload implements BinaryMessage.
func (m *MhUpdate) AppendPayload(dst []byte) ([]byte, error) {
	return appendStr16(dst, string(m.Payment))
}

// DecodePayload implements BinaryMessage.
func (m *MhUpdate) DecodePayload(src []byte) error {
	pid, err := readPaymentOnly(src)
	if err == nil {
		m.Payment = pid
	}
	return err
}

// AppendPayload implements BinaryMessage.
func (m *MhPostUpdate) AppendPayload(dst []byte) ([]byte, error) {
	return appendStr16(dst, string(m.Payment))
}

// DecodePayload implements BinaryMessage.
func (m *MhPostUpdate) DecodePayload(src []byte) error {
	pid, err := readPaymentOnly(src)
	if err == nil {
		m.Payment = pid
	}
	return err
}

// AppendPayload implements BinaryMessage.
func (m *MhRelease) AppendPayload(dst []byte) ([]byte, error) {
	return appendStr16(dst, string(m.Payment))
}

// DecodePayload implements BinaryMessage.
func (m *MhRelease) DecodePayload(src []byte) error {
	pid, err := readPaymentOnly(src)
	if err == nil {
		m.Payment = pid
	}
	return err
}

// AppendPayload implements BinaryMessage.
func (m *MhAbort) AppendPayload(dst []byte) ([]byte, error) {
	dst, err := appendStr16(dst, string(m.Payment))
	if err != nil {
		return dst, err
	}
	return appendStr16(appendBool(dst, m.Transient), m.Reason)
}

// DecodePayload implements BinaryMessage.
func (m *MhAbort) DecodePayload(src []byte) error {
	pid, src, err := readStr16(src)
	if err != nil {
		return err
	}
	transient, src, err := readBool(src)
	if err != nil {
		return err
	}
	reason, src, err := readStr16(src)
	if err != nil {
		return err
	}
	if len(src) != 0 {
		return ErrFrameTruncated
	}
	m.Payment, m.Transient, m.Reason = PaymentID(pid), transient, reason
	return nil
}
