package api

import (
	"encoding/binary"
	"fmt"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
	"teechain/internal/wire"
)

// Hand-rolled binary payloads for the control-plane hot path. PayReq,
// PayBatchReq, PayResp, and Event are the messages a driver exchanges
// per payment batch (or per pushed event), and the routing pair
// (RouteReq/RouteResp, RoutedPayReq/RoutedPayResp) per routed payment;
// gob would re-emit type descriptors — and recompile its decoder — on
// every self-contained frame. The codecs follow the wire package's
// BinaryMessage contract: DecodePayload overwrites every field, rejects
// trailing bytes, and reuses the receiver's slice/string capacity where
// possible.
//
// The routing messages are cold requests: the server runs each in its
// own goroutine and the client hands each response to its waiter, both
// outliving the read loop's hold on FrameReader's reused message. So
// both read loops take the message out of the reader first
// (FrameReader.Keep), and the route decoder allocates Hops and Fees
// fresh instead of reusing the receiver's.
//
// Routing layouts (big endian; "str16" is a uint16 length plus bytes):
//
//	RouteReq, RoutedPayReq    id u64 · amount u64 · target str16
//	RouteResp, RoutedPayResp  id u64 · code u16 · retryAfterMillis u32 ·
//	                          err str16 · amount u64 · send u64 ·
//	                          nHops u16 · nHops×65 identity ·
//	                          nFees u16 · nFees×8
//
// A count of zero decodes to a nil slice, which is also what gob did.

// AppendPayload implements wire.BinaryMessage.
func (m *PayReq) AppendPayload(dst []byte) ([]byte, error) {
	dst = binary.BigEndian.AppendUint64(dst, m.ID)
	dst, err := wire.AppendLPChannelID(dst, m.Channel)
	if err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Amount))
	return binary.BigEndian.AppendUint32(dst, m.Count), nil
}

// DecodePayload implements wire.BinaryMessage.
func (m *PayReq) DecodePayload(src []byte) error {
	if len(src) < 8 {
		return wire.ErrFrameTruncated
	}
	id := binary.BigEndian.Uint64(src)
	ch, rest, err := wire.ReadLPChannelID(src[8:], m.Channel)
	if err != nil {
		return err
	}
	if len(rest) != 12 {
		return wire.ErrFrameTruncated
	}
	m.ID = id
	m.Channel = ch
	m.Amount = chain.Amount(binary.BigEndian.Uint64(rest[:8]))
	m.Count = binary.BigEndian.Uint32(rest[8:12])
	return nil
}

// AppendPayload implements wire.BinaryMessage.
func (m *PayBatchReq) AppendPayload(dst []byte) ([]byte, error) {
	if len(m.Amounts) > wire.MaxPayBatch {
		return dst, fmt.Errorf("api: batch of %d exceeds %d", len(m.Amounts), wire.MaxPayBatch)
	}
	dst = binary.BigEndian.AppendUint64(dst, m.ID)
	dst, err := wire.AppendLPChannelID(dst, m.Channel)
	if err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Amounts)))
	for _, a := range m.Amounts {
		dst = binary.BigEndian.AppendUint64(dst, uint64(a))
	}
	return dst, nil
}

// DecodePayload implements wire.BinaryMessage.
func (m *PayBatchReq) DecodePayload(src []byte) error {
	if len(src) < 8 {
		return wire.ErrFrameTruncated
	}
	id := binary.BigEndian.Uint64(src)
	ch, rest, err := wire.ReadLPChannelID(src[8:], m.Channel)
	if err != nil {
		return err
	}
	if len(rest) < 4 {
		return wire.ErrFrameTruncated
	}
	n := int(binary.BigEndian.Uint32(rest[:4]))
	if n > wire.MaxPayBatch {
		return fmt.Errorf("api: batch of %d exceeds %d", n, wire.MaxPayBatch)
	}
	if len(rest) != 4+8*n {
		return wire.ErrFrameTruncated
	}
	m.ID = id
	m.Channel = ch
	m.Amounts = m.Amounts[:0]
	for i := 0; i < n; i++ {
		m.Amounts = append(m.Amounts, chain.Amount(binary.BigEndian.Uint64(rest[4+8*i:])))
	}
	return nil
}

// AppendPayload implements wire.BinaryMessage.
func (m *PayResp) AppendPayload(dst []byte) ([]byte, error) {
	if len(m.Err) > 0xffff {
		return dst, fmt.Errorf("api: error detail %d bytes exceeds uint16", len(m.Err))
	}
	dst = binary.BigEndian.AppendUint64(dst, m.ID)
	dst = binary.BigEndian.AppendUint16(dst, uint16(m.Code))
	dst = binary.BigEndian.AppendUint32(dst, m.Count)
	dst = binary.BigEndian.AppendUint32(dst, m.RetryAfterMillis)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Err)))
	return append(dst, m.Err...), nil
}

// DecodePayload implements wire.BinaryMessage.
func (m *PayResp) DecodePayload(src []byte) error {
	if len(src) < 20 {
		return wire.ErrFrameTruncated
	}
	elen := int(binary.BigEndian.Uint16(src[18:20]))
	if len(src) != 20+elen {
		return wire.ErrFrameTruncated
	}
	m.ID = binary.BigEndian.Uint64(src[:8])
	m.Code = Code(binary.BigEndian.Uint16(src[8:10]))
	m.Count = binary.BigEndian.Uint32(src[10:14])
	m.RetryAfterMillis = binary.BigEndian.Uint32(src[14:18])
	m.Err = string(src[20:])
	return nil
}

// AppendPayload implements wire.BinaryMessage.
func (m *Event) AppendPayload(dst []byte) ([]byte, error) {
	dst = binary.BigEndian.AppendUint64(dst, m.Seq)
	dst = append(dst, byte(m.Kind))
	dst, err := wire.AppendLPChannelID(dst, m.Channel)
	if err != nil {
		return dst, err
	}
	if dst, err = wire.AppendLPString(dst, m.Chain); err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Amount))
	dst = binary.BigEndian.AppendUint32(dst, m.Count)
	return binary.BigEndian.AppendUint64(dst, m.Cursor), nil
}

// DecodePayload implements wire.BinaryMessage.
func (m *Event) DecodePayload(src []byte) error {
	if len(src) < 9 {
		return wire.ErrFrameTruncated
	}
	seq := binary.BigEndian.Uint64(src[:8])
	kind := EventKind(src[8])
	ch, rest, err := wire.ReadLPChannelID(src[9:], m.Channel)
	if err != nil {
		return err
	}
	cn, rest, err := wire.ReadLPString(rest, m.Chain)
	if err != nil {
		return err
	}
	if len(rest) != 20 {
		return wire.ErrFrameTruncated
	}
	m.Seq = seq
	m.Kind = kind
	m.Channel = ch
	m.Chain = cn
	m.Amount = chain.Amount(binary.BigEndian.Uint64(rest[:8]))
	m.Count = binary.BigEndian.Uint32(rest[8:12])
	m.Cursor = binary.BigEndian.Uint64(rest[12:20])
	return nil
}

// appendRouteReq and decodeRouteReq are the shared codec of RouteReq
// and RoutedPayReq, which differ only in what the server does.
func appendRouteReq(dst []byte, id uint64, target string, amount chain.Amount) ([]byte, error) {
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, uint64(amount))
	return wire.AppendStr16(dst, target)
}

func decodeRouteReq(src []byte, id *uint64, target *string, amount *chain.Amount) error {
	if len(src) < 16 {
		return wire.ErrFrameTruncated
	}
	t, rest, err := wire.ReadStr16(src[16:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return wire.ErrFrameTruncated
	}
	*id = binary.BigEndian.Uint64(src[:8])
	*amount = chain.Amount(binary.BigEndian.Uint64(src[8:16]))
	*target = t
	return nil
}

// AppendPayload implements wire.BinaryMessage.
func (m *RouteReq) AppendPayload(dst []byte) ([]byte, error) {
	return appendRouteReq(dst, m.ID, m.Target, m.Amount)
}

// DecodePayload implements wire.BinaryMessage.
func (m *RouteReq) DecodePayload(src []byte) error {
	return decodeRouteReq(src, &m.ID, &m.Target, &m.Amount)
}

// AppendPayload implements wire.BinaryMessage.
func (m *RoutedPayReq) AppendPayload(dst []byte) ([]byte, error) {
	return appendRouteReq(dst, m.ID, m.Target, m.Amount)
}

// DecodePayload implements wire.BinaryMessage.
func (m *RoutedPayReq) DecodePayload(src []byte) error {
	return decodeRouteReq(src, &m.ID, &m.Target, &m.Amount)
}

// appendRouteResp and decodeRouteResp are the shared codec of RouteResp
// and RoutedPayResp.
func appendRouteResp(dst []byte, hdr *RespHeader, r *RouteInfo) ([]byte, error) {
	if len(r.Hops) > 0xffff || len(r.Fees) > 0xffff {
		return dst, fmt.Errorf("api: route of %d hops, %d fees exceeds uint16", len(r.Hops), len(r.Fees))
	}
	dst = binary.BigEndian.AppendUint64(dst, hdr.ID)
	dst = binary.BigEndian.AppendUint16(dst, uint16(hdr.Code))
	dst = binary.BigEndian.AppendUint32(dst, hdr.RetryAfterMillis)
	dst, err := wire.AppendStr16(dst, hdr.Err)
	if err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Amount))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Send))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Hops)))
	for i := range r.Hops {
		dst = append(dst, r.Hops[i][:]...)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Fees)))
	for _, f := range r.Fees {
		dst = binary.BigEndian.AppendUint64(dst, uint64(f))
	}
	return dst, nil
}

func decodeRouteResp(src []byte, hdr *RespHeader, r *RouteInfo) error {
	if len(src) < 14 {
		return wire.ErrFrameTruncated
	}
	detail, rest, err := wire.ReadStr16(src[14:])
	if err != nil {
		return err
	}
	if len(rest) < 18 {
		return wire.ErrFrameTruncated
	}
	amount := chain.Amount(binary.BigEndian.Uint64(rest[:8]))
	send := chain.Amount(binary.BigEndian.Uint64(rest[8:16]))
	// Counts are checked against the bytes that remain before anything
	// is allocated for them.
	const keyLen = len(cryptoutil.PublicKey{})
	nHops := int(binary.BigEndian.Uint16(rest[16:18]))
	rest = rest[18:]
	if len(rest) < nHops*keyLen+2 {
		return wire.ErrFrameTruncated
	}
	var hops []cryptoutil.PublicKey
	if nHops > 0 {
		hops = make([]cryptoutil.PublicKey, nHops)
		for i := range hops {
			copy(hops[i][:], rest[i*keyLen:])
		}
	}
	rest = rest[nHops*keyLen:]
	nFees := int(binary.BigEndian.Uint16(rest[:2]))
	rest = rest[2:]
	if len(rest) != nFees*8 {
		return wire.ErrFrameTruncated
	}
	var fees []chain.Amount
	if nFees > 0 {
		fees = make([]chain.Amount, nFees)
		for i := range fees {
			fees[i] = chain.Amount(binary.BigEndian.Uint64(rest[i*8:]))
		}
	}
	hdr.ID = binary.BigEndian.Uint64(src[:8])
	hdr.Code = Code(binary.BigEndian.Uint16(src[8:10]))
	hdr.RetryAfterMillis = binary.BigEndian.Uint32(src[10:14])
	hdr.Err = detail
	*r = RouteInfo{Hops: hops, Fees: fees, Amount: amount, Send: send}
	return nil
}

// AppendPayload implements wire.BinaryMessage.
func (m *RouteResp) AppendPayload(dst []byte) ([]byte, error) {
	return appendRouteResp(dst, &m.RespHeader, &m.Route)
}

// DecodePayload implements wire.BinaryMessage.
func (m *RouteResp) DecodePayload(src []byte) error {
	return decodeRouteResp(src, &m.RespHeader, &m.Route)
}

// AppendPayload implements wire.BinaryMessage.
func (m *RoutedPayResp) AppendPayload(dst []byte) ([]byte, error) {
	return appendRouteResp(dst, &m.RespHeader, &m.Route)
}

// DecodePayload implements wire.BinaryMessage.
func (m *RoutedPayResp) DecodePayload(src []byte) error {
	return decodeRouteResp(src, &m.RespHeader, &m.Route)
}
