package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
)

// This file defines the byte-transport framing used by real socket
// deployments (internal/transport): a length-prefixed binary frame with
// a version/type/flags header, replacing the per-connection gob streams
// of the original TCP demo. Per-connection gob streams are stateful — a
// reconnect mid-stream desynchronises the decoder — whereas each frame
// here is self-contained, so connections can drop and resume at any
// frame boundary.
//
// Frame layout (all integers big endian):
//
//	offset  size  field
//	0       4     frame length N (bytes following this prefix)
//	4       1     protocol version (FrameVersion)
//	5       1     message type code (see the registry below)
//	6       1     flags (bit 0: binary payload encoding)
//	7       65    sender enclave identity (cryptoutil.PublicKey)
//	72      2     token length T
//	74      T     session freshness token (empty for Attest/Hello)
//	74+T    …     message payload
//
// The payload is gob-encoded with a fresh encoder by default. Per-payment
// messages — the lane's Pay*, the replication batches, gossip, and the
// multi-hop stages (mhcodec.go) — implement BinaryMessage and travel as
// hand-rolled binary instead (FlagBinaryPayload set): gob re-emits type
// descriptors on every self-contained frame, which costs both bytes and
// allocations a payment path cannot afford. The flag must agree with the
// message type: gob is only accepted for types without a codec.
//
// The registry assigns every protocol message a stable one-byte code so
// a receiver can reject unknown or malformed frames before decoding.

// FrameVersion is the current framing protocol version. A frame with a
// different version is rejected with ErrFrameVersion. Version 2 added
// the flags byte and the binary payload encoding for payment messages;
// version 3 moved the multi-hop messages (Mh*) from gob to binary
// payloads, so a version-2 peer fails at its first frame instead of
// having every multi-hop frame dropped as malformed; version 4 made
// ChanAnnounce a list of edge announcements (one gossip frame per peer
// per flush), which a version-3 peer would misparse.
const FrameVersion = 4

// FlagBinaryPayload marks a payload encoded via BinaryMessage rather
// than gob.
const FlagBinaryPayload = 1 << 0

// MaxFrameSize bounds a frame's declared length, keeping a corrupt or
// hostile length prefix from ballooning into a huge allocation.
const MaxFrameSize = 1 << 20

// frameHeaderSize is the fixed portion after the length prefix.
const frameHeaderSize = 1 + 1 + 1 + 65 + 2

// Framing errors. Receivers treat all of them as a protocol violation
// by the remote connection.
var (
	ErrFrameVersion   = errors.New("wire: unsupported frame version")
	ErrFrameTooLarge  = errors.New("wire: frame exceeds MaxFrameSize")
	ErrFrameTruncated = errors.New("wire: truncated frame")
	ErrUnknownType    = errors.New("wire: unknown message type code")
	ErrFrameEncoding  = errors.New("wire: payload encoding does not match message type")
	ErrFramePayload   = errors.New("wire: malformed message payload")
)

// Hello is the transport-level handshake frame: the first frame each
// side of a fresh connection sends, announcing who is speaking. It
// never reaches an enclave or the simulated network, so it has no
// WireSize — hosts consume it to build their routing table (the
// paper's out-of-band identity exchange) — but it lives in the
// registry so one codec covers every frame on the wire.
type Hello struct {
	Name   string               // operator-chosen node name
	Payout cryptoutil.PublicKey // host wallet key for settlement
}

// BinaryMessage is implemented by hot-path messages whose payload is a
// hand-rolled binary encoding instead of gob. AppendPayload appends the
// encoded payload to dst (returning dst unchanged alongside the error
// when the message cannot be encoded); DecodePayload overwrites every
// field of the receiver from src (it must not retain src, must reject
// trailing bytes, and must tolerate a previously used receiver,
// reusing its slice capacity where possible).
type BinaryMessage interface {
	AppendPayload(dst []byte) ([]byte, error)
	DecodePayload(src []byte) error
}

// registry lists every message type in fixed order; a message's code is
// its index + 1 (code 0 is reserved/invalid). Append only — reordering
// changes codes on the wire. A nil entry keeps the code of a deleted
// message reserved: frames carrying it are rejected as unknown.
var registry = []Message{
	&Hello{},
	&Attest{}, &ChannelOpen{}, &ChannelAck{}, &ApproveDeposit{},
	&ApprovedDeposit{}, &AssociateDeposit{}, &DissociateDeposit{},
	&DissociateAck{}, &Pay{}, &PayAck{}, &PayNack{}, &SettleRequest{},
	&SettleNotify{}, &MhLock{}, &MhSign{}, &MhPreUpdate{},
	&MhUpdate{}, &MhPostUpdate{}, &MhRelease{},
	nil, // 21: MhAck, which nothing sent
	&MhAbort{},
	&ReplAttach{}, &ReplAttachAck{}, &ReplUpdate{}, &ReplAck{}, &ReplFreeze{},
	&SigRequest{}, &SigResponse{}, &OutsourceCmd{}, &OutsourceResult{},
	&PayBatch{}, &PayBatchAck{}, &ReplBatch{}, &ReplBatchAck{},
	&ChanResume{}, &ChanResumeAck{}, &ReplResync{}, &ReplResyncAck{},
	&ReplNack{},
	&ChanAnnounce{}, &GossipSummary{},
}

var (
	codeByType = make(map[reflect.Type]byte, len(registry))
	typeByCode = make([]reflect.Type, len(registry)+1)
	binaryCode = make([]bool, len(registry)+1)
)

func init() {
	for i, m := range registry {
		if m == nil {
			continue
		}
		t := reflect.TypeOf(m).Elem()
		codeByType[t] = byte(i + 1)
		typeByCode[i+1] = t
		_, binaryCode[i+1] = m.(BinaryMessage)
	}
}

// Register appends a message type to the wire registry at package-init
// time, assigning it the next code. The control-plane protocol
// (internal/api) registers its messages this way so they travel in the
// same self-contained frames as the enclave protocol without the wire
// package depending on the api package. Codes stay stable as long as
// registration order is deterministic: exactly one init function, in
// one package, registering in fixed order. Register panics on duplicate
// types and on code-space exhaustion; both are programmer errors caught
// by the first test that touches either package.
func Register(m Message) {
	t := reflect.TypeOf(m).Elem()
	if _, dup := codeByType[t]; dup {
		panic(fmt.Sprintf("wire: duplicate registration of %T", m))
	}
	if len(registry) >= 255 {
		panic("wire: message code space exhausted")
	}
	registry = append(registry, m)
	code := byte(len(registry))
	codeByType[t] = code
	typeByCode = append(typeByCode, t)
	_, isBinary := m.(BinaryMessage)
	binaryCode = append(binaryCode, isBinary)
}

// MsgCode returns the registry code for a message type.
func MsgCode(m Message) (byte, error) {
	c, ok := codeByType[reflect.TypeOf(m).Elem()]
	if !ok {
		return 0, fmt.Errorf("%w: %T not in registry", ErrUnknownType, m)
	}
	return c, nil
}

// NewByCode returns a fresh zero message of the registered type.
func NewByCode(code byte) (Message, error) {
	if int(code) >= len(typeByCode) || typeByCode[code] == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, code)
	}
	return reflect.New(typeByCode[code]).Interface().(Message), nil
}

// Frame is a decoded transport frame. Code is the registry code from
// the frame header and Payload the raw encoded payload bytes — both
// are retained so receivers can verify the sender's bound token
// (cryptoutil.Session.OpenBound) against exactly the bytes that
// traveled. Payload aliases the decode buffer: like Token, it is valid
// only until the underlying buffer's next reuse.
type Frame struct {
	From    cryptoutil.PublicKey
	Token   []byte
	Msg     Message
	Code    byte
	Payload []byte
}

// gobBufPool recycles the scratch buffers gob payload encoding writes
// into; the encoded bytes are copied into the frame, so the buffer is
// free again as soon as AppendFrame returns.
var gobBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// AppendFrame encodes a complete frame (length prefix included) onto
// dst and returns the extended slice. BinaryMessage payloads encode
// directly into dst; everything else goes through gob with a pooled
// scratch buffer, so steady-state framing of hot-path messages is
// allocation-free once dst has grown to capacity.
func AppendFrame(dst []byte, from cryptoutil.PublicKey, token []byte, msg Message) ([]byte, error) {
	code, err := MsgCode(msg)
	if err != nil {
		return nil, err
	}
	if len(token) > 0xffff {
		return nil, fmt.Errorf("wire: token length %d exceeds uint16", len(token))
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched below
	var flags byte
	bm, isBinary := msg.(BinaryMessage)
	if isBinary {
		flags |= FlagBinaryPayload
	}
	dst = append(dst, FrameVersion, code, flags)
	dst = append(dst, from[:]...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(token)))
	dst = append(dst, token...)
	if isBinary {
		var err error
		if dst, err = bm.AppendPayload(dst); err != nil {
			return nil, err
		}
	} else {
		buf := gobBufPool.Get().(*bytes.Buffer)
		buf.Reset()
		if err := gob.NewEncoder(buf).Encode(msg); err != nil {
			gobBufPool.Put(buf)
			return nil, fmt.Errorf("wire: encoding %T: %w", msg, err)
		}
		dst = append(dst, buf.Bytes()...)
		gobBufPool.Put(buf)
	}
	n := len(dst) - start - 4
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// EncodePayload encodes msg's payload bytes onto dst, returning the
// extended slice plus the message's registry code and frame flags.
// It is the first half of a two-phase frame build: transports that
// bind the payload into the freshness token (SealAppendBound) need the
// payload bytes before the token exists, then assemble the frame with
// AppendFrameRaw. AppendFrame remains the one-shot form for tokenless
// and sim-path frames.
func EncodePayload(dst []byte, msg Message) ([]byte, byte, byte, error) {
	code, err := MsgCode(msg)
	if err != nil {
		return dst, 0, 0, err
	}
	var flags byte
	if bm, ok := msg.(BinaryMessage); ok {
		flags |= FlagBinaryPayload
		out, err := bm.AppendPayload(dst)
		if err != nil {
			return dst, 0, 0, err
		}
		return out, code, flags, nil
	}
	buf := gobBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := gob.NewEncoder(buf).Encode(msg); err != nil {
		gobBufPool.Put(buf)
		return dst, 0, 0, fmt.Errorf("wire: encoding %T: %w", msg, err)
	}
	dst = append(dst, buf.Bytes()...)
	gobBufPool.Put(buf)
	return dst, code, flags, nil
}

// AppendFrameRaw assembles a complete frame (length prefix included)
// from an already-encoded payload — the second half of the two-phase
// build started by EncodePayload.
func AppendFrameRaw(dst []byte, from cryptoutil.PublicKey, token []byte, code, flags byte, payload []byte) ([]byte, error) {
	if len(token) > 0xffff {
		return nil, fmt.Errorf("wire: token length %d exceeds uint16", len(token))
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched below
	dst = append(dst, FrameVersion, code, flags)
	dst = append(dst, from[:]...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(token)))
	dst = append(dst, token...)
	dst = append(dst, payload...)
	n := len(dst) - start - 4
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// DecodeFrame parses a frame body (the bytes following the length
// prefix). It never panics on malformed input.
func DecodeFrame(body []byte) (Frame, error) {
	var f Frame
	if err := decodeFrameInto(&f, body, nil, nil); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// decodeFrameInto parses body into f. tokenBuf, when non-nil, is reused
// for the token copy. reuse, when non-nil, is a per-code cache of
// previously decoded messages for binary payloads to overwrite (gob
// payloads always decode into a fresh message: gob merges into existing
// fields rather than overwriting).
func decodeFrameInto(f *Frame, body, tokenBuf []byte, reuse []Message) error {
	if len(body) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	if len(body) < frameHeaderSize {
		return ErrFrameTruncated
	}
	if body[0] != FrameVersion {
		return fmt.Errorf("%w: got %d, want %d", ErrFrameVersion, body[0], FrameVersion)
	}
	code := body[1]
	if int(code) >= len(typeByCode) || typeByCode[code] == nil {
		return fmt.Errorf("%w: %d", ErrUnknownType, code)
	}
	flags := body[2]
	copy(f.From[:], body[3:68])
	tlen := int(binary.BigEndian.Uint16(body[68:70]))
	rest := body[frameHeaderSize:]
	if len(rest) < tlen {
		return ErrFrameTruncated
	}
	if tlen > 0 {
		f.Token = append(tokenBuf[:0], rest[:tlen]...)
	} else {
		f.Token = nil
	}
	payload := rest[tlen:]
	f.Code = code
	f.Payload = payload
	if isBinary := flags&FlagBinaryPayload != 0; isBinary != binaryCode[code] {
		return fmt.Errorf("%w: code %d with flags %#x", ErrFrameEncoding, code, flags)
	}
	if binaryCode[code] {
		var msg Message
		// The bounds check guards a FrameReader built before a later
		// Register call (cannot happen after init, but harmless to keep).
		if reuse != nil && int(code) < len(reuse) {
			if msg = reuse[code]; msg == nil {
				msg, _ = NewByCode(code)
				reuse[code] = msg
			}
		} else {
			msg, _ = NewByCode(code)
		}
		if err := msg.(BinaryMessage).DecodePayload(payload); err != nil {
			return fmt.Errorf("%w: decoding %T: %v", ErrFramePayload, msg, err)
		}
		f.Msg = msg
		return nil
	}
	msg, _ := NewByCode(code)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(msg); err != nil {
		return fmt.Errorf("%w: decoding %T: %v", ErrFramePayload, msg, err)
	}
	f.Msg = msg
	return nil
}

// ReadFrame reads one length-prefixed frame body from r, reusing buf
// when it has capacity. It returns the body (valid until the next call
// with the same buf) for DecodeFrame.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The length prefix reads into the reused buffer rather than a local
	// array: locals passed through the io.Reader interface escape, which
	// would cost one heap allocation per frame.
	if cap(buf) < 4 {
		buf = make([]byte, 64)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(buf[:4]))
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	if n < frameHeaderSize {
		return nil, ErrFrameTruncated
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrFrameTruncated
		}
		return nil, err
	}
	return buf, nil
}

// FrameReader pumps frames off one connection with steady-state
// allocation reuse: the body buffer, the token copy, and one decoded
// message per binary-encodable type are recycled across calls. The
// returned Frame (its Token and, for binary payloads, its Msg) is valid
// only until the next Next call — exactly the per-connection read-loop
// discipline of internal/transport, which fully processes each frame
// before reading the next — unless the caller Keeps the message.
type FrameReader struct {
	r     io.Reader
	body  []byte
	token []byte
	reuse []Message // indexed by code; binary-encodable types only
}

// NewFrameReader wraps r (typically a *bufio.Reader) for frame pumping.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, reuse: make([]Message, len(typeByCode))}
}

// Keep hands the message of the frame Next just returned over to the
// caller for good: the reader decodes the next frame of that code into
// a fresh message instead of overwriting this one. Read loops call it
// before passing a binary message to another goroutine.
func (fr *FrameReader) Keep(f Frame) {
	if int(f.Code) < len(fr.reuse) && fr.reuse[f.Code] == f.Msg {
		fr.reuse[f.Code] = nil
	}
}

// Next reads and decodes one frame. See FrameReader for the validity
// window of the result.
func (fr *FrameReader) Next() (Frame, error) {
	body, err := ReadFrame(fr.r, fr.body)
	if err != nil {
		return Frame{}, err
	}
	fr.body = body
	var f Frame
	if err := decodeFrameInto(&f, body, fr.token, fr.reuse); err != nil {
		return Frame{}, err
	}
	if f.Token != nil {
		fr.token = f.Token
	}
	return f, nil
}

// --- Binary payload codecs (hot-path payment messages) ---

func appendChannelID(dst []byte, id ChannelID) ([]byte, error) {
	if len(id) > 0xff {
		return nil, fmt.Errorf("wire: channel id %d bytes exceeds uint8", len(id))
	}
	dst = append(dst, byte(len(id)))
	return append(dst, id...), nil
}

// readChannelID parses a length-prefixed channel id. prev is the
// receiver's previous value: when the bytes match (the common case for
// a reused hot-path message on one channel) it is returned as-is,
// avoiding the string conversion's allocation.
func readChannelID(src []byte, prev ChannelID) (ChannelID, []byte, error) {
	if len(src) < 1 {
		return "", nil, ErrFrameTruncated
	}
	n := int(src[0])
	if len(src) < 1+n {
		return "", nil, ErrFrameTruncated
	}
	b := src[1 : 1+n]
	if string(b) == string(prev) {
		return prev, src[1+n:], nil
	}
	return ChannelID(b), src[1+n:], nil
}

// AppendPayload implements BinaryMessage.
func (m *Pay) AppendPayload(dst []byte) ([]byte, error) {
	dst, err := appendChannelID(dst, m.Channel)
	if err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Amount))
	return binary.BigEndian.AppendUint32(dst, uint32(m.Count)), nil
}

// DecodePayload implements BinaryMessage.
func (m *Pay) DecodePayload(src []byte) error {
	ch, rest, err := readChannelID(src, m.Channel)
	if err != nil {
		return err
	}
	if len(rest) != 12 {
		return ErrFrameTruncated
	}
	m.Channel = ch
	m.Amount = chain.Amount(binary.BigEndian.Uint64(rest[:8]))
	m.Count = int(int32(binary.BigEndian.Uint32(rest[8:12])))
	return nil
}

// AppendPayload implements BinaryMessage.
func (m *PayAck) AppendPayload(dst []byte) ([]byte, error) {
	dst, err := appendChannelID(dst, m.Channel)
	if err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Amount))
	return binary.BigEndian.AppendUint32(dst, uint32(m.Count)), nil
}

// DecodePayload implements BinaryMessage.
func (m *PayAck) DecodePayload(src []byte) error {
	ch, rest, err := readChannelID(src, m.Channel)
	if err != nil {
		return err
	}
	if len(rest) != 12 {
		return ErrFrameTruncated
	}
	m.Channel = ch
	m.Amount = chain.Amount(binary.BigEndian.Uint64(rest[:8]))
	m.Count = int(int32(binary.BigEndian.Uint32(rest[8:12])))
	return nil
}

// AppendPayload implements BinaryMessage.
func (m *PayNack) AppendPayload(dst []byte) ([]byte, error) {
	dst, err := appendChannelID(dst, m.Channel)
	if err != nil {
		return dst, err
	}
	if len(m.Reason) > 0xffff {
		return dst, fmt.Errorf("wire: nack reason %d bytes exceeds uint16", len(m.Reason))
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Amount))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.Count))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Reason)))
	return append(dst, m.Reason...), nil
}

// DecodePayload implements BinaryMessage.
func (m *PayNack) DecodePayload(src []byte) error {
	ch, rest, err := readChannelID(src, m.Channel)
	if err != nil {
		return err
	}
	if len(rest) < 14 {
		return ErrFrameTruncated
	}
	rlen := int(binary.BigEndian.Uint16(rest[12:14]))
	if len(rest) != 14+rlen {
		return ErrFrameTruncated
	}
	m.Channel = ch
	m.Amount = chain.Amount(binary.BigEndian.Uint64(rest[:8]))
	m.Count = int(int32(binary.BigEndian.Uint32(rest[8:12])))
	m.Reason = string(rest[14:])
	return nil
}

// AppendPayload implements BinaryMessage.
func (m *PayBatch) AppendPayload(dst []byte) ([]byte, error) {
	dst, err := appendChannelID(dst, m.Channel)
	if err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Amounts)))
	for _, a := range m.Amounts {
		dst = binary.BigEndian.AppendUint64(dst, uint64(a))
	}
	return dst, nil
}

// DecodePayload implements BinaryMessage.
func (m *PayBatch) DecodePayload(src []byte) error {
	ch, rest, err := readChannelID(src, m.Channel)
	if err != nil {
		return err
	}
	if len(rest) < 4 {
		return ErrFrameTruncated
	}
	n := int(binary.BigEndian.Uint32(rest[:4]))
	if n > MaxPayBatch {
		return fmt.Errorf("%w: batch of %d exceeds %d", ErrFramePayload, n, MaxPayBatch)
	}
	if len(rest) != 4+8*n {
		return ErrFrameTruncated
	}
	m.Channel = ch
	m.Amounts = m.Amounts[:0]
	for i := 0; i < n; i++ {
		m.Amounts = append(m.Amounts, chain.Amount(binary.BigEndian.Uint64(rest[4+8*i:])))
	}
	return nil
}

// appendString/readString are the channel-id codec applied to plain
// strings (chain ids); ChannelID is a string type, so the conversions
// are free and the prev-reuse trick carries over unchanged.
func appendString(dst []byte, s string) ([]byte, error) {
	return appendChannelID(dst, ChannelID(s))
}

func readString(src []byte, prev string) (string, []byte, error) {
	s, rest, err := readChannelID(src, ChannelID(prev))
	return string(s), rest, err
}

// AppendLPChannelID and ReadLPChannelID expose the length-prefixed
// channel-id codec (with its previous-value reuse trick) to other
// packages' BinaryMessage implementations — the control-plane protocol
// (internal/api) hand-rolls its hot messages with them.
func AppendLPChannelID(dst []byte, id ChannelID) ([]byte, error) { return appendChannelID(dst, id) }

// ReadLPChannelID parses a length-prefixed channel id; see
// readChannelID for the prev-reuse contract.
func ReadLPChannelID(src []byte, prev ChannelID) (ChannelID, []byte, error) {
	return readChannelID(src, prev)
}

// AppendLPString and ReadLPString are the same codec for plain strings.
func AppendLPString(dst []byte, s string) ([]byte, error) { return appendString(dst, s) }

// ReadLPString parses a length-prefixed string, reusing prev when the
// bytes match.
func ReadLPString(src []byte, prev string) (string, []byte, error) { return readString(src, prev) }

// AppendStr16 and ReadStr16 are the uint16-length-prefixed string codec
// of the multi-hop payloads (mhcodec.go), for strings a uint8 length
// cannot hold.
func AppendStr16(dst []byte, s string) ([]byte, error) { return appendStr16(dst, s) }

// ReadStr16 parses a uint16-length-prefixed string.
func ReadStr16(src []byte) (string, []byte, error) { return readStr16(src) }

// AppendPayload implements BinaryMessage.
func (m *ReplBatch) AppendPayload(dst []byte) ([]byte, error) {
	if len(m.Ops) > MaxReplBatch {
		return dst, fmt.Errorf("wire: replication batch of %d exceeds %d", len(m.Ops), MaxReplBatch)
	}
	dst, err := appendString(dst, m.Chain)
	if err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint64(dst, m.FirstSeq)
	var flags byte
	if m.Retx {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Ops)))
	for i := range m.Ops {
		op := &m.Ops[i]
		dst = append(dst, op.Kind)
		if dst, err = appendChannelID(dst, op.Channel); err != nil {
			return dst, err
		}
		dst = binary.BigEndian.AppendUint64(dst, uint64(op.Amount))
		dst = binary.BigEndian.AppendUint32(dst, uint32(op.Count))
	}
	return dst, nil
}

// DecodePayload implements BinaryMessage.
func (m *ReplBatch) DecodePayload(src []byte) error {
	ch, rest, err := readString(src, m.Chain)
	if err != nil {
		return err
	}
	if len(rest) < 13 {
		return ErrFrameTruncated
	}
	firstSeq := binary.BigEndian.Uint64(rest[:8])
	flags := rest[8]
	if flags&^1 != 0 {
		return fmt.Errorf("%w: unknown replication batch flags %#x", ErrFramePayload, flags)
	}
	n := int(binary.BigEndian.Uint32(rest[9:13]))
	if n > MaxReplBatch {
		return fmt.Errorf("%w: replication batch of %d exceeds %d", ErrFramePayload, n, MaxReplBatch)
	}
	rest = rest[13:]
	m.Chain = ch
	m.FirstSeq = firstSeq
	m.Retx = flags&1 != 0
	// Reslice before appending: slot i of the previous journey is read
	// (for the channel-id reuse) before slot i is overwritten.
	old := m.Ops
	m.Ops = m.Ops[:0]
	for i := 0; i < n; i++ {
		if len(rest) < 1 {
			return ErrFrameTruncated
		}
		kind := rest[0]
		var prev ChannelID
		if i < len(old) {
			prev = old[i].Channel
		}
		chID, r2, err := readChannelID(rest[1:], prev)
		if err != nil {
			return err
		}
		if len(r2) < 12 {
			return ErrFrameTruncated
		}
		m.Ops = append(m.Ops, ReplBatchOp{
			Kind:    kind,
			Channel: chID,
			Amount:  chain.Amount(binary.BigEndian.Uint64(r2[:8])),
			Count:   int(int32(binary.BigEndian.Uint32(r2[8:12]))),
		})
		rest = r2[12:]
	}
	if len(rest) != 0 {
		return ErrFrameTruncated
	}
	return nil
}

// AppendPayload implements BinaryMessage.
func (m *ReplBatchAck) AppendPayload(dst []byte) ([]byte, error) {
	dst, err := appendString(dst, m.Chain)
	if err != nil {
		return dst, err
	}
	return binary.BigEndian.AppendUint64(dst, m.Seq), nil
}

// DecodePayload implements BinaryMessage.
func (m *ReplBatchAck) DecodePayload(src []byte) error {
	ch, rest, err := readString(src, m.Chain)
	if err != nil {
		return err
	}
	if len(rest) != 8 {
		return ErrFrameTruncated
	}
	m.Chain = ch
	m.Seq = binary.BigEndian.Uint64(rest)
	return nil
}

// AppendPayload implements BinaryMessage.
func (m *ReplNack) AppendPayload(dst []byte) ([]byte, error) {
	dst, err := appendString(dst, m.Chain)
	if err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint64(dst, m.WantSeq)
	return binary.BigEndian.AppendUint64(dst, m.HaveThrough), nil
}

// DecodePayload implements BinaryMessage.
func (m *ReplNack) DecodePayload(src []byte) error {
	ch, rest, err := readString(src, m.Chain)
	if err != nil {
		return err
	}
	if len(rest) != 16 {
		return ErrFrameTruncated
	}
	m.Chain = ch
	m.WantSeq = binary.BigEndian.Uint64(rest[:8])
	m.HaveThrough = binary.BigEndian.Uint64(rest[8:16])
	return nil
}

// AppendPayload implements BinaryMessage.
func (m *PayBatchAck) AppendPayload(dst []byte) ([]byte, error) {
	dst, err := appendChannelID(dst, m.Channel)
	if err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Total))
	return binary.BigEndian.AppendUint32(dst, uint32(m.Count)), nil
}

// DecodePayload implements BinaryMessage.
func (m *PayBatchAck) DecodePayload(src []byte) error {
	ch, rest, err := readChannelID(src, m.Channel)
	if err != nil {
		return err
	}
	if len(rest) != 12 {
		return ErrFrameTruncated
	}
	m.Channel = ch
	m.Total = chain.Amount(binary.BigEndian.Uint64(rest[:8]))
	m.Count = int(int32(binary.BigEndian.Uint32(rest[8:12])))
	return nil
}
