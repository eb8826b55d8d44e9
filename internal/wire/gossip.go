package wire

import (
	"encoding/binary"
	"fmt"

	"teechain/internal/chain"
	"teechain/internal/cryptoutil"
)

// Channel-graph gossip (internal/route). Like Hello, these are
// host-level frames: they never enter an enclave or the simulated
// network, so they carry no session token and no WireSize — routing
// is advisory untrusted-host business, while value safety stays with
// the enclave multihop protocol. Both are hand-rolled
// BinaryMessage codecs: a 50-node mesh floods announcements on every
// topology change, and gob's per-frame type descriptors would dominate
// the payload.

// EdgeAnnounce advertises one DIRECTED edge of the payment-channel
// graph: the announcing endpoint From can currently forward up to
// Capacity over Channel to To, and charges FeeBase plus
// amount*FeeRatePPM/1_000_000 for each payment it forwards as an
// intermediary. Version is a per-(From, Channel) staleness counter,
// monotonic for the announcement's lifetime: receivers keep the
// highest Version per directed edge and drop (without re-flooding)
// anything at or below it. Closed retracts the edge.
type EdgeAnnounce struct {
	Channel    ChannelID
	From       cryptoutil.PublicKey // announcing endpoint (edge tail)
	To         cryptoutil.PublicKey // counterparty (edge head)
	Capacity   chain.Amount
	FeeBase    chain.Amount
	FeeRatePPM uint32
	Version    uint64
	Closed     bool
}

// edgeAnnounceFixed is an EdgeAnnounce's encoding less its channel id:
// both keys, capacity, fee base, fee rate, version and the closed flag.
const edgeAnnounceFixed = 2*keySize + 29

// MaxChanAnnounce bounds the edges one ChanAnnounce may carry: at most
// 415 bytes each (a 255-byte channel id), a maximal frame stays inside
// MaxFrameSize. Longer queues go out in several frames.
const MaxChanAnnounce = 2048

// ChanAnnounce is the gossip frame: every edge announcement a host has
// queued for one peer since its last flush, oldest first. One frame per
// peer per flush, not one per announcement, is what keeps the routing
// plane's frame count below the payments' own under load.
type ChanAnnounce struct {
	Edges []EdgeAnnounce
}

// AppendPayload implements BinaryMessage.
func (m *ChanAnnounce) AppendPayload(dst []byte) ([]byte, error) {
	if len(m.Edges) > MaxChanAnnounce {
		return dst, fmt.Errorf("wire: announcement of %d edges exceeds %d", len(m.Edges), MaxChanAnnounce)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Edges)))
	var err error
	for i := range m.Edges {
		e := &m.Edges[i]
		if dst, err = appendChannelID(dst, e.Channel); err != nil {
			return dst, err
		}
		dst = append(dst, e.From[:]...)
		dst = append(dst, e.To[:]...)
		dst = binary.BigEndian.AppendUint64(dst, uint64(e.Capacity))
		dst = binary.BigEndian.AppendUint64(dst, uint64(e.FeeBase))
		dst = binary.BigEndian.AppendUint32(dst, e.FeeRatePPM)
		dst = binary.BigEndian.AppendUint64(dst, e.Version)
		var closed byte
		if e.Closed {
			closed = 1
		}
		dst = append(dst, closed)
	}
	return dst, nil
}

// DecodePayload implements BinaryMessage. The edge count is checked
// against the bytes that remain before the edge slice grows for it.
func (m *ChanAnnounce) DecodePayload(src []byte) error {
	if len(src) < 4 {
		return ErrFrameTruncated
	}
	n := int(binary.BigEndian.Uint32(src[:4]))
	if n > MaxChanAnnounce {
		return fmt.Errorf("%w: announcement of %d edges exceeds %d", ErrFramePayload, n, MaxChanAnnounce)
	}
	rest := src[4:]
	if len(rest) < n*(1+edgeAnnounceFixed) {
		return ErrFrameTruncated
	}
	old := m.Edges
	m.Edges = m.Edges[:0]
	for i := 0; i < n; i++ {
		var prev ChannelID
		if i < len(old) {
			prev = old[i].Channel
		}
		ch, r, err := readChannelID(rest, prev)
		if err != nil {
			return err
		}
		if len(r) < edgeAnnounceFixed {
			return ErrFrameTruncated
		}
		if b := r[edgeAnnounceFixed-1]; b > 1 {
			return fmt.Errorf("%w: bad closed flag %d", ErrFramePayload, b)
		}
		e := EdgeAnnounce{Channel: ch}
		copy(e.From[:], r[:keySize])
		copy(e.To[:], r[keySize:2*keySize])
		r = r[2*keySize:]
		e.Capacity = chain.Amount(binary.BigEndian.Uint64(r[:8]))
		e.FeeBase = chain.Amount(binary.BigEndian.Uint64(r[8:16]))
		e.FeeRatePPM = binary.BigEndian.Uint32(r[16:20])
		e.Version = binary.BigEndian.Uint64(r[20:28])
		e.Closed = r[28] == 1
		m.Edges = append(m.Edges, e)
		rest = r[29:]
	}
	if len(rest) != 0 {
		return ErrFrameTruncated
	}
	return nil
}

// MaxGossipSummary bounds the digest entries one GossipSummary may
// carry; at ~90 bytes per entry a maximal summary stays well inside
// MaxFrameSize. Larger graphs resync in multiple summaries.
const MaxGossipSummary = 8192

// GossipDigest names one directed edge and the highest announcement
// version its sender holds for it.
type GossipDigest struct {
	Channel ChannelID
	From    cryptoutil.PublicKey
	Version uint64
}

// GossipSummary is the anti-entropy half of the gossip protocol: sent
// whenever a peer connection (re-)establishes, it digests every
// directed edge the sender's graph holds. The receiver answers with
// ChanAnnounce frames carrying each edge it knows at a strictly higher
// version — and each edge absent from the summary entirely — so two graphs
// converge after any partition without replaying the flood history.
type GossipSummary struct {
	Entries []GossipDigest
}

// AppendPayload implements BinaryMessage.
func (m *GossipSummary) AppendPayload(dst []byte) ([]byte, error) {
	if len(m.Entries) > MaxGossipSummary {
		return dst, fmt.Errorf("wire: gossip summary of %d exceeds %d", len(m.Entries), MaxGossipSummary)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Entries)))
	var err error
	for i := range m.Entries {
		e := &m.Entries[i]
		if dst, err = appendChannelID(dst, e.Channel); err != nil {
			return dst, err
		}
		dst = append(dst, e.From[:]...)
		dst = binary.BigEndian.AppendUint64(dst, e.Version)
	}
	return dst, nil
}

// DecodePayload implements BinaryMessage.
func (m *GossipSummary) DecodePayload(src []byte) error {
	if len(src) < 4 {
		return ErrFrameTruncated
	}
	n := int(binary.BigEndian.Uint32(src[:4]))
	if n > MaxGossipSummary {
		return fmt.Errorf("%w: gossip summary of %d exceeds %d", ErrFramePayload, n, MaxGossipSummary)
	}
	rest := src[4:]
	old := m.Entries
	m.Entries = m.Entries[:0]
	for i := 0; i < n; i++ {
		var prev ChannelID
		if i < len(old) {
			prev = old[i].Channel
		}
		chID, r2, err := readChannelID(rest, prev)
		if err != nil {
			return err
		}
		if len(r2) < keySize+8 {
			return ErrFrameTruncated
		}
		var e GossipDigest
		e.Channel = chID
		copy(e.From[:], r2[:keySize])
		e.Version = binary.BigEndian.Uint64(r2[keySize : keySize+8])
		m.Entries = append(m.Entries, e)
		rest = r2[keySize+8:]
	}
	if len(rest) != 0 {
		return ErrFrameTruncated
	}
	return nil
}
