// Package wire defines the binary protocol between a storage client and the
// passive block server (cmd/blockstored).
//
// The protocol is deliberately minimal because Definition 3.1 permits only
// two moves — download a ball, upload a ball — plus a handshake so the
// client can learn the store shape. Every message is a frame:
//
//	+--------+----------------+------------------+
//	| type   | payload length | payload          |
//	| 1 byte | 4 bytes BE     | length bytes     |
//	+--------+----------------+------------------+
//
// Payloads:
//
//	MsgInfoReq        (empty)
//	MsgInfoResp       size uint64 ‖ blockSize uint32 ‖ epoch uint64 ‖ partitions uint32
//	MsgDownloadReq    addr uint64
//	MsgDownloadResp   block bytes
//	MsgUploadReq      addr uint64 ‖ block bytes
//	MsgUploadResp     (empty)
//	MsgError          UTF-8 message
//	MsgReadBatchReq   count uint32 ‖ count × addr uint64
//	MsgReadBatchResp  count uint32 ‖ count × block bytes (uniform size)
//	MsgWriteBatchReq  count uint32 ‖ count × (addr uint64 ‖ block bytes)
//	MsgWriteBatchResp (empty)
//	MsgOpenReq        nameLen uint16 ‖ name bytes ‖ slots uint64 ‖ blockSize uint32
//	MsgOpenResp       slots uint64 ‖ blockSize uint32 ‖ epoch uint64 ‖ partitions uint32
//	MsgAccessReq      op uint8 ‖ index uint64 ‖ record bytes (writes only)
//	MsgAccessResp     record bytes
//	MsgReplStatusReq  (empty)
//	MsgReplStatusResp count uint16 ‖ count × (nameLen uint16 ‖ name ‖ state uint8 ‖ epoch uint64 ‖ dirty uint64)
//	MsgResyncReq      epoch uint64
//	MsgResyncResp     ok uint8 ‖ epoch uint64
//	MsgBusyResp       retryAfterMicros uint32 ‖ queued uint32
//	MsgStatsReq       (empty)
//	MsgStatsResp      count uint16 ‖ count × stats entry (see StatsEntry)
//
// MsgBusyResp is the backpressure signal: the server shed the request
// because the namespace's admission queue is full; retry after the hint.
// MsgStatsReq/Resp expose the daemon's per-namespace operability metrics
// (admission counters, queue depths, stash depth, WAL sync latency). Both
// are specified in load.go.
//
// The batch frames carry the multi-block operations of store.BatchServer:
// one frame per direction replaces count individual round trips. Because a
// batch is by definition a fixed, privacy-independent set of addresses
// (every construction in this module derives its per-query address set
// before touching the server), batching changes only the framing of the
// transcript, not its content. Block sizes within a batch are uniform (the
// store is an array of equal slots), so counts fully determine the layout
// and no per-entry length prefixes are needed.
//
// MsgOpenReq/MsgOpenResp select a named namespace (an independent block
// store hosted by the same daemon) for all subsequent frames on the
// connection. A client that never sends MsgOpenReq speaks to the daemon's
// default namespace, so the pre-namespace handshake (MsgInfoReq alone)
// remains a valid complete session: the protocol is backward compatible
// with single-store clients. The requested slots/blockSize pair is the
// shape the client wants a freshly created namespace to have; zero means
// "whatever the server already has (or defaults to)". The response carries
// the namespace's actual shape, exactly like MsgInfoResp.
//
// The epoch of MsgInfoResp/MsgOpenResp is the server's recovery epoch: a
// counter a durable daemon (-data) bumps on every startup, so a client
// comparing the epoch across connections can detect that the server
// restarted (and therefore recovered) in between; 0 means the server holds
// no durable state. Partitions is the number of independent scheme
// instances a proxy-backed namespace's logical address space is striped
// over (1 = unpartitioned); block namespaces send 0 ("no partitioning
// claim"). Both frames always carry all four fields (24 bytes).
//
// MsgAccessReq/MsgAccessResp are the proxy-mode frames: a logical
// read/write of one record at the privacy-scheme level, not a block
// operation at the store level. They are served only by namespaces backed
// by a privacy proxy (internal/proxy) — a trusted session-serving layer
// that multiplexes many clients over one scheme instance and hides the
// obfuscated backing store entirely. On a proxy-backed namespace the block
// frames (download/upload/batch) are rejected: the whole point of the
// deployment shape is that clients never see physical addresses. The shape
// reported by MsgInfoResp/MsgOpenResp on such a namespace is the logical
// one (records × record size).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Message type tags.
const (
	MsgInfoReq byte = iota + 1
	MsgInfoResp
	MsgDownloadReq
	MsgDownloadResp
	MsgUploadReq
	MsgUploadResp
	MsgError
	MsgReadBatchReq
	MsgReadBatchResp
	MsgWriteBatchReq
	MsgWriteBatchResp
	MsgOpenReq
	MsgOpenResp
	MsgAccessReq
	MsgAccessResp
	MsgReplStatusReq
	MsgReplStatusResp
	MsgResyncReq
	MsgResyncResp
	MsgBusyResp
	MsgStatsReq
	MsgStatsResp
)

// typeNames maps message type tags to their symbolic wire names, for
// telemetry labels and log lines.
var typeNames = map[byte]string{
	MsgInfoReq:        "info_req",
	MsgInfoResp:       "info_resp",
	MsgDownloadReq:    "download_req",
	MsgDownloadResp:   "download_resp",
	MsgUploadReq:      "upload_req",
	MsgUploadResp:     "upload_resp",
	MsgError:          "error",
	MsgReadBatchReq:   "read_batch_req",
	MsgReadBatchResp:  "read_batch_resp",
	MsgWriteBatchReq:  "write_batch_req",
	MsgWriteBatchResp: "write_batch_resp",
	MsgOpenReq:        "open_req",
	MsgOpenResp:       "open_resp",
	MsgAccessReq:      "access_req",
	MsgAccessResp:     "access_resp",
	MsgReplStatusReq:  "repl_status_req",
	MsgReplStatusResp: "repl_status_resp",
	MsgResyncReq:      "resync_req",
	MsgResyncResp:     "resync_resp",
	MsgBusyResp:       "busy_resp",
	MsgStatsReq:       "stats_req",
	MsgStatsResp:      "stats_resp",
}

// TypeName returns the symbolic name of a message type tag ("unknown"
// for tags outside the protocol).
func TypeName(t byte) string {
	if n, ok := typeNames[t]; ok {
		return n
	}
	return "unknown"
}

// MaxNamespaceName bounds the length of a namespace name on the wire. Names
// are identifiers, not payloads; the cap keeps a hostile peer from smuggling
// megabytes into what servers may log or key maps by.
const MaxNamespaceName = 255

// MaxFrame bounds accepted payload sizes to keep a malicious peer from
// forcing huge allocations. 16 MiB is far above any realistic block size.
const MaxFrame = 16 << 20

// Errors returned by the codec.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrShortPayload  = errors.New("wire: payload too short")
	ErrUnexpected    = errors.New("wire: unexpected message type")
)

// Frame is one decoded protocol message.
type Frame struct {
	Type    byte
	Payload []byte
}

// WriteFrame encodes and writes one frame as two writes: a stack header,
// then the payload, with no intermediate concatenation. Callers on a hot
// path should hand it a buffered writer so both land in one flush (every
// caller in this module does); zero-allocation paths skip WriteFrame
// entirely and build complete frames into a reused buffer with BeginFrame /
// AppendFrame.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [frameHeader]byte
	hdr[0] = f.Type
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(f.Payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	if len(f.Payload) == 0 {
		return nil
	}
	if _, err := w.Write(f.Payload); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	return nil
}

// ReadFrame reads and decodes one frame.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(hdr[1:5])
	if n > MaxFrame {
		return Frame{}, ErrFrameTooLarge
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r, p); err != nil {
		return Frame{}, fmt.Errorf("wire: reading payload: %w", err)
	}
	return Frame{Type: hdr[0], Payload: p}, nil
}

// Info is the decoded MsgInfoResp payload. Epoch is the server's recovery
// epoch (0 when the server holds no durable state). Partitions is the
// scheme-partition count of a proxy-backed namespace (≥ 1 there; 0 for
// block namespaces, meaning "no partitioning claim").
type Info struct {
	Size       uint64
	BlockSize  uint32
	Epoch      uint64
	Partitions uint32
}

// infoSize is the fixed MsgInfoResp/MsgOpenResp payload size.
const infoSize = 24

// EncodeInfo builds a MsgInfoResp frame.
func EncodeInfo(info Info) Frame {
	p := make([]byte, infoSize)
	binary.BigEndian.PutUint64(p[:8], info.Size)
	binary.BigEndian.PutUint32(p[8:12], info.BlockSize)
	binary.BigEndian.PutUint64(p[12:20], info.Epoch)
	binary.BigEndian.PutUint32(p[20:24], info.Partitions)
	return Frame{Type: MsgInfoResp, Payload: p}
}

// DecodeInfo parses a MsgInfoResp payload, which is exactly 24 bytes.
func DecodeInfo(p []byte) (Info, error) {
	if len(p) != infoSize {
		return Info{}, fmt.Errorf("%w: info payload %d bytes", ErrShortPayload, len(p))
	}
	return Info{
		Size:       binary.BigEndian.Uint64(p[:8]),
		BlockSize:  binary.BigEndian.Uint32(p[8:12]),
		Epoch:      binary.BigEndian.Uint64(p[12:20]),
		Partitions: binary.BigEndian.Uint32(p[20:24]),
	}, nil
}

// EncodeDownloadReq builds a MsgDownloadReq frame for addr.
func EncodeDownloadReq(addr uint64) Frame {
	p := make([]byte, 8)
	binary.BigEndian.PutUint64(p, addr)
	return Frame{Type: MsgDownloadReq, Payload: p}
}

// DecodeDownloadReq parses a MsgDownloadReq payload.
func DecodeDownloadReq(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("%w: download request %d bytes", ErrShortPayload, len(p))
	}
	return binary.BigEndian.Uint64(p), nil
}

// EncodeUploadReq builds a MsgUploadReq frame for addr and block data.
func EncodeUploadReq(addr uint64, data []byte) Frame {
	p := make([]byte, 8+len(data))
	binary.BigEndian.PutUint64(p[:8], addr)
	copy(p[8:], data)
	return Frame{Type: MsgUploadReq, Payload: p}
}

// DecodeUploadReq parses a MsgUploadReq payload into (addr, block data).
// The returned slice aliases p.
func DecodeUploadReq(p []byte) (uint64, []byte, error) {
	if len(p) < 8 {
		return 0, nil, fmt.Errorf("%w: upload request %d bytes", ErrShortPayload, len(p))
	}
	return binary.BigEndian.Uint64(p[:8]), p[8:], nil
}

// --- batch frames ------------------------------------------------------------

// ErrBatchShape reports a batch payload whose length is inconsistent with
// its declared count.
var ErrBatchShape = errors.New("wire: batch payload shape mismatch")

// EncodeReadBatchReq builds a MsgReadBatchReq frame for the given addresses.
func EncodeReadBatchReq(addrs []int) Frame {
	p := make([]byte, 4+8*len(addrs))
	binary.BigEndian.PutUint32(p[:4], uint32(len(addrs)))
	for i, a := range addrs {
		binary.BigEndian.PutUint64(p[4+8*i:], uint64(a))
	}
	return Frame{Type: MsgReadBatchReq, Payload: p}
}

// DecodeReadBatchReq parses a MsgReadBatchReq payload.
func DecodeReadBatchReq(p []byte) ([]int, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: read batch request %d bytes", ErrShortPayload, len(p))
	}
	count := int(binary.BigEndian.Uint32(p[:4]))
	// Compare by division: the naive len(p) != 4+8*count check overflows
	// 32-bit int for forged counts near 2³¹/8, letting a tiny frame drive
	// a huge allocation below.
	if (len(p)-4)%8 != 0 || (len(p)-4)/8 != count {
		return nil, fmt.Errorf("%w: %d addresses in %d payload bytes", ErrBatchShape, count, len(p))
	}
	addrs := make([]int, count)
	for i := range addrs {
		addrs[i] = int(binary.BigEndian.Uint64(p[4+8*i:]))
	}
	return addrs, nil
}

// EncodeReadBatchResp builds a MsgReadBatchResp frame. All blocks must have
// the same length (the store's slot size).
func EncodeReadBatchResp(blocks [][]byte) Frame {
	size := 0
	if len(blocks) > 0 {
		size = len(blocks[0])
	}
	p := make([]byte, 4, 4+len(blocks)*size)
	binary.BigEndian.PutUint32(p[:4], uint32(len(blocks)))
	for _, b := range blocks {
		p = append(p, b...)
	}
	return Frame{Type: MsgReadBatchResp, Payload: p}
}

// DecodeReadBatchResp parses a MsgReadBatchResp payload into per-block
// slices. The returned slices alias p.
func DecodeReadBatchResp(p []byte) ([][]byte, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: read batch response %d bytes", ErrShortPayload, len(p))
	}
	count := int(binary.BigEndian.Uint32(p[:4]))
	body := p[4:]
	if count == 0 {
		if len(body) != 0 {
			return nil, fmt.Errorf("%w: empty batch with %d trailing bytes", ErrBatchShape, len(body))
		}
		return nil, nil
	}
	// Blocks are at least one byte, so count can never exceed the body; a
	// forged huge count with an empty body must not drive the allocation
	// below (the same threat MaxFrame guards against).
	if len(body) == 0 || len(body)%count != 0 {
		return nil, fmt.Errorf("%w: %d body bytes not divisible by %d blocks", ErrBatchShape, len(body), count)
	}
	size := len(body) / count
	blocks := make([][]byte, count)
	for i := range blocks {
		// Capacity-capped so an append through one block can never bleed
		// into its neighbor; callers may therefore keep the slices without
		// re-copying.
		blocks[i] = body[i*size : (i+1)*size : (i+1)*size]
	}
	return blocks, nil
}

// EncodeWriteBatchReq builds a MsgWriteBatchReq frame from parallel address
// and block slices. All blocks must have the same length.
func EncodeWriteBatchReq(addrs []int, blocks [][]byte) Frame {
	size := 0
	if len(blocks) > 0 {
		size = len(blocks[0])
	}
	p := make([]byte, 4, 4+len(addrs)*(8+size))
	binary.BigEndian.PutUint32(p[:4], uint32(len(addrs)))
	var a8 [8]byte
	for i, a := range addrs {
		binary.BigEndian.PutUint64(a8[:], uint64(a))
		p = append(p, a8[:]...)
		p = append(p, blocks[i]...)
	}
	return Frame{Type: MsgWriteBatchReq, Payload: p}
}

// DecodeWriteBatchReq parses a MsgWriteBatchReq payload into parallel
// address and block slices. The block slices alias p.
func DecodeWriteBatchReq(p []byte) ([]int, [][]byte, error) {
	if len(p) < 4 {
		return nil, nil, fmt.Errorf("%w: write batch request %d bytes", ErrShortPayload, len(p))
	}
	count := int(binary.BigEndian.Uint32(p[:4]))
	body := p[4:]
	if count == 0 {
		if len(body) != 0 {
			return nil, nil, fmt.Errorf("%w: empty batch with %d trailing bytes", ErrBatchShape, len(body))
		}
		return nil, nil, nil
	}
	if len(body)%count != 0 {
		return nil, nil, fmt.Errorf("%w: %d body bytes not divisible by %d entries", ErrBatchShape, len(body), count)
	}
	entry := len(body) / count
	if entry < 8 {
		return nil, nil, fmt.Errorf("%w: %d-byte entries too small for an address", ErrBatchShape, entry)
	}
	addrs := make([]int, count)
	blocks := make([][]byte, count)
	for i := range addrs {
		e := body[i*entry : (i+1)*entry]
		addrs[i] = int(binary.BigEndian.Uint64(e[:8]))
		blocks[i] = e[8:]
	}
	return addrs, blocks, nil
}

// --- namespace frames --------------------------------------------------------

// ErrName reports an invalid namespace name on the wire.
var ErrName = errors.New("wire: invalid namespace name")

// OpenReq is the decoded MsgOpenReq payload: select (and, where the server
// permits, create) the named namespace. Slots and BlockSize are the shape
// the client wants a new namespace to have; zero means "use the server's
// existing shape or defaults".
type OpenReq struct {
	Name      string
	Slots     uint64
	BlockSize uint32
}

// EncodeOpenReq builds a MsgOpenReq frame. The name must be at most
// MaxNamespaceName bytes.
func EncodeOpenReq(req OpenReq) (Frame, error) {
	if len(req.Name) > MaxNamespaceName {
		return Frame{}, fmt.Errorf("%w: %d bytes exceeds the %d-byte cap", ErrName, len(req.Name), MaxNamespaceName)
	}
	p := make([]byte, 2+len(req.Name)+12)
	binary.BigEndian.PutUint16(p[:2], uint16(len(req.Name)))
	copy(p[2:], req.Name)
	tail := p[2+len(req.Name):]
	binary.BigEndian.PutUint64(tail[:8], req.Slots)
	binary.BigEndian.PutUint32(tail[8:12], req.BlockSize)
	return Frame{Type: MsgOpenReq, Payload: p}, nil
}

// DecodeOpenReq parses a MsgOpenReq payload. The declared name length must
// account for the payload exactly — trailing or missing bytes are rejected,
// so a forged length can neither truncate the shape fields nor alias them
// into the name.
func DecodeOpenReq(p []byte) (OpenReq, error) {
	if len(p) < 2+12 {
		return OpenReq{}, fmt.Errorf("%w: open request %d bytes", ErrShortPayload, len(p))
	}
	nameLen := int(binary.BigEndian.Uint16(p[:2]))
	if nameLen > MaxNamespaceName {
		return OpenReq{}, fmt.Errorf("%w: %d bytes exceeds the %d-byte cap", ErrName, nameLen, MaxNamespaceName)
	}
	if len(p) != 2+nameLen+12 {
		return OpenReq{}, fmt.Errorf("%w: name length %d in %d payload bytes", ErrBatchShape, nameLen, len(p))
	}
	tail := p[2+nameLen:]
	return OpenReq{
		Name:      string(p[2 : 2+nameLen]),
		Slots:     binary.BigEndian.Uint64(tail[:8]),
		BlockSize: binary.BigEndian.Uint32(tail[8:12]),
	}, nil
}

// EncodeOpenResp builds a MsgOpenResp frame carrying the opened namespace's
// actual shape (the MsgInfoResp layout under a distinct type tag, so a
// pipelined client can never confuse the two handshakes).
func EncodeOpenResp(info Info) Frame {
	f := EncodeInfo(info)
	f.Type = MsgOpenResp
	return f
}

// DecodeOpenResp parses a MsgOpenResp payload.
func DecodeOpenResp(p []byte) (Info, error) {
	info, err := DecodeInfo(p)
	if err != nil {
		return Info{}, fmt.Errorf("open response: %w", err)
	}
	return info, nil
}

// --- proxy access frames -----------------------------------------------------

// Access operation codes on the wire.
const (
	accessOpRead  = 0
	accessOpWrite = 1
)

// ErrAccess reports a malformed logical-access payload.
var ErrAccess = errors.New("wire: invalid access request")

// AccessReq is the decoded MsgAccessReq payload: one logical record
// operation against a proxy-backed namespace. For writes, Data carries the
// new record contents (exactly the namespace's record size — the server
// validates); for reads, Data is empty.
type AccessReq struct {
	Write bool
	Index uint64
	Data  []byte
}

// EncodeAccessReq builds a MsgAccessReq frame.
func EncodeAccessReq(req AccessReq) Frame {
	op := byte(accessOpRead)
	var data []byte
	if req.Write {
		op = accessOpWrite
		data = req.Data
	}
	p := make([]byte, 9+len(data))
	p[0] = op
	binary.BigEndian.PutUint64(p[1:9], req.Index)
	copy(p[9:], data)
	return Frame{Type: MsgAccessReq, Payload: p}
}

// DecodeAccessReq parses a MsgAccessReq payload. A read must carry no
// record bytes (a forged tail cannot smuggle payload past a server that
// only validates writes); a write must carry at least one. The returned
// Data aliases p.
func DecodeAccessReq(p []byte) (AccessReq, error) {
	if len(p) < 9 {
		return AccessReq{}, fmt.Errorf("%w: access request %d bytes", ErrShortPayload, len(p))
	}
	req := AccessReq{Index: binary.BigEndian.Uint64(p[1:9])}
	switch p[0] {
	case accessOpRead:
		if len(p) != 9 {
			return AccessReq{}, fmt.Errorf("%w: read carries %d record bytes", ErrAccess, len(p)-9)
		}
	case accessOpWrite:
		req.Write = true
		req.Data = p[9:]
		if len(req.Data) == 0 {
			return AccessReq{}, fmt.Errorf("%w: write carries no record bytes", ErrAccess)
		}
	default:
		return AccessReq{}, fmt.Errorf("%w: unknown op %d", ErrAccess, p[0])
	}
	return req, nil
}

// EncodeAccessResp builds a MsgAccessResp frame carrying the record value
// the access returned (the previous value for writes).
func EncodeAccessResp(record []byte) Frame {
	return Frame{Type: MsgAccessResp, Payload: record}
}

// --- replication frames ------------------------------------------------------

// Replica state codes on the wire (matching store.ReplicaState).
const (
	ReplicaStateUp      = 0
	ReplicaStateSyncing = 1
	ReplicaStateDown    = 2
)

// MaxReplicas bounds how many per-replica entries a status frame may
// declare. Clusters are a handful of machines; the cap keeps a forged
// count from driving a large allocation.
const MaxReplicas = 1024

// ErrReplica reports a malformed replication frame.
var ErrReplica = errors.New("wire: invalid replication frame")

// ReplicaStatus is one replica's health entry in a MsgReplStatusResp: the
// observing cluster's name for the replica, its failover state, the
// recovery epoch it was last promoted at, and the number of addresses in
// its resync backlog.
type ReplicaStatus struct {
	Name  string
	State uint8
	Epoch uint64
	Dirty uint64
}

// EncodeReplStatusResp builds a MsgReplStatusResp frame. Replica names
// are capped at MaxNamespaceName bytes, like namespace names.
func EncodeReplStatusResp(reps []ReplicaStatus) (Frame, error) {
	if len(reps) > MaxReplicas {
		return Frame{}, fmt.Errorf("%w: %d replicas exceeds the %d cap", ErrReplica, len(reps), MaxReplicas)
	}
	p := make([]byte, 2, 2+len(reps)*(2+17))
	binary.BigEndian.PutUint16(p[:2], uint16(len(reps)))
	var u8 [8]byte
	for _, r := range reps {
		if len(r.Name) > MaxNamespaceName {
			return Frame{}, fmt.Errorf("%w: replica name %d bytes exceeds the %d-byte cap", ErrName, len(r.Name), MaxNamespaceName)
		}
		var n2 [2]byte
		binary.BigEndian.PutUint16(n2[:], uint16(len(r.Name)))
		p = append(p, n2[:]...)
		p = append(p, r.Name...)
		p = append(p, r.State)
		binary.BigEndian.PutUint64(u8[:], r.Epoch)
		p = append(p, u8[:]...)
		binary.BigEndian.PutUint64(u8[:], r.Dirty)
		p = append(p, u8[:]...)
	}
	return Frame{Type: MsgReplStatusResp, Payload: p}, nil
}

// DecodeReplStatusResp parses a MsgReplStatusResp payload. Every entry's
// declared name length must be consistent with the remaining payload, and
// the payload must end exactly at the last entry — forged counts and
// lengths can neither over-allocate nor alias fields into names.
func DecodeReplStatusResp(p []byte) ([]ReplicaStatus, error) {
	if len(p) < 2 {
		return nil, fmt.Errorf("%w: status response %d bytes", ErrShortPayload, len(p))
	}
	count := int(binary.BigEndian.Uint16(p[:2]))
	if count > MaxReplicas {
		return nil, fmt.Errorf("%w: %d replicas exceeds the %d cap", ErrReplica, count, MaxReplicas)
	}
	body := p[2:]
	reps := make([]ReplicaStatus, 0, count)
	for i := 0; i < count; i++ {
		if len(body) < 2 {
			return nil, fmt.Errorf("%w: truncated entry %d", ErrReplica, i)
		}
		nameLen := int(binary.BigEndian.Uint16(body[:2]))
		if nameLen > MaxNamespaceName {
			return nil, fmt.Errorf("%w: replica name %d bytes exceeds the %d-byte cap", ErrName, nameLen, MaxNamespaceName)
		}
		if len(body) < 2+nameLen+17 {
			return nil, fmt.Errorf("%w: entry %d overruns the payload", ErrReplica, i)
		}
		name := string(body[2 : 2+nameLen])
		rest := body[2+nameLen:]
		if rest[0] > ReplicaStateDown {
			return nil, fmt.Errorf("%w: unknown replica state %d", ErrReplica, rest[0])
		}
		reps = append(reps, ReplicaStatus{
			Name:  name,
			State: rest[0],
			Epoch: binary.BigEndian.Uint64(rest[1:9]),
			Dirty: binary.BigEndian.Uint64(rest[9:17]),
		})
		body = rest[17:]
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d entries", ErrReplica, len(body), count)
	}
	return reps, nil
}

// EncodeResyncReq builds a MsgResyncReq frame: "I am about to stream a
// resync computed against your state at this recovery epoch — confirm
// you are still there." It closes the race where a replica restarts
// (losing or rolling state) between the repair loop's dial and its
// stream; a mismatched answer makes the repairer recompute.
func EncodeResyncReq(epoch uint64) Frame {
	p := make([]byte, 8)
	binary.BigEndian.PutUint64(p, epoch)
	return Frame{Type: MsgResyncReq, Payload: p}
}

// DecodeResyncReq parses a MsgResyncReq payload.
func DecodeResyncReq(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("%w: resync request %d bytes", ErrShortPayload, len(p))
	}
	return binary.BigEndian.Uint64(p), nil
}

// EncodeResyncResp builds a MsgResyncResp frame: whether the server's
// epoch matches the requester's expectation, plus the actual epoch.
func EncodeResyncResp(ok bool, epoch uint64) Frame {
	p := make([]byte, 9)
	if ok {
		p[0] = 1
	}
	binary.BigEndian.PutUint64(p[1:9], epoch)
	return Frame{Type: MsgResyncResp, Payload: p}
}

// DecodeResyncResp parses a MsgResyncResp payload. The ok byte must be
// exactly 0 or 1.
func DecodeResyncResp(p []byte) (ok bool, epoch uint64, err error) {
	if len(p) != 9 {
		return false, 0, fmt.Errorf("%w: resync response %d bytes", ErrShortPayload, len(p))
	}
	if p[0] > 1 {
		return false, 0, fmt.Errorf("%w: ok byte %d", ErrReplica, p[0])
	}
	return p[0] == 1, binary.BigEndian.Uint64(p[1:9]), nil
}

// EncodeError builds a MsgError frame.
func EncodeError(msg string) Frame {
	return Frame{Type: MsgError, Payload: []byte(msg)}
}

// RemoteError is an error reported by the server over the wire.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "wire: server error: " + e.Msg }

// AsError converts a frame into an error if it is a MsgError (a
// *RemoteError) or a MsgBusyResp (a *BusyError — the server shed the
// request; the connection is still healthy and the caller may retry), or
// reports an unexpected type mismatch against want.
func AsError(f Frame, want byte) error {
	if f.Type == want {
		return nil
	}
	if f.Type == MsgError {
		return &RemoteError{Msg: string(f.Payload)}
	}
	if f.Type == MsgBusyResp {
		busy, err := DecodeBusy(f.Payload)
		if err != nil {
			return err
		}
		return busy
	}
	return fmt.Errorf("%w: got %d want %d", ErrUnexpected, f.Type, want)
}
