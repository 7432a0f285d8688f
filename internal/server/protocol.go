// Package server is the network subsystem over the engine facade: uindexd
// speaks a small length-prefixed binary protocol on the data path (one
// MVCC snapshot per connection, request pipelining, typed error codes,
// admission control) and serves an HTTP ops listener (/metrics, /healthz,
// /readyz, /debug/pprof). Client (client.go) is the matching minimal Go
// client.
//
// Wire format. After a 5-byte handshake in each direction ("uix1" + version
// byte), every message is a frame:
//
//	uint32 big-endian payload length | payload
//
// A request payload is op(1) ‖ id(4, big-endian) ‖ body; a response payload
// is status(1) ‖ id(4) ‖ body, where status 0 is success and anything else
// is a Code with a UTF-8 error message as the body. Request ids are chosen
// by the client and echoed verbatim, so a client may pipeline any number of
// requests per connection and match responses out of order. Strings and
// counts are uvarint-length-prefixed; attribute values are tagged (tag byte
// then value). Frames larger than the server's configured maximum are
// rejected and the connection closed — length prefixes from untrusted input
// never drive allocation beyond that bound.
package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	uindex "repro"
	"repro/internal/encoding"
)

// protocolVersion is negotiated by the handshake; mismatches are rejected.
const protocolVersion = 1

// handshakeMagic opens every connection, in both directions.
var handshakeMagic = [4]byte{'u', 'i', 'x', '1'}

// DefaultMaxFrame bounds a frame payload unless Config overrides it.
const DefaultMaxFrame = 1 << 20

// Op is a request opcode.
type Op byte

// Request opcodes.
const (
	OpPing       Op = 1 // body: empty → empty
	OpQuery      Op = 2 // body: flags(1) ‖ index ‖ query-text → stats ‖ matches
	OpInsert     Op = 3 // body: class ‖ nattrs ‖ (name ‖ value)* → oid(4)
	OpSet        Op = 4 // body: oid(4) ‖ name ‖ value → empty
	OpDelete     Op = 5 // body: oid(4) → empty
	OpCheckpoint Op = 6 // body: empty → empty
	OpRefresh    Op = 7 // body: empty → empty; re-pins the session snapshot
	OpBatch      Op = 8 // body: nops ‖ op* → applied ‖ noids ‖ oid(4)*
)

// queryFlagForward selects the forward-scanning baseline algorithm.
const queryFlagForward = 0x01

// Code is a typed response status. Codes mirror the facade's sentinel
// errors so a remote caller can branch with errors.Is exactly like a local
// one.
type Code byte

// Response status codes.
const (
	CodeOK               Code = 0
	CodeBadRequest       Code = 1 // malformed frame body or query text
	CodeIndexNotFound    Code = 2 // uindex.ErrIndexNotFound
	CodeUnknownClass     Code = 3 // uindex.ErrUnknownClass
	CodeClosed           Code = 4 // uindex.ErrClosed
	CodeSnapshotReleased Code = 5 // uindex.ErrSnapshotReleased
	CodeRetryLater       Code = 6 // admission control rejected the request
	CodeDeadline         Code = 7 // per-request deadline exceeded
	CodeCanceled         Code = 8 // request context canceled (server drain)
	CodeInternal         Code = 9 // unexpected engine failure
)

// Typed errors of the protocol layer.
var (
	// ErrRetryLater is returned to clients when the server sheds load:
	// the in-flight request budget is full. The request was not executed;
	// back off and retry.
	ErrRetryLater = errors.New("server: overloaded, retry later")
	// ErrBadRequest is returned for malformed requests (client side it
	// wraps the server's message).
	ErrBadRequest = errors.New("server: bad request")
	// ErrFrameTooLarge is returned when a frame exceeds the negotiated
	// maximum; the connection is closed, since the stream can no longer
	// be framed safely.
	ErrFrameTooLarge = errors.New("server: frame exceeds maximum size")
	// errShortFrame reports a truncated frame body during decoding.
	errShortFrame = errors.New("server: truncated frame body")
)

// writeFrame writes one length-prefixed payload.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, allocating at most maxFrame bytes off the
// untrusted length prefix.
func readFrame(r io.Reader, maxFrame int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int64(n) > int64(maxFrame) {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// --- primitive codecs -------------------------------------------------

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errShortFrame
	}
	return v, b[n:], nil
}

func readString(b []byte) (string, []byte, error) {
	s, rest, err := readBytes(b)
	return string(s), rest, err
}

// readBytes is readString returning a view of b instead of a copy.
func readBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, errShortFrame
	}
	return rest[:n], rest[n:], nil
}

func readUint32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, errShortFrame
	}
	return binary.BigEndian.Uint32(b), b[4:], nil
}

// Value tags for attribute values and match values on the wire.
const (
	tagString  = 0
	tagUint64  = 1
	tagInt64   = 2
	tagFloat64 = 3
	tagOID     = 4 // object reference (uint32)
)

// appendValue encodes an attribute value. The accepted dynamic types are
// the ones the store accepts plus OID references.
func appendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case string:
		b = append(b, tagString)
		return appendString(b, x), nil
	case uint64:
		b = append(b, tagUint64)
		return binary.BigEndian.AppendUint64(b, x), nil
	case int64:
		b = append(b, tagInt64)
		return binary.BigEndian.AppendUint64(b, uint64(x)), nil
	case int:
		b = append(b, tagInt64)
		return binary.BigEndian.AppendUint64(b, uint64(int64(x))), nil
	case float64:
		b = append(b, tagFloat64)
		return binary.BigEndian.AppendUint64(b, math.Float64bits(x)), nil
	case uindex.OID:
		b = append(b, tagOID)
		return binary.BigEndian.AppendUint32(b, uint32(x)), nil
	default:
		return nil, fmt.Errorf("%w: unsupported value type %T", ErrBadRequest, v)
	}
}

func readValue(b []byte) (any, []byte, error) {
	if len(b) < 1 {
		return nil, nil, errShortFrame
	}
	tag, b := b[0], b[1:]
	switch tag {
	case tagString:
		return toAnyString(readString(b))
	case tagUint64:
		if len(b) < 8 {
			return nil, nil, errShortFrame
		}
		return binary.BigEndian.Uint64(b), b[8:], nil
	case tagInt64:
		if len(b) < 8 {
			return nil, nil, errShortFrame
		}
		return int64(binary.BigEndian.Uint64(b)), b[8:], nil
	case tagFloat64:
		if len(b) < 8 {
			return nil, nil, errShortFrame
		}
		return math.Float64frombits(binary.BigEndian.Uint64(b)), b[8:], nil
	case tagOID:
		if len(b) < 4 {
			return nil, nil, errShortFrame
		}
		return uindex.OID(binary.BigEndian.Uint32(b)), b[4:], nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown value tag %d", errShortFrame, tag)
	}
}

func toAnyString(s string, rest []byte, err error) (any, []byte, error) {
	if err != nil {
		return nil, nil, err
	}
	return s, rest, nil
}

// --- requests ---------------------------------------------------------

// request is one decoded data-path request.
type request struct {
	op    Op
	id    uint32
	index string // OpQuery
	query string // OpQuery
	alg   uindex.Algorithm
	class string // OpInsert
	attrs uindex.Attrs
	oid   uindex.OID       // OpSet, OpDelete
	attr  string           // OpSet
	value any              // OpSet
	ops   []uindex.BatchOp // OpBatch
}

// maxAttrsPerInsert bounds the attribute count of one insert so a hostile
// count prefix cannot drive allocation.
const maxAttrsPerInsert = 1024

// maxOpsPerBatch bounds one OpBatch frame so a hostile count prefix cannot
// drive allocation; clients chunk larger batches across frames.
const maxOpsPerBatch = 4096

// decodeRequest parses a request payload. The header (op, id) parses
// first, so even a malformed body yields an id the error response can be
// correlated with.
func decodeRequest(payload []byte) (request, error) {
	var req request
	if len(payload) < 5 {
		return req, errShortFrame
	}
	req.op = Op(payload[0])
	req.id = binary.BigEndian.Uint32(payload[1:5])
	body := payload[5:]
	var err error
	switch req.op {
	case OpPing, OpCheckpoint, OpRefresh:
		if len(body) != 0 {
			return req, errShortFrame
		}
	case OpQuery:
		if len(body) < 1 {
			return req, errShortFrame
		}
		flags := body[0]
		if flags&queryFlagForward != 0 {
			req.alg = uindex.Forward
		}
		if req.index, body, err = readString(body[1:]); err != nil {
			return req, err
		}
		if req.query, body, err = readString(body); err != nil {
			return req, err
		}
		if len(body) != 0 {
			return req, errShortFrame
		}
	case OpInsert:
		if req.class, body, err = readString(body); err != nil {
			return req, err
		}
		var n uint64
		if n, body, err = readUvarint(body); err != nil {
			return req, err
		}
		if n > maxAttrsPerInsert {
			return req, fmt.Errorf("%w: %d attributes", errShortFrame, n)
		}
		req.attrs = make(uindex.Attrs, n)
		for i := uint64(0); i < n; i++ {
			var name string
			if name, body, err = readString(body); err != nil {
				return req, err
			}
			if req.attrs[name], body, err = readValue(body); err != nil {
				return req, err
			}
		}
		if len(body) != 0 {
			return req, errShortFrame
		}
	case OpSet:
		var oid uint32
		if oid, body, err = readUint32(body); err != nil {
			return req, err
		}
		req.oid = uindex.OID(oid)
		if req.attr, body, err = readString(body); err != nil {
			return req, err
		}
		if req.value, body, err = readValue(body); err != nil {
			return req, err
		}
		if len(body) != 0 {
			return req, errShortFrame
		}
	case OpDelete:
		var oid uint32
		if oid, body, err = readUint32(body); err != nil {
			return req, err
		}
		req.oid = uindex.OID(oid)
		if len(body) != 0 {
			return req, errShortFrame
		}
	case OpBatch:
		var n uint64
		if n, body, err = readUvarint(body); err != nil {
			return req, err
		}
		if n > maxOpsPerBatch {
			return req, fmt.Errorf("%w: %d batch operations", errShortFrame, n)
		}
		req.ops = make([]uindex.BatchOp, 0, n)
		for i := uint64(0); i < n; i++ {
			var op uindex.BatchOp
			if op, body, err = readBatchOp(body); err != nil {
				return req, err
			}
			req.ops = append(req.ops, op)
		}
		if len(body) != 0 {
			return req, errShortFrame
		}
	default:
		return req, fmt.Errorf("%w: unknown opcode %d", errShortFrame, req.op)
	}
	return req, nil
}

// readBatchOp decodes one batch operation: a kind byte, then the fields of
// that kind — insert carries class and attributes like OpInsert, set and
// delete carry the oid (and for set the attribute and tagged value) like
// OpSet/OpDelete.
func readBatchOp(b []byte) (uindex.BatchOp, []byte, error) {
	var op uindex.BatchOp
	if len(b) < 1 {
		return op, nil, errShortFrame
	}
	kind, b := uindex.BatchOpKind(b[0]), b[1:]
	op.Kind = kind
	var err error
	switch kind {
	case uindex.BatchInsert:
		if op.Class, b, err = readString(b); err != nil {
			return op, nil, err
		}
		var n uint64
		if n, b, err = readUvarint(b); err != nil {
			return op, nil, err
		}
		if n > maxAttrsPerInsert {
			return op, nil, fmt.Errorf("%w: %d attributes", errShortFrame, n)
		}
		op.Attrs = make(uindex.Attrs, n)
		for i := uint64(0); i < n; i++ {
			var name string
			if name, b, err = readString(b); err != nil {
				return op, nil, err
			}
			if op.Attrs[name], b, err = readValue(b); err != nil {
				return op, nil, err
			}
		}
	case uindex.BatchSet:
		var oid uint32
		if oid, b, err = readUint32(b); err != nil {
			return op, nil, err
		}
		op.OID = uindex.OID(oid)
		if op.Attr, b, err = readString(b); err != nil {
			return op, nil, err
		}
		if op.Value, b, err = readValue(b); err != nil {
			return op, nil, err
		}
	case uindex.BatchDelete:
		var oid uint32
		if oid, b, err = readUint32(b); err != nil {
			return op, nil, err
		}
		op.OID = uindex.OID(oid)
	default:
		return op, nil, fmt.Errorf("%w: unknown batch op kind %d", errShortFrame, uint8(kind))
	}
	return op, b, nil
}

// appendBatchOp encodes one batch operation (the client side of
// readBatchOp).
func appendBatchOp(b []byte, op uindex.BatchOp) ([]byte, error) {
	b = append(b, byte(op.Kind))
	var err error
	switch op.Kind {
	case uindex.BatchInsert:
		b = appendString(b, op.Class)
		b = binary.AppendUvarint(b, uint64(len(op.Attrs)))
		for name, v := range op.Attrs {
			b = appendString(b, name)
			if b, err = appendValue(b, v); err != nil {
				return nil, err
			}
		}
	case uindex.BatchSet:
		b = binary.BigEndian.AppendUint32(b, uint32(op.OID))
		b = appendString(b, op.Attr)
		if b, err = appendValue(b, op.Value); err != nil {
			return nil, err
		}
	case uindex.BatchDelete:
		b = binary.BigEndian.AppendUint32(b, uint32(op.OID))
	default:
		return nil, fmt.Errorf("server: cannot encode batch op kind %d", uint8(op.Kind))
	}
	return b, nil
}

// encodeRequest builds a request payload (the client side of
// decodeRequest).
func encodeRequest(req request) ([]byte, error) {
	b := make([]byte, 0, 64)
	b = append(b, byte(req.op))
	b = binary.BigEndian.AppendUint32(b, req.id)
	switch req.op {
	case OpPing, OpCheckpoint, OpRefresh:
	case OpQuery:
		var flags byte
		if req.alg == uindex.Forward {
			flags |= queryFlagForward
		}
		b = append(b, flags)
		b = appendString(b, req.index)
		b = appendString(b, req.query)
	case OpInsert:
		b = appendString(b, req.class)
		b = binary.AppendUvarint(b, uint64(len(req.attrs)))
		for name, v := range req.attrs {
			b = appendString(b, name)
			var err error
			if b, err = appendValue(b, v); err != nil {
				return nil, err
			}
		}
	case OpSet:
		b = binary.BigEndian.AppendUint32(b, uint32(req.oid))
		b = appendString(b, req.attr)
		var err error
		if b, err = appendValue(b, req.value); err != nil {
			return nil, err
		}
	case OpDelete:
		b = binary.BigEndian.AppendUint32(b, uint32(req.oid))
	case OpBatch:
		b = binary.AppendUvarint(b, uint64(len(req.ops)))
		for _, op := range req.ops {
			var err error
			if b, err = appendBatchOp(b, op); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("server: cannot encode opcode %d", req.op)
	}
	return b, nil
}

// --- responses --------------------------------------------------------

// encodeResponseHeader starts a response payload.
func encodeResponseHeader(code Code, id uint32) []byte {
	b := make([]byte, 0, 64)
	b = append(b, byte(code))
	return binary.BigEndian.AppendUint32(b, id)
}

// decodeResponseHeader splits a response payload.
func decodeResponseHeader(payload []byte) (Code, uint32, []byte, error) {
	if len(payload) < 5 {
		return 0, 0, nil, errShortFrame
	}
	return Code(payload[0]), binary.BigEndian.Uint32(payload[1:5]), payload[5:], nil
}

// appendStats encodes query Stats.
func appendStats(b []byte, s uindex.Stats) []byte {
	b = append(b, byte(s.Algorithm))
	b = binary.AppendUvarint(b, uint64(s.PagesRead))
	b = binary.AppendUvarint(b, uint64(s.EntriesScanned))
	b = binary.AppendUvarint(b, uint64(s.Matches))
	b = binary.AppendUvarint(b, uint64(s.Intervals))
	b = binary.AppendUvarint(b, uint64(s.NodeCacheHits))
	b = binary.AppendUvarint(b, uint64(s.NodeCacheMisses))
	b = binary.AppendUvarint(b, uint64(s.BytesDecoded))
	return b
}

func readStats(b []byte) (uindex.Stats, []byte, error) {
	var s uindex.Stats
	if len(b) < 1 {
		return s, nil, errShortFrame
	}
	s.Algorithm = uindex.Algorithm(b[0])
	b = b[1:]
	var err error
	for _, dst := range []*int{
		&s.PagesRead, &s.EntriesScanned, &s.Matches, &s.Intervals,
		&s.NodeCacheHits, &s.NodeCacheMisses,
	} {
		var v uint64
		if v, b, err = readUvarint(b); err != nil {
			return s, nil, err
		}
		*dst = int(v)
	}
	var bd uint64
	if bd, b, err = readUvarint(b); err != nil {
		return s, nil, err
	}
	s.BytesDecoded = int64(bd)
	return s, b, nil
}

// appendMatches encodes a query result set: count, then per match the
// typed value and the (code, oid) path, terminal-first like the engine.
func appendMatches(b []byte, ms []uindex.Match) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(ms)))
	for _, m := range ms {
		var err error
		if b, err = appendValue(b, m.Value); err != nil {
			return nil, err
		}
		b = binary.AppendUvarint(b, uint64(len(m.Path)))
		for _, pe := range m.Path {
			b = appendString(b, string(pe.Code))
			b = binary.BigEndian.AppendUint32(b, uint32(pe.OID))
		}
	}
	return b, nil
}

// readMatches decodes a result set the way the engine assembles one: the
// path entries go to an arena of blocks, each twice the size of the one
// before, that are never moved, so each Path is a capped window of one block;
// each distinct class code becomes one string per frame; and a value whose
// encoding repeats the previous one reuses it. The count is untrusted, so
// everything grows as entries decode.
func readMatches(b []byte) ([]uindex.Match, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	var (
		ms    []uindex.Match
		blk   []uindex.PathEntry // the arena block being filled
		codes = make(map[string]encoding.Code)
		prev  []byte // encoding of the previous value, a view of the frame
	)
	for i := uint64(0); i < n; i++ {
		var m uindex.Match
		// Value encodings are self-delimiting, so a frame that continues
		// with the previous value's bytes holds that same value.
		if prev != nil && bytes.HasPrefix(b, prev) {
			m.Value, b = ms[len(ms)-1].Value, b[len(prev):]
		} else {
			rest := b
			if m.Value, b, err = readValue(b); err != nil {
				return nil, nil, err
			}
			prev = rest[:len(rest)-len(b)]
		}
		var plen uint64
		if plen, b, err = readUvarint(b); err != nil {
			return nil, nil, err
		}
		lo := len(blk)
		for j := uint64(0); j < plen; j++ {
			var raw []byte
			if raw, b, err = readBytes(b); err != nil {
				return nil, nil, err
			}
			code, ok := codes[string(raw)]
			if !ok {
				code = encoding.Code(raw)
				codes[string(code)] = code
			}
			var oid uint32
			if oid, b, err = readUint32(b); err != nil {
				return nil, nil, err
			}
			if len(blk) == cap(blk) {
				// Full: carry this match's entries so far to the next block.
				blk = append(make([]uindex.PathEntry, 0, max(2*cap(blk), 64)), blk[lo:]...)
				lo = 0
			}
			blk = append(blk, uindex.PathEntry{Code: code, OID: uindex.OID(oid)})
		}
		if len(blk) > lo {
			m.Path = blk[lo:len(blk):len(blk)]
		}
		ms = append(ms, m)
	}
	return ms, b, nil
}

// appendBatchResult encodes an Apply result: the applied-operation count,
// then the OIDs assigned to the batch's inserts in operation order.
func appendBatchResult(b []byte, res uindex.BatchResult) []byte {
	b = binary.AppendUvarint(b, uint64(res.Applied))
	b = binary.AppendUvarint(b, uint64(len(res.OIDs)))
	for _, oid := range res.OIDs {
		b = binary.BigEndian.AppendUint32(b, uint32(oid))
	}
	return b
}

func readBatchResult(b []byte) (uindex.BatchResult, []byte, error) {
	var res uindex.BatchResult
	applied, b, err := readUvarint(b)
	if err != nil {
		return res, nil, err
	}
	res.Applied = int(applied)
	n, b, err := readUvarint(b)
	if err != nil {
		return res, nil, err
	}
	for i := uint64(0); i < n; i++ { // grown per element: n is untrusted
		var oid uint32
		if oid, b, err = readUint32(b); err != nil {
			return res, nil, err
		}
		res.OIDs = append(res.OIDs, uindex.OID(oid))
	}
	return res, b, nil
}

// codeOf maps an engine error to its wire code.
func codeOf(err error) Code {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, uindex.ErrIndexNotFound):
		return CodeIndexNotFound
	case errors.Is(err, uindex.ErrUnknownClass):
		return CodeUnknownClass
	case errors.Is(err, uindex.ErrSnapshotReleased):
		return CodeSnapshotReleased
	case errors.Is(err, uindex.ErrClosed):
		return CodeClosed
	case errors.Is(err, context.DeadlineExceeded):
		return CodeDeadline
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	default:
		return CodeInternal
	}
}

// errOf maps a wire code back to a typed error the client surfaces;
// errors.Is against the facade sentinels works across the network.
func errOf(code Code, msg string) error {
	var base error
	switch code {
	case CodeOK:
		return nil
	case CodeBadRequest:
		base = ErrBadRequest
	case CodeIndexNotFound:
		base = uindex.ErrIndexNotFound
	case CodeUnknownClass:
		base = uindex.ErrUnknownClass
	case CodeClosed:
		base = uindex.ErrClosed
	case CodeSnapshotReleased:
		base = uindex.ErrSnapshotReleased
	case CodeRetryLater:
		base = ErrRetryLater
	case CodeDeadline:
		base = context.DeadlineExceeded
	case CodeCanceled:
		base = context.Canceled
	default:
		base = fmt.Errorf("server: internal error")
	}
	if msg == "" || msg == base.Error() {
		return base
	}
	return fmt.Errorf("%w: %s", base, msg)
}
