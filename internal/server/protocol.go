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
// requests per connection and match responses out of order. Bodies use the
// store codec (internal/store/codec.go) — the encoding the write-ahead log
// and the snapshot use for strings, counts, values and mutations — so a
// write request carries its operations in the bytes the log will record.
// OpBatch is the one write request: a single insert, set or delete is a
// batch of one. Frames larger than the server's configured maximum are
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

	uindex "repro"
	"repro/internal/encoding"
	"repro/internal/store"
)

// protocolVersion is negotiated by the handshake; mismatches are rejected.
// Version 2 moved values onto the store codec and retired the single-op
// write opcodes 3–5; version 3 dropped the applied count from a batch
// result, since a batch applies whole or not at all.
const protocolVersion = 3

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
	OpCheckpoint Op = 6 // body: empty → empty
	OpRefresh    Op = 7 // body: empty → empty; re-pins the session snapshot
	OpBatch      Op = 8 // body: nops ‖ op* → noids ‖ oid(4)*
	// 3–5 were protocol version 1's single-op writes; never reuse them.
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
	// errMalformed reports a frame body that does not decode.
	errMalformed = errors.New("server: malformed frame body")
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

// --- requests ---------------------------------------------------------

// request is one decoded data-path request.
type request struct {
	op    Op
	id    uint32
	index string // OpQuery
	query string // OpQuery
	alg   uindex.Algorithm
	ops   []uindex.BatchOp // OpBatch
}

// maxOpsPerBatch bounds one OpBatch frame; clients chunk larger batches
// across frames.
const maxOpsPerBatch = 4096

// decodeRequest parses a request payload. The header (op, id) parses
// first, so even a malformed body yields an id the error response can be
// correlated with.
func decodeRequest(payload []byte) (request, error) {
	var req request
	if len(payload) < 5 {
		return req, errMalformed
	}
	req.op = Op(payload[0])
	req.id = binary.BigEndian.Uint32(payload[1:5])
	d := store.NewDecoder(payload[5:])
	switch req.op {
	case OpPing, OpCheckpoint, OpRefresh:
	case OpQuery:
		if d.Byte()&queryFlagForward != 0 {
			req.alg = uindex.Forward
		}
		req.index = d.Str()
		req.query = d.Str()
	case OpBatch:
		n := d.Count()
		if n > maxOpsPerBatch {
			return req, fmt.Errorf("%w: %d batch operations", errMalformed, n)
		}
		req.ops = make([]uindex.BatchOp, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			req.ops = append(req.ops, d.Op())
		}
	default:
		return req, fmt.Errorf("%w: unknown opcode %d", errMalformed, req.op)
	}
	if err := d.Err(); err != nil {
		return req, fmt.Errorf("%w: %w", errMalformed, err)
	}
	if d.Len() != 0 {
		return req, fmt.Errorf("%w: %d trailing bytes", errMalformed, d.Len())
	}
	return req, nil
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
		b = store.AppendString(b, req.index)
		b = store.AppendString(b, req.query)
	case OpBatch:
		b = binary.AppendUvarint(b, uint64(len(req.ops)))
		for i := range req.ops {
			var err error
			if b, err = store.AppendOp(b, &req.ops[i]); err != nil {
				return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
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
		return 0, 0, nil, errMalformed
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
	d := store.NewDecoder(b)
	s := uindex.Stats{Algorithm: uindex.Algorithm(d.Byte())}
	for _, dst := range []*int{
		&s.PagesRead, &s.EntriesScanned, &s.Matches, &s.Intervals,
		&s.NodeCacheHits, &s.NodeCacheMisses,
	} {
		*dst = int(d.Uvarint())
	}
	s.BytesDecoded = int64(d.Uvarint())
	return s, d.Rest(), d.Err()
}

// appendMatches encodes a query result set: count, then per match the
// typed value and the (code, oid) path, terminal-first like the engine.
func appendMatches(b []byte, ms []uindex.Match) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(ms)))
	for _, m := range ms {
		var err error
		if b, err = store.AppendValue(b, m.Value); err != nil {
			return nil, err
		}
		b = binary.AppendUvarint(b, uint64(len(m.Path)))
		for _, pe := range m.Path {
			b = store.AppendString(b, string(pe.Code))
			b = store.AppendOID(b, pe.OID)
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
	d := store.NewDecoder(b)
	n := d.Count()
	var (
		ms    []uindex.Match
		blk   []uindex.PathEntry // the arena block being filled
		codes = make(map[string]encoding.Code)
		prev  []byte // encoding of the previous value, a view of the frame
	)
	for i := 0; i < n && d.Err() == nil; i++ {
		var m uindex.Match
		// Value encodings are self-delimiting, so a frame that continues
		// with the previous value's bytes holds that same value.
		if rest := d.Rest(); prev != nil && bytes.HasPrefix(rest, prev) {
			m.Value = ms[len(ms)-1].Value
			d.Skip(len(prev))
		} else {
			m.Value = d.Value()
			prev = rest[:len(rest)-d.Len()]
		}
		plen := d.Count()
		lo := len(blk)
		for j := 0; j < plen && d.Err() == nil; j++ {
			raw := d.Bytes()
			code, ok := codes[string(raw)]
			if !ok {
				code = encoding.Code(raw)
				codes[string(code)] = code
			}
			oid := d.OID()
			if len(blk) == cap(blk) {
				// Full: carry this match's entries so far to the next block.
				blk = append(make([]uindex.PathEntry, 0, max(2*cap(blk), 64)), blk[lo:]...)
				lo = 0
			}
			blk = append(blk, uindex.PathEntry{Code: code, OID: oid})
		}
		if len(blk) > lo {
			m.Path = blk[lo:len(blk):len(blk)]
		}
		ms = append(ms, m)
	}
	if err := d.Err(); err != nil {
		return nil, nil, err
	}
	return ms, d.Rest(), nil
}

// appendBatchResult encodes an Apply result: the OIDs assigned to the
// batch's inserts in operation order.
func appendBatchResult(b []byte, res uindex.BatchResult) []byte {
	b = binary.AppendUvarint(b, uint64(len(res.OIDs)))
	for _, oid := range res.OIDs {
		b = store.AppendOID(b, oid)
	}
	return b
}

func readBatchResult(b []byte) (uindex.BatchResult, []byte, error) {
	d := store.NewDecoder(b)
	var res uindex.BatchResult
	n := d.Count()
	for i := 0; i < n && d.Err() == nil; i++ { // grown per element: n is untrusted
		res.OIDs = append(res.OIDs, d.OID())
	}
	return res, d.Rest(), d.Err()
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
