package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"
	"unsafe"

	uindex "repro"
	"repro/internal/encoding"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {0x01}, bytes.Repeat([]byte{0xAB}, 4096)}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
	}
	for _, want := range payloads {
		got, err := readFrame(&buf, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: got %d bytes, want %d", len(got), len(want))
		}
	}
}

func TestReadFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	binary.Write(&buf, binary.BigEndian, uint32(1<<30))
	_, err := readFrame(&buf, 1<<16)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []request{
		{op: OpPing, id: 1},
		{op: OpCheckpoint, id: 2},
		{op: OpRefresh, id: 3},
		{op: OpQuery, id: 4, index: "color", query: "(Color=Red, C5A*)"},
		{op: OpQuery, id: 5, index: "age", query: "(Age=[46-], ?, C2A*)", alg: uindex.Forward},
		{op: OpInsert, id: 6, class: "Automobile", attrs: uindex.Attrs{
			"Name": "Uno", "Color": "White", "ManufacturedBy": uindex.OID(5),
			"Age": uint64(7), "Neg": int64(-3), "Score": 1.5,
		}},
		{op: OpSet, id: 7, oid: 9, attr: "Color", value: "Red"},
		{op: OpDelete, id: 8, oid: 12},
		{op: OpBatch, id: 9, ops: []uindex.BatchOp{
			{Kind: uindex.BatchInsert, Class: "Automobile", Attrs: uindex.Attrs{"Color": "Red"}},
			{Kind: uindex.BatchSet, OID: 4, Attr: "Color", Value: "Blue"},
			{Kind: uindex.BatchDelete, OID: 7},
		}},
	}
	for _, want := range reqs {
		payload, err := encodeRequest(want)
		if err != nil {
			t.Fatalf("encodeRequest(%v): %v", want.op, err)
		}
		got, err := decodeRequest(payload)
		if err != nil {
			t.Fatalf("decodeRequest(%v): %v", want.op, err)
		}
		if got.attrs == nil && want.attrs != nil && len(want.attrs) == 0 {
			got.attrs = uindex.Attrs{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestEncodeRequestIntNormalizesToInt64(t *testing.T) {
	payload, err := encodeRequest(request{op: OpSet, id: 1, oid: 2, attr: "Age", value: 46})
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.value != int64(46) {
		t.Fatalf("want int64(46), got %T %v", got.value, got.value)
	}
}

func TestDecodeRequestRejects(t *testing.T) {
	mk := func(op Op, body ...byte) []byte {
		return append([]byte{byte(op), 0, 0, 0, 1}, body...)
	}
	cases := [][]byte{
		nil,                  // empty
		{byte(OpPing)},       // short header
		mk(Op(0)),            // unknown opcode
		mk(Op(99)),           // unknown opcode
		mk(OpPing, 0x00),     // trailing bytes
		mk(OpQuery),          // missing flags
		mk(OpQuery, 0, 0xFF), // string length overruns body
		mk(OpInsert, 1, 'C'), // missing attr count
		mk(OpInsert, 1, 'C', 0xFF, 0xFF, 0xFF, 0xFF, 0x7F), // hostile attr count
		mk(OpSet, 0, 0, 0, 1),                              // missing attr name
		mk(OpDelete, 0, 0, 0),                              // short oid
		mk(OpSet, 0, 0, 0, 1, 1, 'A', 200),                 // unknown value tag
		mk(OpBatch),                                        // missing op count
		mk(OpBatch, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F),          // hostile op count
		mk(OpBatch, 1, 99),                                 // unknown batch op kind
		mk(OpBatch, 1, 3, 0, 0, 0),                         // delete with short oid
		mk(OpBatch, 1, 3, 0, 0, 0, 1, 0xAA),                // trailing bytes
	}
	for i, payload := range cases {
		if _, err := decodeRequest(payload); err == nil {
			t.Errorf("case %d: decodeRequest accepted malformed payload % x", i, payload)
		}
	}
}

func TestStatsRoundTrip(t *testing.T) {
	want := uindex.Stats{
		Algorithm: uindex.Forward, PagesRead: 17, EntriesScanned: 301, Matches: 4,
		Intervals: 2, NodeCacheHits: 9, NodeCacheMisses: 1, BytesDecoded: 8192,
	}
	got, rest, err := readStats(appendStats(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("stats mismatch: got %+v want %+v (rest %d)", got, want, len(rest))
	}
}

func TestMatchesRoundTrip(t *testing.T) {
	want := []uindex.Match{
		{Value: "Red", Path: []uindex.PathEntry{
			{Code: encoding.Code("5A"), OID: 9}, {Code: encoding.Code("2A1"), OID: 4},
		}},
		{Value: uint64(46), Path: []uindex.PathEntry{{Code: encoding.Code("1"), OID: 3}}},
		{Value: math.Pi},
	}
	b, err := appendMatches(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	got, rest, err := readMatches(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("matches mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestMatchesRoundTripLarge round-trips a 1,000-match frame shaped like a
// range result — values in runs, a few class codes, paths of three entries,
// so some paths straddle an arena block boundary — through the arena
// decoder: the result must equal the input, each Path must be capped so an
// append cannot reach the next match, and a run of one value must decode to
// one shared value.
func TestMatchesRoundTripLarge(t *testing.T) {
	codes := []encoding.Code{"5A", "5A1", "5B", "2A1", "1"}
	want := make([]uindex.Match, 1000)
	for i := range want {
		var v any = fmt.Sprintf("colour-%d", i/100)
		if i >= 900 {
			v = uint64(i / 50)
		}
		want[i] = uindex.Match{Value: v, Path: []uindex.PathEntry{
			{Code: codes[i%3], OID: uindex.OID(i + 1)}, {Code: codes[3], OID: uindex.OID(i % 7)},
			{Code: codes[4], OID: uindex.OID(i / 10)},
		}}
	}
	b, err := appendMatches(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	got, rest, err := readMatches(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("matches mismatch (rest %d)", len(rest))
	}
	for i := range got {
		if len(got[i].Path) != cap(got[i].Path) {
			t.Fatalf("match %d: Path len %d cap %d, want capped", i, len(got[i].Path), cap(got[i].Path))
		}
	}
	_ = append(got[0].Path, uindex.PathEntry{Code: "9", OID: 9})
	if !reflect.DeepEqual(got[1], want[1]) {
		t.Fatalf("append to match 0 changed match 1: %+v", got[1])
	}
	s0, s1 := got[0].Value.(string), got[99].Value.(string)
	if unsafe.StringData(s0) != unsafe.StringData(s1) {
		t.Error("matches of one value run decoded to separate strings")
	}
}

func TestCodeErrorMapping(t *testing.T) {
	cases := []struct {
		err  error
		code Code
	}{
		{uindex.ErrIndexNotFound, CodeIndexNotFound},
		{uindex.ErrUnknownClass, CodeUnknownClass},
		{uindex.ErrClosed, CodeClosed},
		{uindex.ErrSnapshotReleased, CodeSnapshotReleased},
		{context.DeadlineExceeded, CodeDeadline},
		{context.Canceled, CodeCanceled},
		{errors.New("boom"), CodeInternal},
	}
	for _, c := range cases {
		if got := codeOf(c.err); got != c.code {
			t.Errorf("codeOf(%v) = %d, want %d", c.err, got, c.code)
		}
		if c.code == CodeInternal {
			continue
		}
		back := errOf(c.code, "detail")
		if !errors.Is(back, c.err) {
			t.Errorf("errOf(%d) = %v, not errors.Is %v", c.code, back, c.err)
		}
	}
	if errOf(CodeOK, "") != nil {
		t.Error("errOf(CodeOK) should be nil")
	}
	if !errors.Is(errOf(CodeRetryLater, ""), ErrRetryLater) {
		t.Error("errOf(CodeRetryLater) should match ErrRetryLater")
	}
	if !errors.Is(errOf(CodeBadRequest, "parse"), ErrBadRequest) {
		t.Error("errOf(CodeBadRequest) should match ErrBadRequest")
	}
}

// FuzzFrame feeds the frame reader and request decoder arbitrary bytes:
// truncated frames, oversized length prefixes, bad opcodes, hostile counts.
// Neither may panic, and the frame reader must never allocate beyond the
// configured bound no matter what the length prefix claims.
func FuzzFrame(f *testing.F) {
	seed := func(req request) {
		if p, err := encodeRequest(req); err == nil {
			var buf bytes.Buffer
			writeFrame(&buf, p)
			f.Add(buf.Bytes())
		}
	}
	seed(request{op: OpPing, id: 1})
	seed(request{op: OpQuery, id: 2, index: "color", query: "(Color=Red, C5A*)"})
	seed(request{op: OpInsert, id: 3, class: "Automobile", attrs: uindex.Attrs{"Color": "Red"}})
	seed(request{op: OpSet, id: 4, oid: 7, attr: "Age", value: uint64(46)})
	seed(request{op: OpDelete, id: 5, oid: 7})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})       // 4 GiB length prefix
	f.Add([]byte{0x00, 0x00, 0x00, 0x01})       // truncated body
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, 0x63}) // short body
	f.Add(append([]byte{0x00, 0x00, 0x00, 0x09, byte(OpInsert), 0, 0, 0, 1},
		0x01, 0x43, 0xFF, 0xFF)) // insert with hostile attr count
	if p, err := appendMatches(nil, []uindex.Match{
		{Value: "Red", Path: []uindex.PathEntry{{Code: "5A", OID: 9}}},
		{Value: "Red", Path: []uindex.PathEntry{{Code: "5A", OID: 10}}},
	}); err == nil {
		var buf bytes.Buffer
		writeFrame(&buf, p)
		f.Add(buf.Bytes()) // a result set with a repeated value
	}

	const maxFrame = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			payload, err := readFrame(r, maxFrame)
			if err != nil {
				if errors.Is(err, ErrFrameTooLarge) || errors.Is(err, io.EOF) ||
					errors.Is(err, io.ErrUnexpectedEOF) {
					return
				}
				t.Fatalf("readFrame: unexpected error class %v", err)
			}
			if len(payload) > maxFrame {
				t.Fatalf("readFrame returned %d bytes, above the %d bound", len(payload), maxFrame)
			}
			// The client's result decoder faces the same untrusted bytes.
			if ms, _, err := readMatches(payload); err == nil && len(ms) > len(payload) {
				t.Fatalf("readMatches decoded %d matches from %d bytes", len(ms), len(payload))
			}
			req, err := decodeRequest(payload)
			if err != nil {
				continue
			}
			// Decoded requests must re-encode without error (tags and
			// opcodes are all known at this point).
			if _, err := encodeRequest(req); err != nil {
				t.Fatalf("re-encode of decoded request failed: %v", err)
			}
		}
	})
}
