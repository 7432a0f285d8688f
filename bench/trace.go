package main

// The traced pass. The engine has no stage clock yet, so layers are timed
// from outside: every 16th query of the pass is run again as a ladder, the
// same input once through each level below the request, and each rung is
// recorded as a span. A rung's self time is its duration minus the rungs
// directly below it. Spans live in memory until the pass ends.

import (
	"context"
	"fmt"
	"time"

	uindex "repro"
	"repro/internal/encoding"
	"repro/internal/pager"
)

// span is one timed call into a layer. Parent is the ID of the rung above
// (-1 for the request itself); spans of one ladder share RequestID. N is the
// work the span covered: matches, entries or pages, by layer.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	RequestID int    `json:"request_id"`
	Name      string `json:"name"`
	StartNs   int64  `json:"start_ns"` // since the pass began
	EndNs     int64  `json:"end_ns"`
	N         int    `json:"n"`
}

func (s span) us() float64 { return float64(s.EndNs-s.StartNs) / 1e3 }

// tracer holds one client's spans; clients never share one, so recording
// takes no lock.
type tracer struct {
	t0       time.Time
	client   int
	requests int
	spans    []span
}

// Span and request IDs carry the client number in their high digits.
const idsPerClient = 10_000_000

func (t *tracer) request() int {
	t.requests++
	return t.client*idsPerClient + t.requests
}

// time runs fn as a span under parent and returns the span's ID.
func (t *tracer) time(name string, parent, request int, fn func() int) int {
	id := t.client*idsPerClient + len(t.spans)
	start := time.Since(t.t0)
	n := fn()
	t.spans = append(t.spans, span{ID: id, Parent: parent, RequestID: request, Name: name,
		StartNs: start.Nanoseconds(), EndNs: time.Since(t.t0).Nanoseconds(), N: n})
	return id
}

// ladder re-runs query i of the cycle through every level:
//
//	request            the workload's own transport
//	  uindex.query     the same text, in-process: ParseQuery + db.Query   (networked workloads)
//	    querylang.parse
//	    core.execute   db.Query with the pre-parsed query
//	      btree.scan   ScanKeys over the query's value range on the index's first shard
//	        bufferpool.pin   the pages that scan touched, through a standalone pool   (disk workloads)
//	          pager.read     the same number of pages, ReadBatch from the file
//
// On the cold workload the caches are dropped before every rung that reaches
// the database, so each starts from the state the request saw.
func (c *client) ladder(ctx context.Context, i int) {
	rn, t := c.run, c.tracer
	op, q, db := &c.reads[i], c.parsed[i], c.run.in.db
	ix, ok := db.Index(op.index)
	if !ok {
		return
	}
	prep := func() {
		if rn.cfg.spec.cold {
			if err := db.DropPageCaches(); err != nil {
				rn.fail(err)
			}
		}
	}
	note := func(err error) {
		if err != nil {
			rn.fail(fmt.Errorf("ladder %s: %w", op.text, err))
		}
	}
	req := t.request()

	prep()
	parent := t.time("request", -1, req, func() int {
		ms, _, err := c.conn.query(ctx, op, q)
		note(err)
		return len(ms)
	})
	if rn.cfg.spec.net {
		prep()
		parent = t.time("uindex.query", parent, req, func() int {
			parsed, err := uindex.ParseQuery(ix, op.text)
			note(err)
			ms, _, err := db.Query(ctx, op.index, parsed)
			note(err)
			return len(ms)
		})
		t.time("querylang.parse", parent, req, func() int {
			_, err := uindex.ParseQuery(ix, op.text)
			note(err)
			return len(op.text)
		})
	}
	prep()
	parent = t.time("core.execute", parent, req, func() int {
		_, st, err := db.Query(ctx, op.index, q)
		note(err)
		return st.EntriesScanned
	})
	prep()
	tr := pager.NewTracker()
	parent = t.time("btree.scan", parent, req, func() int {
		n := 0
		for _, r := range op.valueRanges() {
			note(ix.Tree().ScanKeys(ctx, r[0], r[1], tr, func(_, _ []byte) ([]byte, bool, error) {
				n++
				return nil, false, nil
			}))
		}
		return n
	})
	if rn.disk != nil {
		pages := tr.Reads()
		parent = t.time("bufferpool.pin", parent, req, func() int {
			note(rn.disk.pinCold(pages))
			return pages
		})
		t.time("pager.read", parent, req, func() int {
			note(rn.disk.readBatch(pages))
			return pages
		})
	}
}

// valueRanges returns the [lo, hi) key ranges that hold every entry with one
// of the query's values, whatever its classes: one range for a contiguous
// value range, one per value otherwise.
func (op *readOp) valueRanges() [][2][]byte {
	enc := func(t encoding.AttrType, v any) []byte {
		b, err := t.EncodeValue(v)
		if err != nil {
			panic(err) // the generator only produces strings and uint64s
		}
		return b
	}
	if op.index == "age" {
		return [][2][]byte{{enc(encoding.AttrUint64, op.ageLo), encoding.PrefixEnd(enc(encoding.AttrUint64, op.ageHi))}}
	}
	if op.contiguous {
		last := op.colours[len(op.colours)-1]
		return [][2][]byte{{enc(encoding.AttrString, op.colours[0]), encoding.PrefixEnd(enc(encoding.AttrString, last))}}
	}
	var out [][2][]byte
	for _, c := range op.colours {
		lo := enc(encoding.AttrString, c)
		out = append(out, [2][]byte{lo, encoding.PrefixEnd(lo)})
	}
	return out
}

// spansNamed collects the durations, in µs, of every span with that name.
func spansNamed(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.us())
		}
	}
	return out
}
