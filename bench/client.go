package main

// A client is one closed-loop caller: it sends its next request only after
// the previous reply, like the application processes that call uindexd.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	uindex "repro"
	"repro/internal/server"
	"repro/internal/workload"
)

// conn is the transport of a workload: the wire protocol for the networked
// workloads, direct facade calls for the in-process ones.
type conn interface {
	query(ctx context.Context, op *readOp, q uindex.Query) ([]uindex.Match, uindex.Stats, error)
	insert(ctx context.Context, class string, attrs uindex.Attrs) (uindex.OID, error)
	set(ctx context.Context, oid uindex.OID, attr string, v any) error
	delete(ctx context.Context, oid uindex.OID) error
	apply(ctx context.Context, b *uindex.Batch) error
	close() error
}

// netConn sends querylang text over loopback; the server parses it.
type netConn struct{ c *server.Client }

func (n netConn) query(ctx context.Context, op *readOp, _ uindex.Query) ([]uindex.Match, uindex.Stats, error) {
	return n.c.Query(ctx, op.index, op.text)
}
func (n netConn) insert(ctx context.Context, class string, attrs uindex.Attrs) (uindex.OID, error) {
	return n.c.Insert(ctx, class, attrs)
}
func (n netConn) set(ctx context.Context, oid uindex.OID, attr string, v any) error {
	return n.c.Set(ctx, oid, attr, v)
}
func (n netConn) delete(ctx context.Context, oid uindex.OID) error { return n.c.Delete(ctx, oid) }
func (n netConn) apply(ctx context.Context, b *uindex.Batch) error {
	_, err := n.c.ApplyBatch(ctx, b)
	return err
}
func (n netConn) close() error { return n.c.Close() }

// procConn calls the facade with pre-parsed queries.
type procConn struct{ db *uindex.Database }

func (p procConn) query(ctx context.Context, op *readOp, q uindex.Query) ([]uindex.Match, uindex.Stats, error) {
	return p.db.Query(ctx, op.index, q)
}
func (p procConn) insert(_ context.Context, class string, attrs uindex.Attrs) (uindex.OID, error) {
	return p.db.Insert(class, attrs)
}
func (p procConn) set(_ context.Context, oid uindex.OID, attr string, v any) error {
	return p.db.Set(oid, attr, v)
}
func (p procConn) delete(_ context.Context, oid uindex.OID) error { return p.db.Delete(oid) }
func (p procConn) apply(ctx context.Context, b *uindex.Batch) error {
	_, err := p.db.Apply(ctx, b)
	return err
}
func (p procConn) close() error { return nil }

// tally is what one client accumulates over one slice of a phase.
type tally struct {
	wall     time.Duration
	offClock time.Duration // cache drops, answer checks and ladders: not the engine's time
	readUs   []float64
	writeUs  []float64
	stats    uindex.Stats // summed over the slice's reads
	retries  int          // RETRY_LATER replies
}

func (t *tally) ops() int { return len(t.readUs) + len(t.writeUs) }

// client owns a query cycle, a partition of the writable objects, and the
// record of every write the engine acknowledged to it.
type client struct {
	run    *run
	id     int
	conn   conn
	r      *rand.Rand
	reads  []readOp
	parsed []uindex.Query
	want   []uint64 // calibrated answer digest per cycle position
	pos    int
	cur    *tally
	tracer *tracer

	// Writer state. Each client writes only objects it owns, so the state an
	// acknowledged write must leave behind does not depend on how the
	// clients interleave.
	pick      *zipfian
	live      []uindex.OID
	companies []uindex.OID
	serial    int
	colour    map[uindex.OID]string     // last acknowledged colour of a live vehicle
	president map[uindex.OID]uindex.OID // last acknowledged president of a company
	gone      []uindex.OID              // acknowledged deletes
}

func newClient(rn *run, id int) (*client, error) {
	sp, in := rn.cfg.spec, rn.in
	c := &client{
		run:       rn,
		id:        id,
		r:         stream(rn.cfg.seed, fmt.Sprintf("client%d", id)),
		colour:    map[uindex.OID]string{},
		president: map[uindex.OID]uindex.OID{},
	}
	c.reads = newReadGen(stream(rn.cfg.seed, fmt.Sprintf("reads%d", id))).cycle(sp.reads, rn.cycle)
	c.parsed = make([]uindex.Query, len(c.reads))
	for i := range c.reads {
		ix, ok := in.db.Index(c.reads[i].index)
		if !ok {
			return nil, fmt.Errorf("index %q missing", c.reads[i].index)
		}
		q, err := uindex.ParseQuery(ix, c.reads[i].text)
		if err != nil {
			return nil, err
		}
		c.parsed[i] = q
	}
	for i := id; i < len(in.vehicles); i += sp.clients {
		c.live = append(c.live, in.vehicles[i])
	}
	for i := id; i < len(in.companies); i += sp.clients {
		c.companies = append(c.companies, in.companies[i])
	}
	c.pick = newZipfian(c.r, len(c.live))
	if sp.net {
		sc, err := server.Dial(in.srv.Addr())
		if err != nil {
			return nil, err
		}
		c.conn = netConn{sc}
	} else {
		c.conn = procConn{in.db}
	}
	return c, nil
}

// read issues the next query of the cycle. Cache drops, answer checks and
// ladders around it are off the clock.
func (c *client) read(ctx context.Context) {
	i := c.pos % len(c.reads)
	c.pos++
	op := &c.reads[i]
	if c.run.cfg.spec.cold {
		c.dropCaches()
	}
	t0 := time.Now()
	ms, st, err := c.conn.query(ctx, op, c.parsed[i])
	d := time.Since(t0)
	c.cur.readUs = append(c.cur.readUs, us(d))
	addStats(&c.cur.stats, st)
	c.run.attempted.Add(1)
	if err != nil {
		c.failed(fmt.Errorf("%s: %w", op.text, err))
		return
	}
	if c.want != nil && c.pos%checkEvery == 0 {
		t1 := time.Now()
		c.checkDigest(i, ms)
		c.cur.offClock += time.Since(t1)
	}
	if c.tracer != nil && c.pos%ladderEvery == 0 {
		t1 := time.Now()
		c.ladder(ctx, i)
		c.cur.offClock += time.Since(t1)
	}
}

func (c *client) dropCaches() {
	t0 := time.Now()
	if err := c.run.in.db.DropPageCaches(); err != nil {
		c.failed(fmt.Errorf("drop caches: %w", err))
	}
	c.cur.offClock += time.Since(t0)
}

func (c *client) checkDigest(i int, ms []uindex.Match) {
	ix, _ := c.run.in.db.Index(c.reads[i].index)
	got, err := canonical(ix.AttrType(), ms)
	if err != nil {
		c.failed(err)
	} else if digest(got) != c.want[i] {
		c.failed(fmt.Errorf("%s: answer changed since calibration", c.reads[i].text))
	}
}

func (c *client) failed(err error) {
	if errors.Is(err, server.ErrRetryLater) {
		c.cur.retries++
	}
	c.run.fail(err)
}

// commit issues one commit of the write mix and, once acknowledged, records
// the state it must leave behind.
func (c *client) commit(ctx context.Context) {
	kind := nextWrite(c.r)
	if len(c.live) < 2*batchSize && kind == deleteOne {
		kind = insertOne
	}
	var err error
	var t0 time.Time
	switch kind {
	case setColor:
		oid, col := c.pickLive(), c.pickColour()
		t0 = time.Now()
		if err = c.conn.set(ctx, oid, "Color", col); err == nil {
			c.colour[oid] = col
		}
	case insertOne:
		v := vehicle{class: vehicleClass(c.r), name: fmt.Sprintf("N%d-%06d", c.id, c.serial), color: c.pickColour()}
		c.serial++
		maker := c.run.in.companies[c.r.Intn(len(c.run.in.companies))]
		var oid uindex.OID
		t0 = time.Now()
		if oid, err = c.conn.insert(ctx, v.class, vehicleAttrs(v, maker)); err == nil {
			c.live = append(c.live, oid)
			c.colour[oid] = v.color
		}
	case deleteOne:
		i := c.r.Intn(len(c.live))
		oid := c.live[i]
		t0 = time.Now()
		if err = c.conn.delete(ctx, oid); err == nil {
			c.live[i] = c.live[len(c.live)-1]
			c.live = c.live[:len(c.live)-1]
			delete(c.colour, oid)
			c.gone = append(c.gone, oid)
		}
	case batchColor:
		var b uindex.Batch
		for range batchSize {
			b.Set(c.pickLive(), "Color", c.pickColour())
		}
		t0 = time.Now()
		if err = c.conn.apply(ctx, &b); err == nil {
			for _, op := range b.Ops() {
				c.colour[op.OID] = op.Value.(string)
			}
		}
	case setPresident:
		co := c.companies[c.r.Intn(len(c.companies))]
		e := c.run.in.employees[c.r.Intn(len(c.run.in.employees))]
		t0 = time.Now()
		if err = c.conn.set(ctx, co, "President", e); err == nil {
			c.president[co] = e
		}
	}
	c.cur.writeUs = append(c.cur.writeUs, us(time.Since(t0)))
	c.run.attempted.Add(1)
	if err != nil {
		c.failed(fmt.Errorf("commit kind %d: %w", kind, err))
	}
}

func (c *client) pickLive() uindex.OID { return c.live[c.pick.rank()%len(c.live)] }

func (c *client) pickColour() string { return workload.Colors[c.r.Intn(len(workload.Colors))] }

// verifyWrites checks every acknowledged write of this client against db.
func (c *client) verifyWrites(db *uindex.Database) {
	for oid, want := range c.colour {
		c.run.attempted.Add(1)
		o, ok := db.Get(oid)
		if !ok {
			c.run.fail(fmt.Errorf("vehicle %d: acknowledged write lost, object missing", oid))
			continue
		}
		if got, _ := o.Attr("Color"); got != want {
			c.run.fail(fmt.Errorf("vehicle %d: Color %v, acknowledged %q", oid, got, want))
		}
	}
	for oid, want := range c.president {
		c.run.attempted.Add(1)
		if got, ok := db.Store().Deref(oid, "President"); !ok || got != want {
			c.run.fail(fmt.Errorf("company %d: President %d, acknowledged %d", oid, got, want))
		}
	}
	for _, oid := range c.gone {
		c.run.attempted.Add(1)
		if _, ok := db.Get(oid); ok {
			c.run.fail(fmt.Errorf("vehicle %d: acknowledged delete lost", oid))
		}
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func addStats(sum *uindex.Stats, st uindex.Stats) {
	sum.PagesRead += st.PagesRead
	sum.EntriesScanned += st.EntriesScanned
	sum.Matches += st.Matches
	sum.Intervals += st.Intervals
	sum.NodeCacheHits += st.NodeCacheHits
	sum.NodeCacheMisses += st.NodeCacheMisses
	sum.BytesDecoded += st.BytesDecoded
	sum.PrefetchIssued += st.PrefetchIssued
}
