package main

// Per-layer probes: each times calls into one module's exported functions,
// standing alone, so a number here can be set beside that module's share of
// a ladder. They run in the traced pass only.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	uindex "repro"
	"repro/internal/bufferpool"
	"repro/internal/encoding"
	"repro/internal/pager"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/workload"
)

// diskProbe is a standalone pool over a private copy of the first shard file
// of the colour index: the bufferpool and pager layers with no tree above.
type diskProbe struct {
	mu    sync.Mutex // ladders of two clients share the probe
	file  *pager.DiskFile
	pool  *bufferpool.Pool
	pages []pager.PageID // every page of the copy that reads back
	bufs  [][]byte
	next  int
}

// firstShardFile names the file of the colour index's first shard.
func firstShardFile(dir string) string {
	p := filepath.Join(dir, "color.shard0.uidx")
	if _, err := os.Stat(p); err == nil {
		return p
	}
	return filepath.Join(dir, "color.uidx")
}

func newDiskProbe(in *instance, frames int) (*diskProbe, error) {
	src, err := os.ReadFile(firstShardFile(in.opts.Dir))
	if err != nil {
		return nil, err
	}
	path := filepath.Join(in.dir, "probe.uidx")
	if err := os.WriteFile(path, src, 0o644); err != nil {
		return nil, err
	}
	f, err := pager.OpenDiskFile(path)
	if err != nil {
		return nil, err
	}
	pool, err := bufferpool.New(f, bufferpool.Config{Pages: frames})
	if err != nil {
		f.Close()
		return nil, err
	}
	p := &diskProbe{file: f, pool: pool}
	buf := make([]byte, f.PageSize())
	for id := 0; id < len(src)/f.PageSize(); id++ {
		if f.Read(pager.PageID(id), buf) == nil {
			p.pages = append(p.pages, pager.PageID(id))
		}
	}
	if len(p.pages) == 0 {
		pool.Close()
		return nil, fmt.Errorf("%s: no readable page", path)
	}
	p.bufs = make([][]byte, 16)
	for i := range p.bufs {
		p.bufs[i] = make([]byte, f.PageSize())
	}
	return p, nil
}

func (p *diskProbe) close() error { return p.pool.Close() }

// take returns the next n page ids, cycling through the file.
func (p *diskProbe) take(n int) []pager.PageID {
	ids := make([]pager.PageID, n)
	for i := range ids {
		ids[i] = p.pages[p.next%len(p.pages)]
		p.next++
	}
	return ids
}

// cold empties the pool and the OS cache of the copy.
func (p *diskProbe) cold() error {
	if err := p.pool.Reset(); err != nil {
		return err
	}
	return p.file.DropOSCache()
}

// pinCold pins and unpins n pages through the emptied pool.
func (p *diskProbe) pinCold(n int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.cold(); err != nil {
		return err
	}
	for _, id := range p.take(n) {
		if _, err := p.pool.Pin(id); err != nil {
			return err
		}
		if err := p.pool.Unpin(id, false); err != nil {
			return err
		}
	}
	return nil
}

// readBatch reads n pages from the file in batches of 16, OS cache dropped.
func (p *diskProbe) readBatch(n int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.file.DropOSCache(); err != nil {
		return err
	}
	ids := p.take(n)
	for len(ids) > 0 {
		k := min(len(ids), len(p.bufs))
		for _, err := range p.file.ReadBatch(ids[:k], p.bufs[:k]) {
			if err != nil {
				return err
			}
		}
		ids = ids[k:]
	}
	return nil
}

// measure fills in bufferpool.pin_* and pager.*.
func (p *diskProbe) measure(out map[string]metric) error {
	const rounds = 5
	n := min(len(p.pages), 256)
	var miss, read, batch, sync []float64
	for range rounds {
		t0 := time.Now()
		if err := p.pinCold(n); err != nil {
			return err
		}
		miss = append(miss, us(time.Since(t0))/float64(n))

		if err := p.file.DropOSCache(); err != nil {
			return err
		}
		t0 = time.Now()
		for _, id := range p.take(n) {
			if err := p.file.Read(id, p.bufs[0]); err != nil {
				return err
			}
		}
		read = append(read, us(time.Since(t0))/float64(n))

		t0 = time.Now()
		if err := p.readBatch(n); err != nil {
			return err
		}
		batch = append(batch, us(time.Since(t0))/float64(n))

		// 64 dirty pages, then the checkpoint that makes them durable.
		for _, id := range p.take(64) {
			if err := p.file.Read(id, p.bufs[0]); err != nil {
				return err
			}
			if err := p.file.Write(id, p.bufs[0]); err != nil {
				return err
			}
		}
		t0 = time.Now()
		if err := p.file.Sync(); err != nil {
			return err
		}
		sync = append(sync, time.Since(t0).Seconds()*1e3)
	}
	// Hits: one resident page, pinned over and over.
	const hits = 20000
	id := p.pages[0]
	t0 := time.Now()
	for range hits {
		if _, err := p.pool.Pin(id); err != nil {
			return err
		}
		if err := p.pool.Unpin(id, false); err != nil {
			return err
		}
	}
	out["bufferpool.pin_hit_ns"] = metric{Value: float64(time.Since(t0).Nanoseconds()) / hits, Unit: "ns", Samples: hits}
	out["bufferpool.pin_miss_us"] = ofMedian("us", miss, n)
	out["pager.read_us_per_page"] = ofMedian("us", read, n)
	out["pager.readbatch16_us_per_page"] = ofMedian("us", batch, n)
	out["pager.sync_ms"] = ofMedian("ms", sync, 64)
	return nil
}

// walProbe is the fsync floor: a standalone log, one committer, Append +
// WaitDurable.
func walProbe(dir string, out map[string]metric) error {
	const commits = 300
	l, err := wal.Create(filepath.Join(dir, "probe.wal"), wal.Options{})
	if err != nil {
		return err
	}
	payload := make([]byte, 64)
	lat := make([]float64, 0, commits)
	for range commits {
		t0 := time.Now()
		if err := l.WaitDurable(l.Append(payload)); err != nil {
			l.Close()
			return err
		}
		lat = append(lat, us(time.Since(t0)))
	}
	slices.Sort(lat)
	out["wal.commit_p50_us"] = metric{Value: percentile(lat, 0.5), Unit: "us", Samples: commits}
	return l.Close()
}

// storeProbe times the object store alone, on the generated data set.
func storeProbe(d *dataset, db *uindex.Database, out map[string]metric) error {
	sch, err := workload.Figure1Schema()
	if err != nil {
		return err
	}
	st := store.New(sch)
	employees := make([]store.OID, len(d.ages))
	for i, a := range d.ages {
		if employees[i], err = st.Insert("Employee", store.Attrs{"Age": a}); err != nil {
			return err
		}
	}
	companies := make([]store.OID, len(d.companies))
	for i, c := range d.companies {
		if companies[i], err = st.Insert(c.class, store.Attrs{"Name": c.name, "President": employees[c.president]}); err != nil {
			return err
		}
	}
	n := min(len(d.vehicles), 10000)
	oids := make([]store.OID, n)
	t0 := time.Now()
	for i, v := range d.vehicles[:n] {
		if oids[i], err = st.Insert(v.class, vehicleAttrs(v, companies[v.maker])); err != nil {
			return err
		}
	}
	out["store.insert_ns"] = metric{Value: float64(time.Since(t0).Nanoseconds()) / float64(n), Unit: "ns", Samples: n}
	t0 = time.Now()
	for i, oid := range oids {
		if _, err := st.SetAttr(oid, "Color", workload.Colors[i%len(workload.Colors)]); err != nil {
			return err
		}
	}
	out["store.setattr_ns"] = metric{Value: float64(time.Since(t0).Nanoseconds()) / float64(n), Unit: "ns", Samples: n}

	var cw countWriter
	if err := db.Save(&cw); err != nil {
		return err
	}
	out["store.snapshot_bytes_per_object"] = metric{Value: ratio(float64(cw), float64(db.Store().Len())), Unit: "bytes"}
	return nil
}

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// treeProbe times the key codec and the B+-tree of the colour index's first
// shard, and reports that tree's shape.
func treeProbe(ctx context.Context, in *instance, out map[string]metric) error {
	ix, ok := in.db.Index("color")
	if !ok {
		return fmt.Errorf("index color missing")
	}
	var keys [][]byte
	for _, oid := range in.vehicles[:min(len(in.vehicles), 4000)] {
		if _, ok := in.db.Get(oid); !ok {
			continue // deleted by the write mix
		}
		ks, err := ix.EntriesFor(oid)
		if err != nil {
			return err
		}
		keys = append(keys, ks...)
	}
	if len(keys) == 0 {
		return fmt.Errorf("no index keys to probe")
	}
	t := ix.AttrType()
	type parts struct {
		attr []byte
		path []encoding.PathEntry
	}
	split := make([]parts, len(keys))
	t0 := time.Now()
	for i, k := range keys {
		attr, path, err := encoding.SplitKey(t, k)
		if err != nil {
			return err
		}
		split[i] = parts{attr, path}
	}
	out["encoding.splitkey_ns"] = metric{Value: float64(time.Since(t0).Nanoseconds()) / float64(len(keys)), Unit: "ns", Samples: len(keys)}
	t0 = time.Now()
	for _, p := range split {
		_ = encoding.BuildKey(p.attr, p.path)
	}
	out["encoding.buildkey_ns"] = metric{Value: float64(time.Since(t0).Nanoseconds()) / float64(len(keys)), Unit: "ns", Samples: len(keys)}

	// Descents: keys of other shards are absent from this tree, which costs
	// the same root-to-leaf walk.
	get := make([]float64, 0, len(keys))
	for _, k := range keys {
		t0 := time.Now()
		if _, _, err := ix.Tree().Get(k, nil); err != nil {
			return err
		}
		get = append(get, us(time.Since(t0)))
	}
	slices.Sort(get)
	out["btree.get_p50_us"] = metric{Value: percentile(get, 0.5), Unit: "us", Samples: len(get)}

	// Leaf scan: every entry of one colour, twenty times over.
	lo, err := t.EncodeValue(workload.Colors[len(workload.Colors)/2])
	if err != nil {
		return err
	}
	entries := 0
	t0 = time.Now()
	for range 20 {
		if err := ix.Tree().ScanKeys(ctx, lo, encoding.PrefixEnd(lo), nil, func(_, _ []byte) ([]byte, bool, error) {
			entries++
			return nil, false, nil
		}); err != nil {
			return err
		}
	}
	out["btree.scan_ns_per_entry"] = metric{Value: ratio(float64(time.Since(t0).Nanoseconds()), float64(entries)), Unit: "ns", Samples: entries}

	shape, err := ix.Tree().Stats()
	if err != nil {
		return err
	}
	out["btree.height"] = metric{Value: float64(shape.Height), Unit: "count"}
	out["btree.leaf_fill"] = metric{Value: shape.LeafFill, Unit: "ratio"}
	out["btree.bytes_per_entry"] = metric{Value: shape.BytesPerEntry, Unit: "bytes"}

	out["pager.file_pages_per_tree_page"] = metric{Unit: "ratio"}
	if in.spec.disk {
		info, err := os.Stat(firstShardFile(in.opts.Dir))
		if err != nil {
			return err
		}
		pages, err := ix.PageCount()
		if err != nil {
			return err
		}
		filePages := float64(info.Size()) / float64(pager.NewMemFile(0).PageSize())
		out["pager.file_pages_per_tree_page"] = metric{Value: ratio(filePages, float64(pages)), Unit: "ratio"}
	}
	return nil
}
