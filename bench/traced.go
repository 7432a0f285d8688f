package main

import (
	"cmp"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	uindex "repro"
	"repro/internal/pager"
)

// Share of -seconds the traced pass spends on its untraced reference slices;
// the rest is traced. Their throughput ratio is the tracing overhead.
const referenceShare = 0.3

// tracedPass measures the per-layer metrics: counters of db.Metrics() and
// per-query Stats around a traced window, the ladders inside it, and the
// standalone probes of layers.go. A layer that does no work on this workload
// reports 0.
func (rn *run) tracedPass(ctx context.Context, out map[string]metric) error {
	sp, in, db := rn.cfg.spec, rn.in, rn.in.db
	if sp.disk {
		// The probe copies a shard file; a checkpoint makes the file whole.
		if err := db.Checkpoint(); err != nil {
			return err
		}
		p, err := newDiskProbe(in, max(sp.opts.PoolPages, 64))
		if err != nil {
			return err
		}
		rn.disk = p
		defer p.close()
	}

	ref := rn.window(ctx, rn.cfg.seconds*referenceShare, false)
	m0 := db.Metrics()
	stopLag := sampleLag(db)
	win := rn.window(ctx, rn.cfg.seconds*(1-referenceShare), true)
	lagMax := stopLag()
	m1 := db.Metrics()

	var spans []span
	for _, c := range rn.clients {
		spans = append(spans, c.tracer.spans...)
		c.tracer = nil
	}
	if rn.cfg.traceOut != "" {
		if err := writeTrace(rn.cfg.traceOut, spans); err != nil {
			return err
		}
	}

	ping := 0.0
	if sp.net {
		var err error
		if ping, err = rn.pingProbe(ctx); err != nil {
			return err
		}
	}

	// The commit path without the wire: the same clients, calling the facade.
	for _, c := range rn.clients {
		c.conn.close()
		c.conn = procConn{db}
	}
	inproc := rn.writeProbe(ctx)
	m2 := db.Metrics()

	var reads, commits, retries int
	var stats uindex.Stats
	var stall float64
	var opsRef, opsTraced []float64
	for _, sl := range ref {
		opsRef = append(opsRef, sl.opsPerSec)
	}
	for _, sl := range win {
		opsTraced = append(opsTraced, sl.opsPerSec)
		reads += len(sl.readUs)
		commits += len(sl.writeUs)
		retries += sl.retries
		addStats(&stats, sl.stats)
		stall = max(stall, sl.maxWriteUs)
	}
	var inprocUs []float64
	for _, sl := range inproc {
		inprocUs = append(inprocUs, sl.writeUs...)
		commits += len(sl.writeUs)
		if sp.writes == 0 {
			stall = max(stall, sl.maxWriteUs)
		}
	}
	slices.Sort(inprocUs)
	q := float64(reads)

	p50 := func(name string) float64 {
		xs := spansNamed(spans, name)
		slices.Sort(xs)
		return percentile(xs, 0.5)
	}
	set := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }

	// server, querylang: only a networked request passes through them.
	request := p50("request")
	facade := request
	set("server.rtt_p50_us", "us", 0)
	set("server.ping_p50_us", "us", 0)
	set("server.overhead_p50_us", "us", 0)
	set("querylang.parse_p50_us", "us", 0)
	set("querylang.share_of_query", "ratio", 0)
	if sp.net {
		facade = p50("uindex.query")
		set("server.rtt_p50_us", "us", request)
		set("server.overhead_p50_us", "us", request-facade)
		set("querylang.parse_p50_us", "us", p50("querylang.parse"))
		set("querylang.share_of_query", "ratio", ratio(p50("querylang.parse"), facade))
		set("server.ping_p50_us", "us", ping)
	}
	set("server.retry_later", "count", float64(retries))

	// uindex: the facade.
	set("uindex.query_p50_us", "us", facade)
	set("uindex.snapshot_us", "us", snapshotProbe(db))
	nodur := percentile(inprocUs, 0.5)
	set("uindex.durability_wait_p50_us", "us", 0)
	if in.opts.Durability == uindex.DurabilityWAL {
		twin, err := rn.twinCommitP50(ctx)
		if err != nil {
			return err
		}
		set("uindex.durability_wait_p50_us", "us", nodur-twin)
		nodur = twin
	}
	set("uindex.write_nodur_p50_us", "us", nodur)
	set("uindex.checkpoints", "count", float64(m1.Checkpoints-m0.Checkpoints))
	set("uindex.write_stall_max_ms", "ms", stall/1e3)
	set("uindex.checkpoint_s", "s", 0)
	if sp.disk {
		t0 := time.Now()
		if err := db.Checkpoint(); err != nil {
			return err
		}
		set("uindex.checkpoint_s", "s", time.Since(t0).Seconds())
	}

	// core: the executor.
	var execNs, execEntries float64
	for _, s := range spans {
		if s.Name == "core.execute" {
			execNs += float64(s.EndNs - s.StartNs)
			execEntries += float64(s.N)
		}
	}
	set("core.entries_per_match", "ratio", ratio(float64(stats.EntriesScanned), float64(stats.Matches)))
	set("core.intervals_per_query", "count", ratio(float64(stats.Intervals), q))
	set("core.ns_per_entry", "ns", ratio(execNs, execEntries))

	// btree counters; its probes and shape come from treeProbe.
	cache := m1.NodeCache.Hits - m0.NodeCache.Hits
	set("btree.nodecache_hit_ratio", "ratio", ratio(float64(cache), float64(cache+m1.NodeCache.Misses-m0.NodeCache.Misses)))
	set("btree.bytes_decoded_per_query", "bytes", ratio(float64(stats.BytesDecoded), q))
	set("btree.prefetch_issued_per_query", "pages", ratio(float64(m1.PrefetchIssued-m0.PrefetchIssued), q))
	if err := treeProbe(ctx, in, out); err != nil {
		return err
	}

	// bufferpool, pager.
	pool, poolAll := m1.Pool, m2.Pool
	pool.Sub(m0.Pool)
	poolAll.Sub(m0.Pool)
	set("bufferpool.hit_ratio", "ratio", ratio(float64(pool.Hits), float64(pool.Hits+pool.Misses)))
	set("bufferpool.evictions_per_query", "pages", ratio(float64(pool.Evictions), q))
	set("bufferpool.physical_reads_per_query", "pages", ratio(float64(pool.PhysicalReads), q))
	set("bufferpool.batch_reads_per_query", "count", ratio(float64(pool.BatchReads), q))
	set("bufferpool.prefetch_hit_ratio", "ratio", ratio(float64(pool.PrefetchHits), float64(pool.PrefetchPages)))
	set("bufferpool.prefetch_wasted_ratio", "ratio", ratio(float64(pool.PrefetchWasted), float64(pool.PrefetchPages)))
	set("bufferpool.physical_writes_per_commit", "pages", ratio(float64(poolAll.PhysicalWrites), float64(commits)))
	uring := 0.0
	if pager.UringAvailable() {
		uring = 1
	}
	set("pager.uring", "count", uring)
	set("bufferpool.pin_hit_ns", "ns", 0)
	set("bufferpool.pin_miss_us", "us", 0)
	set("pager.read_us_per_page", "us", 0)
	set("pager.readbatch16_us_per_page", "us", 0)
	set("pager.sync_ms", "ms", 0)
	if rn.disk != nil {
		if err := rn.disk.measure(out); err != nil {
			return err
		}
	}

	// wal: counters of the window; the standalone log gives the fsync floor.
	appends := m1.WALAppends - m0.WALAppends
	set("wal.fsyncs_per_commit", "ratio", ratio(float64(m1.WALFsyncs-m0.WALFsyncs), float64(appends)))
	set("wal.records_per_batch", "count", ratio(float64(m1.WALBatchRecords-m0.WALBatchRecords), float64(m1.WALBatches-m0.WALBatches)))
	set("wal.lag_bytes_max", "bytes", float64(lagMax))
	set("wal.checkpoints", "count", float64(m1.WALCheckpoints-m0.WALCheckpoints))
	set("wal.commit_p50_us", "us", 0)
	if m1.WALEnabled {
		if err := walProbe(in.dir, out); err != nil {
			return err
		}
	}

	if err := storeProbe(rn.data, db, out); err != nil {
		return err
	}
	set("trace.overhead_ratio", "ratio", ratio(median(opsTraced), median(opsRef)))
	return nil
}

// sampleLag polls the live WAL bytes during a window and returns their peak.
func sampleLag(db *uindex.Database) (stop func() uint64) {
	if !db.Metrics().WALEnabled {
		return func() uint64 { return 0 }
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				peak = max(peak, db.Metrics().WALLagBytes)
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		return peak
	}
}

// pingProbe is the floor of a round trip: an empty request on client 0.
func (rn *run) pingProbe(ctx context.Context) (float64, error) {
	const pings = 2000
	c := rn.clients[0].conn.(netConn).c
	lat := make([]float64, 0, pings)
	for range pings {
		t0 := time.Now()
		if err := c.Ping(ctx); err != nil {
			return 0, err
		}
		lat = append(lat, us(time.Since(t0)))
	}
	slices.Sort(lat)
	return percentile(lat, 0.5), nil
}

// snapshotProbe is the mean cost of pinning and releasing a database view,
// which every networked session pays per refresh.
func snapshotProbe(db *uindex.Database) float64 {
	const n = 2000
	t0 := time.Now()
	for range n {
		s, err := db.Snapshot()
		if err != nil {
			return 0
		}
		s.Release()
	}
	return us(time.Since(t0)) / n
}

// twinCommitP50 runs the write mix in-process on an in-memory twin of the
// database with no durability: planning, locks, store and index diff alone.
func (rn *run) twinCommitP50(ctx context.Context) (float64, error) {
	tw := *rn.cfg.spec
	tw.opts = uindex.Options{Shards: tw.opts.Shards}
	tw.disk, tw.net = false, false
	cfg := rn.cfg
	cfg.spec = &tw
	in, err := setup(&tw, rn.data, filepath.Join(rn.cfg.dir, "twin"))
	if err != nil {
		return 0, err
	}
	defer in.close()
	twin := &run{cfg: cfg, in: in, data: rn.data}
	if err := twin.connect(); err != nil {
		return 0, err
	}
	var lat []float64
	for _, sl := range twin.writeProbe(ctx) {
		lat = append(lat, sl.writeUs...)
	}
	rn.attempted.Add(twin.attempted.Load())
	rn.failures.Add(twin.failures.Load())
	rn.messages = append(rn.messages, twin.messages...)
	slices.Sort(lat)
	return percentile(lat, 0.5), nil
}

// writeTrace writes the spans of a traced pass, in start order.
func writeTrace(path string, spans []span) error {
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.StartNs, b.StartNs) })
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
