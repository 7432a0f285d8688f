package server

import (
	"fmt"

	uindex "repro"
	"repro/internal/obs"
)

// shapes classifies requests for the per-shape request counters and
// latency histograms. Query shapes follow the paper's taxonomy — exact,
// range, subtree, parscan — and the remaining ops get their own label so
// every request lands in exactly one series. Every OpBatch, one operation or
// thousands, is a "write".
var shapes = []string{
	"exact", "range", "subtree", "parscan",
	"write", "checkpoint", "refresh", "ping",
}

// queryShape classifies one compiled query:
//
//	range    — continuous value range (Lo/Hi form)
//	parscan  — multi-value or multi-alternative descent (the paper's
//	           Algorithm-1 showcase: several disjoint key intervals)
//	subtree  — single value, but at least one position spans a class
//	           subtree ("C5A*")
//	exact    — single value, exact class positions only
func queryShape(q uindex.Query) string {
	if q.Value.Values == nil {
		return "range"
	}
	alts := 0
	subtree := false
	for _, pos := range q.Positions {
		alts += len(pos.Alts)
		for _, alt := range pos.Alts {
			subtree = subtree || alt.Subtree
		}
	}
	switch {
	case len(q.Value.Values) > 1 || alts > len(q.Positions):
		return "parscan"
	case subtree:
		return "subtree"
	default:
		return "exact"
	}
}

// metrics is the server's pre-registered series set. Every per-shape
// series exists from startup, so the request hot path only does atomic
// adds — no map lookups, no allocation.
type metrics struct {
	requests  map[string]*obs.Counter   // uindexd_requests_total{shape}
	latency   map[string]*obs.Histogram // uindexd_request_seconds{shape}
	errors    map[Code]*obs.Counter     // uindexd_request_errors_total{code}
	inflight  *obs.Gauge
	rejected  *obs.Counter
	sessions  *obs.Gauge
	bytesIn   *obs.Counter
	bytesOut  *obs.Counter
	oversized *obs.Counter
}

// errCodes are the codes pre-registered for uindexd_request_errors_total.
var errCodes = map[Code]string{
	CodeBadRequest:       "bad_request",
	CodeIndexNotFound:    "index_not_found",
	CodeUnknownClass:     "unknown_class",
	CodeClosed:           "closed",
	CodeSnapshotReleased: "snapshot_released",
	CodeRetryLater:       "retry_later",
	CodeDeadline:         "deadline",
	CodeCanceled:         "canceled",
	CodeInternal:         "internal",
}

// newMetrics registers the server series on reg.
func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{
		requests: make(map[string]*obs.Counter, len(shapes)),
		latency:  make(map[string]*obs.Histogram, len(shapes)),
		errors:   make(map[Code]*obs.Counter, len(errCodes)),
	}
	for _, s := range shapes {
		m.requests[s] = reg.Counter("uindexd_requests_total",
			"Requests served, by query shape or op.", obs.Label{Name: "shape", Value: s})
	}
	for _, s := range shapes {
		m.latency[s] = reg.Histogram("uindexd_request_seconds",
			"Request latency, by query shape or op.", nil, obs.Label{Name: "shape", Value: s})
	}
	for code, name := range errCodes {
		m.errors[code] = reg.Counter("uindexd_request_errors_total",
			"Error responses, by code.", obs.Label{Name: "code", Value: name})
	}
	m.inflight = reg.Gauge("uindexd_inflight_requests",
		"Requests currently admitted and executing.")
	m.rejected = reg.Counter("uindexd_admission_rejected_total",
		"Requests rejected with RETRY_LATER by admission control.")
	m.sessions = reg.Gauge("uindexd_sessions_active",
		"Open data-path connections (each holds one MVCC snapshot).")
	m.bytesIn = reg.Counter("uindexd_bytes_in_total", "Bytes read from clients.")
	m.bytesOut = reg.Counter("uindexd_bytes_out_total", "Bytes written to clients.")
	m.oversized = reg.Counter("uindexd_oversized_frames_total",
		"Connections dropped for exceeding the frame size limit.")
	return m
}

// registerEngine bridges the engine's merged Metrics() snapshot into the
// registry as collect-on-scrape series, so /metrics surfaces pool hit/miss,
// node-cache hits/misses, and the facade's cumulative query/write counters
// without a second aggregation layer.
func registerEngine(reg *obs.Registry, db *uindex.Database) {
	counter := func(name, help string, get func(uindex.Metrics) uint64) {
		reg.CounterFunc(name, help, func() float64 { return float64(get(db.Metrics())) })
	}
	counter("uindex_pool_hits_total", "Buffer-pool page hits.",
		func(m uindex.Metrics) uint64 { return uint64(m.Pool.Hits) })
	counter("uindex_pool_misses_total", "Buffer-pool page misses.",
		func(m uindex.Metrics) uint64 { return uint64(m.Pool.Misses) })
	counter("uindex_pool_evictions_total", "Buffer-pool frame evictions.",
		func(m uindex.Metrics) uint64 { return uint64(m.Pool.Evictions) })
	counter("uindex_pool_physical_reads_total", "Pages read from the page files.",
		func(m uindex.Metrics) uint64 { return uint64(m.Pool.PhysicalReads) })
	counter("uindex_pool_physical_writes_total", "Pages written to the page files.",
		func(m uindex.Metrics) uint64 { return uint64(m.Pool.PhysicalWrites) })
	counter("uindex_pool_batch_reads_total", "Batched backing reads issued by the pools.",
		func(m uindex.Metrics) uint64 { return uint64(m.Pool.BatchReads) })
	counter("uindex_pool_prefetch_pages_total", "Pages loaded by prefetch batches.",
		func(m uindex.Metrics) uint64 { return uint64(m.Pool.PrefetchPages) })
	counter("uindex_pool_prefetch_hits_total", "Reads served from a prefetched frame.",
		func(m uindex.Metrics) uint64 { return uint64(m.Pool.PrefetchHits) })
	counter("uindex_pool_prefetch_wasted_total", "Prefetched frames dropped before any use.",
		func(m uindex.Metrics) uint64 { return uint64(m.Pool.PrefetchWasted) })
	counter("uindex_nodecache_hits_total", "Decoded-node cache hits.",
		func(m uindex.Metrics) uint64 { return uint64(m.NodeCache.Hits) })
	counter("uindex_nodecache_misses_total", "Decoded-node cache misses.",
		func(m uindex.Metrics) uint64 { return uint64(m.NodeCache.Misses) })
	counter("uindex_queries_total", "Completed engine queries.",
		func(m uindex.Metrics) uint64 { return m.Queries })
	counter("uindex_query_errors_total", "Engine queries that returned an error.",
		func(m uindex.Metrics) uint64 { return m.QueryErrors })
	counter("uindex_query_pages_read_total", "Per-query distinct page reads, summed.",
		func(m uindex.Metrics) uint64 { return m.PagesRead })
	counter("uindex_query_entries_scanned_total", "Index entries inspected by queries.",
		func(m uindex.Metrics) uint64 { return m.EntriesScanned })
	counter("uindex_query_prefetch_issued_total", "Pages handed to the frontier prefetcher by queries.",
		func(m uindex.Metrics) uint64 { return m.PrefetchIssued })
	counter("uindex_inserts_total", "Completed Insert mutations.",
		func(m uindex.Metrics) uint64 { return m.Inserts })
	counter("uindex_deletes_total", "Completed Delete mutations.",
		func(m uindex.Metrics) uint64 { return m.Deletes })
	counter("uindex_sets_total", "Completed Set mutations.",
		func(m uindex.Metrics) uint64 { return m.Sets })
	counter("uindex_write_errors_total", "Mutations that returned an error.",
		func(m uindex.Metrics) uint64 { return m.WriteErrors })
	counter("uindex_batches_total", "Completed Apply (batch) calls.",
		func(m uindex.Metrics) uint64 { return m.Batches })
	counter("uindex_batch_ops_total", "Operations applied by batches.",
		func(m uindex.Metrics) uint64 { return m.BatchOps })
	counter("uindex_checkpoints_total", "Completed Checkpoint calls.",
		func(m uindex.Metrics) uint64 { return m.Checkpoints })
	counter("uindex_snapshots_taken_total", "Snapshots ever pinned.",
		func(m uindex.Metrics) uint64 { return m.SnapshotsTaken })
	if db.Metrics().WALEnabled { // fixed at open, like the shard topology
		counter("uindex_wal_appends_total", "Records appended to the write-ahead log.",
			func(m uindex.Metrics) uint64 { return m.WALAppends })
		counter("uindex_wal_fsyncs_total", "Group-commit fsyncs (below appends when commits coalesce).",
			func(m uindex.Metrics) uint64 { return m.WALFsyncs })
		counter("uindex_wal_group_commit_batches_total", "Group-commit flush batches.",
			func(m uindex.Metrics) uint64 { return m.WALBatches })
		counter("uindex_wal_group_commit_records_total", "Records carried by group-commit batches.",
			func(m uindex.Metrics) uint64 { return m.WALBatchRecords })
		counter("uindex_wal_checkpoints_total", "Completed incremental WAL checkpoints.",
			func(m uindex.Metrics) uint64 { return m.WALCheckpoints })
		reg.GaugeFunc("uindex_wal_recovery_replayed_records",
			"Log records replayed by the recovery that opened this database.",
			func() float64 { return float64(db.Metrics().WALRecoveryReplayed) })
		reg.GaugeFunc("uindex_wal_checkpoint_lag_bytes",
			"Live log bytes not yet folded into a checkpoint.",
			func() float64 { return float64(db.Metrics().WALLagBytes) })
	}
	reg.GaugeFunc("uindex_snapshots_active", "Snapshots currently pinned.",
		func() float64 { return float64(db.Metrics().SnapshotsActive) })
	reg.GaugeFunc("uindex_nodecache_entries", "Decoded nodes resident in the caches.",
		func() float64 { return float64(db.Metrics().NodeCache.Entries) })
	reg.GaugeFunc("uindex_indexes", "Declared indexes.",
		func() float64 { return float64(db.Metrics().Indexes) })

	// Per-shard series, one (index, shard) label pair each. The shard
	// topology is fixed once the database opens, so the labels are fixed at
	// registration; the values read the live ShardStats at scrape.
	for _, name := range db.Indexes() {
		stats, ok := db.ShardStats(name)
		if !ok {
			continue
		}
		for i := range stats {
			name, shard := name, i
			labels := []obs.Label{
				{Name: "index", Value: name},
				{Name: "shard", Value: fmt.Sprint(shard)},
			}
			reg.GaugeFunc("uindex_shard_entries",
				"Index entries resident per shard.", func() float64 {
					if ss, ok := db.ShardStats(name); ok && shard < len(ss) {
						return float64(ss[shard].Entries)
					}
					return 0
				}, labels...)
			reg.CounterFunc("uindex_shard_writes_total",
				"Mutations that acquired the shard's writer lock.", func() float64 {
					if ss, ok := db.ShardStats(name); ok && shard < len(ss) {
						return float64(ss[shard].Writes)
					}
					return 0
				}, labels...)
		}
	}
}
