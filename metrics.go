package uindex

import "sync/atomic"

// Metrics is one merged snapshot of every counter the engine maintains: the
// buffer-pool and decoded-node-cache counters, plus cumulative query and
// write counters accumulated by the facade. It is the database's one stats
// accessor; internal/obs, uindexcli's .pool and any future tool read this
// struct.
//
// All counters are cumulative over the database's lifetime; Metrics may be
// called at any time, including concurrently with queries and writers, and
// after Close.
type Metrics struct {
	// Pool aggregates the buffer-pool counters over every index;
	// PoolEnabled is false when the database runs without a pool
	// (Options.PoolPages 0), in which case Pool is zero.
	Pool        BufferPoolStats
	PoolEnabled bool
	// NodeCache aggregates the decoded-node cache counters over every
	// index.
	NodeCache NodeCacheStats

	// Query-side counters. Queries counts completed Query calls —
	// including snapshot queries; QueryErrors the subset that returned an
	// error. PagesRead, EntriesScanned, Matches,
	// and PrefetchIssued sum the per-query Stats (PrefetchIssued counts
	// pages handed to the background frontier prefetcher — accounting
	// only, prefetched pages never inflate PagesRead).
	Queries        uint64
	QueryErrors    uint64
	PagesRead      uint64
	EntriesScanned uint64
	Matches        uint64
	PrefetchIssued uint64

	// Write-side counters: completed mutations and the subset that
	// returned an error (store rejection or index-maintenance failure).
	Inserts     uint64
	Deletes     uint64
	Sets        uint64
	WriteErrors uint64

	// Batches counts completed Apply calls; BatchOps the operations they
	// applied (those are also counted individually under
	// Inserts/Sets/Deletes).
	Batches  uint64
	BatchOps uint64

	// Checkpoints counts completed Checkpoint calls (with DurabilityWAL,
	// completed WAL checkpoints from any trigger — background, explicit,
	// catalog change, or Close).
	Checkpoints uint64

	// WAL series; all zero unless the database runs with DurabilityWAL
	// (WALEnabled). WALAppends counts records appended, WALFsyncs the
	// group-commit fsyncs that made them durable (WALFsyncs < WALAppends
	// means group commit is amortizing), WALBatches the flush batches and
	// WALBatchRecords the records they carried (their ratio is the mean
	// group-commit batch size). WALRecoveryReplayed is the records Open
	// replayed to recover this database; WALCheckpoints the completed
	// incremental checkpoints; WALLagBytes the live log bytes not yet
	// folded into a checkpoint.
	WALEnabled          bool
	WALAppends          uint64
	WALFsyncs           uint64
	WALBatches          uint64
	WALBatchRecords     uint64
	WALRecoveryReplayed uint64
	WALCheckpoints      uint64
	WALLagBytes         uint64

	// Snapshot lifecycle: how many Snapshot() calls ever pinned a view,
	// and how many are currently unreleased. SnapshotsActive reaching 0
	// after Close proves no epoch pins leak.
	SnapshotsTaken  uint64
	SnapshotsActive uint64

	// Indexes is the number of declared indexes.
	Indexes int

	// Shards maps each index name to its per-shard series — entry counts
	// and write-lock traffic — in shard order. Unsharded indexes appear
	// with a single-element slice.
	Shards map[string][]ShardStat
}

// ShardStat is one shard's slice of an index's per-shard metrics.
type ShardStat struct {
	// Shard is the shard's position in its group (0-based).
	Shard int `json:"shard"`
	// Entries is the number of index entries currently in the shard's
	// tree.
	Entries int `json:"entries"`
	// Writes counts the mutations that acquired this shard's writer lock
	// since the database opened — the shard-distribution metric for write
	// workloads.
	Writes uint64 `json:"writes"`
}

// counters is the facade's cumulative side of Metrics; every field is
// atomic so queries and writers record without any shared lock.
type counters struct {
	queries        atomic.Uint64
	queryErrors    atomic.Uint64
	pagesRead      atomic.Uint64
	entriesScanned atomic.Uint64
	matches        atomic.Uint64
	prefetchIssued atomic.Uint64
	inserts        atomic.Uint64
	deletes        atomic.Uint64
	sets           atomic.Uint64
	writeErrors    atomic.Uint64
	batches        atomic.Uint64
	batchOps       atomic.Uint64
	checkpoints    atomic.Uint64
	snapsTaken     atomic.Uint64
	snapsActive    atomic.Int64
}

// countQuery records one completed query execution.
func (c *counters) countQuery(stats Stats, err error) {
	c.queries.Add(1)
	if err != nil {
		c.queryErrors.Add(1)
		return
	}
	c.pagesRead.Add(uint64(stats.PagesRead))
	c.entriesScanned.Add(uint64(stats.EntriesScanned))
	c.matches.Add(uint64(stats.Matches))
	c.prefetchIssued.Add(uint64(stats.PrefetchIssued))
}

// countWrite records one completed mutation on the given counter.
func (c *counters) countWrite(kind *atomic.Uint64, err error) {
	if err != nil {
		c.writeErrors.Add(1)
		return
	}
	kind.Add(1)
}

// Metrics returns one merged snapshot of the engine's counters; see the
// Metrics type for the field semantics.
func (db *Database) Metrics() Metrics {
	m := Metrics{
		Queries:         db.ctrs.queries.Load(),
		QueryErrors:     db.ctrs.queryErrors.Load(),
		PagesRead:       db.ctrs.pagesRead.Load(),
		EntriesScanned:  db.ctrs.entriesScanned.Load(),
		Matches:         db.ctrs.matches.Load(),
		PrefetchIssued:  db.ctrs.prefetchIssued.Load(),
		Inserts:         db.ctrs.inserts.Load(),
		Deletes:         db.ctrs.deletes.Load(),
		Sets:            db.ctrs.sets.Load(),
		WriteErrors:     db.ctrs.writeErrors.Load(),
		Batches:         db.ctrs.batches.Load(),
		BatchOps:        db.ctrs.batchOps.Load(),
		Checkpoints:     db.ctrs.checkpoints.Load(),
		SnapshotsTaken:  db.ctrs.snapsTaken.Load(),
		SnapshotsActive: uint64(max(0, db.ctrs.snapsActive.Load())),
	}
	if w := db.wal; w != nil {
		st := w.log.Stats()
		m.WALEnabled = true
		m.WALAppends = st.Appends
		m.WALFsyncs = st.Fsyncs
		m.WALBatches = st.Batches
		m.WALBatchRecords = st.BatchRecords
		m.WALRecoveryReplayed = w.replayed.Load()
		m.WALCheckpoints = w.ckpts.Load()
		m.WALLagBytes = uint64(max(0, w.log.LiveBytes()))
	}
	m.Pool, m.PoolEnabled = db.poolStats()
	m.NodeCache = db.nodeCacheStats()
	db.mu.RLock()
	m.Indexes = len(db.groups)
	m.Shards = make(map[string][]ShardStat, len(db.groups))
	for name, g := range db.groups {
		m.Shards[name] = g.shardStats()
	}
	db.mu.RUnlock()
	return m
}

// shardStats reads one group's per-shard series. Entry counts come from the
// live trees (O(1) per shard) and may be mid-mutation; the write counters
// are monotone.
func (g *indexGroup) shardStats() []ShardStat {
	out := make([]ShardStat, g.sharded.NumShards())
	for i := range out {
		out[i] = ShardStat{
			Shard:   i,
			Entries: g.sharded.Shard(i).Len(),
			Writes:  g.shardWrites[i].Load(),
		}
	}
	return out
}

// ShardStats returns the per-shard series of one index (see ShardStat); ok
// is false when the index does not exist. Unsharded indexes report a single
// shard.
func (db *Database) ShardStats(index string) ([]ShardStat, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	g, ok := db.groups[index]
	if !ok {
		return nil, false
	}
	return g.shardStats(), true
}

// NumShards returns the shard count of one index; ok is false when the
// index does not exist.
func (db *Database) NumShards(index string) (int, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	g, ok := db.groups[index]
	if !ok {
		return 0, false
	}
	return g.sharded.NumShards(), true
}
