// Package uindex is the public API of this repository: a working
// object-oriented database engine around the U-index of Gudes, "A Uniform
// Indexing Scheme for Object-Oriented Databases" (ICDE 1996 / Information
// Systems 22(4), 1997).
//
// A Database combines a class schema (with the paper's lexicographic class
// coding), an object store, and any number of U-indexes — each a single
// B+-tree with front-compressed keys that serves uniformly as a
// class-hierarchy index, a path (nested) index, or a combined
// class-hierarchy/path index. Mutations through the Database keep every
// index consistent.
//
// Quick start:
//
//	s := uindex.NewSchema()
//	s.AddClass("Vehicle", "",
//		uindex.Attr{Name: "Color", Type: uindex.String},
//	)
//	s.AddClass("Automobile", "Vehicle")
//	db, _ := uindex.NewDatabase(s)
//	db.CreateIndex(uindex.IndexSpec{Name: "color", Root: "Vehicle", Attr: "Color"})
//	oid, _ := db.Insert("Automobile", uindex.Attrs{"Color": "Red"})
//	ms, _, _ := db.Query(context.Background(), "color", uindex.Query{
//		Value:     uindex.Exact("Red"),
//		Positions: []uindex.Position{uindex.On("Automobile")},
//	})
//
// See examples/ for runnable programs covering the paper's scenarios.
package uindex

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/btree"
	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/pager"
	"repro/internal/querylang"
	"repro/internal/schema"
	"repro/internal/store"
)

// Sentinel errors. Returned errors wrap these; test with errors.Is.
var (
	// ErrClosed is returned by operations on a closed Database.
	ErrClosed = errors.New("uindex: database closed")
	// ErrIndexNotFound is returned when an operation names an index the
	// database does not have.
	ErrIndexNotFound = errors.New("uindex: index not found")
	// ErrUnknownClass is returned when an operation names a class the
	// schema does not declare.
	ErrUnknownClass = store.ErrUnknownClass
	// ErrSnapshotReleased is returned by queries through a released
	// Snapshot.
	ErrSnapshotReleased = btree.ErrSnapshotReleased
	// ErrCorruptFile is returned when a disk-backed index file is
	// structurally damaged (truncated or garbage headers, broken free
	// chain). Corruption is surfaced, never silently rebuilt over.
	ErrCorruptFile = pager.ErrCorruptFile
	// ErrRecovery is returned by Open (and by LoadFileWith reopening
	// disk-backed indexes) when recovery cannot proceed: a damaged commit
	// manifest, a corrupt write-ahead log, an unreadable store snapshot, or
	// a corrupt index file. The underlying cause (ErrCorruptFile, an
	// ErrCorruptPage, the WAL detail) stays in the chain for
	// errors.Is/errors.As.
	ErrRecovery = errors.New("uindex: recovery failed")
)

// ErrCorruptPage reports a page of a disk-backed index whose stored
// checksum does not match its payload; match with errors.As.
type ErrCorruptPage = pager.ErrCorruptPage

// Re-exported types: the facade exposes the internal packages' vocabulary
// under one import path.
type (
	// OID is a four-byte object identifier.
	OID = store.OID
	// Attrs assigns attribute values for an object.
	Attrs = store.Attrs
	// Object is a stored object instance.
	Object = store.Object
	// Attr declares one class attribute.
	Attr = schema.Attr
	// Schema is a class schema; build with NewSchema.
	Schema = schema.Schema
	// Coding is a class-code assignment (the paper's COD relation).
	Coding = schema.Coding
	// RefEdge names one REF relationship, for CodingHonoring.
	RefEdge = schema.RefEdge
	// Query is the Section-3.4 general query.
	Query = core.Query
	// ValuePred restricts the indexed attribute value.
	ValuePred = core.ValuePred
	// Position restricts one (terminal-first) path position.
	Position = core.Position
	// ClassPattern is one alternative of a Position.
	ClassPattern = core.ClassPattern
	// Match is one query result.
	Match = core.Match
	// Stats reports query cost in the paper's units.
	Stats = core.Stats
	// Algorithm selects parallel (Algorithm 1) or forward retrieval.
	Algorithm = core.Algorithm
	// IndexSpec declares a U-index.
	IndexSpec = core.Spec
	// PathEntry is one (class code, oid) step of a match path.
	PathEntry = encoding.PathEntry
	// Tracker accounts distinct page reads across queries.
	Tracker = pager.Tracker
	// BufferPoolStats is a snapshot of the buffer-pool cache counters.
	BufferPoolStats = bufferpool.Stats
	// NodeCacheStats is a snapshot of an index's decoded-node cache
	// counters.
	NodeCacheStats = btree.CacheStats
	// ExecContext is the per-query execution state (tracker + algorithm +
	// accumulated stats); one is created per query unless shared
	// explicitly.
	ExecContext = core.ExecContext
)

// Attribute type selectors for Attr.Type.
const (
	Uint64  = encoding.AttrUint64
	Int64   = encoding.AttrInt64
	Float64 = encoding.AttrFloat64
	String  = encoding.AttrString
)

// Retrieval algorithms (paper Section 3.3/3.4).
const (
	// Parallel is the paper's Algorithm 1 (Parscan).
	Parallel = core.Parallel
	// Forward is the naive forward-scanning baseline.
	Forward = core.Forward
)

// Query constructor helpers, re-exported from the core package.
var (
	Exact          = core.Exact
	OneOf          = core.OneOf
	Range          = core.Range
	Uint64Range    = core.Uint64Range
	On             = core.On
	OnExact        = core.OnExact
	OnObjects      = core.OnObjects
	OneOfClasses   = core.OneOfClasses
	Any            = core.Any
	NewTracker     = pager.NewTracker
	NewExecContext = core.NewExecContext
)

// NewSchema returns an empty schema.
func NewSchema() *Schema { return schema.New() }

// Durability selects when a disk-backed database (Options.Dir) makes its
// state crash-safe. Whatever the mode, a checkpoint is atomic: a crash at
// any instant recovers each file to exactly the previous or the new
// checkpoint, never a mix, and every page read back is checksum-verified.
type Durability int

const (
	// DurabilityCheckpoint (the default) makes state durable at explicit
	// Checkpoint calls, at CreateIndex (the freshly built index), and at
	// Close and DropIndex.
	DurabilityCheckpoint Durability = iota
	// DurabilityNone checkpoints only at explicit Checkpoint calls and at
	// CreateIndex; Close and DropIndex discard everything after the last
	// checkpoint (the file keeps that checkpoint intact).
	DurabilityNone
	// DurabilityWAL puts a group-commit write-ahead log in front of the
	// shadow-paging checkpoints: every write call — Insert, Set, Delete, or
	// a whole Apply batch — appends one logical record to Dir/wal.log and
	// returns once that record is fsynced; concurrent committers share one
	// fsync, and a batch, being one record, is atomic across a crash. This
	// is the mode for per-mutation durability. A background checkpointer
	// folds the log into the shadow-paged files incrementally, without
	// stalling writers, and truncates the replayed prefix. Databases in this
	// mode must be reopened with Open, which replays the committed log
	// suffix on top of the last checkpoint.
	DurabilityWAL
)

// Options configures optional Database machinery.
type Options struct {
	// PoolPages, when positive, places a buffer pool of that many frames
	// (internal/bufferpool) between each index and its page file. The
	// pool is transparent to query results and to the paper's logical
	// page-read counts; PoolStats exposes its hit/miss counters. A pool
	// also turns on the Parscan frontier prefetcher — the scan hands its
	// next-level page frontier to a background goroutine that loads it with
	// one batched read while the current level is decoded — which is equally
	// transparent; Metrics exposes the prefetch counters.
	PoolPages int
	// NodeCacheSize caps each index's shared decoded-node cache, in
	// nodes: 0 selects the btree default, negative disables the caches.
	// An explicit IndexSpec.NodeCacheSize overrides this per index. The
	// cache is transparent to query results and to the paper's logical
	// page-read counts (those are tracked before any cache is
	// consulted); NodeCacheStats exposes its hit/miss counters.
	NodeCacheSize int
	// Dir, when non-empty, keeps each index on disk instead of in memory:
	// one crash-safe page file per shard, Dir/<name>.shard<i>.uidx
	// (checksummed pages, atomic shadow-paged checkpoints), rooted by the
	// commit record Dir/<name>.manifest, which publishes the shard files'
	// generations atomically. CreateIndex reopens an existing manifest from
	// its last commit without rebuilding; a corrupt file surfaces an error
	// matching ErrCorruptFile or ErrCorruptPage, never a silent rebuild.
	// Only the index trees live in these files — persist the object store
	// separately with Save/Load.
	Dir string
	// Durability selects when disk-backed indexes checkpoint; see the
	// Durability constants. Ignored when Dir is empty.
	Durability Durability
	// WALMaxDelay bounds how long the group-commit daemon lingers after a
	// record arrives before forcing the fsync, trading commit latency for
	// larger batches. 0 (the default) syncs as soon as the daemon is free:
	// records arriving during an in-flight fsync still coalesce into the
	// next one, so fsyncs amortize under concurrency with no added
	// latency. Only meaningful with DurabilityWAL.
	WALMaxDelay time.Duration
	// WALCheckpointBytes is the live-log size that wakes the background
	// checkpointer with DurabilityWAL; 0 selects a 4 MiB default, negative
	// disables size-triggered checkpoints (explicit Checkpoint calls and
	// Close still fold the log).
	WALCheckpointBytes int64
	// Shards, when greater than 1, partitions each index into up to that
	// many shards by contiguous class-code intervals: every entry routes to
	// exactly one shard by the class code at position 0 of its key (the
	// terminal object's actual class), each shard owns its own page file,
	// buffer pool (PoolPages frames each), node cache, and writer lock, and
	// queries scatter over the relevant shards and merge in key order.
	// The effective count is clamped to the number of classes under the
	// index's terminal class and to pager.MaxShards (61); 0 or 1 means one
	// shard. With Dir set, an existing manifest's shard count and routing
	// bounds always win over this setting on reopen.
	Shards int
}

// Database is a schema + object store + U-indexes, kept consistent.
//
// Concurrency contract: writers never block readers. Every query (Query, and
// queries through a Snapshot) runs against an immutable pinned version of
// each index tree, so it sees a
// consistent state regardless of concurrent mutations and never waits for
// them. Mutations (Insert, Delete, Set) serialize per index — writers on
// indexes with disjoint coverage proceed in parallel; writers on the same
// index queue on that index's write lock. Catalog operations (CreateIndex,
// DropIndex, Close) are exclusive: they wait for in-flight operations and
// block new ones while they restructure the index set.
type Database struct {
	// mu guards the catalog: the group map, creation order, and the closed
	// flag. Queries and object mutations hold it in read mode (they only
	// look groups up); catalog operations hold it in write mode.
	mu     sync.RWMutex
	sch    *schema.Schema
	st     *store.Store
	groups map[string]*indexGroup
	order  []string
	opts   Options
	closed bool

	// snapMu guards the open-snapshot registry (always acquired after mu
	// when both are held); Close releases every snapshot still open so no
	// epoch pin outlives the database.
	snapMu sync.Mutex
	snaps  map[*Snapshot]struct{}
	// ctrs are the cumulative counters behind Metrics().
	ctrs counters

	// wal is the group-commit machinery of DurabilityWAL: the log, the
	// database commit manifest, and the background checkpointer. Nil in
	// every other mode. Set once before the Database is published, so
	// reads need no lock.
	wal *walState
}

// indexGroup is the facade's unit of index management: one logical index as
// a core.Sharded group (a single shard unless Options.Shards asks for more)
// together with its per-shard machinery. Slots of pools/files are nil when
// the shard runs without a pool or in memory.
type indexGroup struct {
	name    string
	sharded *core.Sharded
	pools   []*bufferpool.Pool
	files   []*pager.DiskFile
	// manifest is the commit record that roots a disk-backed group; nil for
	// in-memory groups. manifestMu serializes its commits: a committer reads
	// every shard file's durable generation, and since a shard's checkpoint
	// completes before its writer lock is released, the recorded vector is
	// always a consistent cut.
	manifest   *pager.Manifest
	manifestMu sync.Mutex
	// shardWrites counts, per shard, the mutations that acquired that
	// shard's writer lock — the write-distribution metric behind
	// ShardStats.
	shardWrites []atomic.Uint64
}

// disk reports whether the group is disk-backed.
func (g *indexGroup) disk() bool { return g.manifest != nil }

// checkpointShard makes one shard's state durable (tree flush, meta-page
// payload, pool flush or file sync). The caller holds that shard's writer
// lock. The shard's new generation is not published to the manifest here —
// pair with commitManifest.
func (g *indexGroup) checkpointShard(i int) error {
	df := g.files[i]
	ix := g.sharded.Shard(i)
	if err := ix.Flush(); err != nil {
		return err
	}
	var pl [4]byte
	binary.BigEndian.PutUint32(pl[:], uint32(ix.MetaPage()))
	if err := df.SetPayload(pl[:]); err != nil {
		return err
	}
	if pool := g.pools[i]; pool != nil {
		return pool.FlushAll()
	}
	return df.Sync()
}

// commitManifest atomically publishes the current durable generation of
// every shard file.
func (g *indexGroup) commitManifest() error {
	g.manifestMu.Lock()
	defer g.manifestMu.Unlock()
	gens := make([]uint64, len(g.files))
	for i, df := range g.files {
		gens[i] = df.Generation()
	}
	return g.manifest.Commit(gens)
}

// checkpoint checkpoints every shard of a disk-backed group, then commits the
// manifest. The caller holds every shard's writer lock or otherwise excludes
// writers.
func (g *indexGroup) checkpoint() error {
	for i := range g.files {
		if err := g.checkpointShard(i); err != nil {
			return err
		}
	}
	return g.commitManifest()
}

// discard closes a disk-backed group's shard files and manifest without
// publishing anything: the files keep their last commit. It is the whole
// teardown after a checkpoint (pool frames are clean then) and the only one
// on failure paths, which must never write.
func (g *indexGroup) discard() error {
	var first error
	for _, df := range g.files {
		if df == nil {
			continue
		}
		if err := df.CloseDiscard(); err != nil && first == nil {
			first = err
		}
	}
	if g.manifest != nil {
		if err := g.manifest.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NewDatabase creates a database over the schema, assigning class codes if
// that has not happened yet. The schema may keep evolving afterwards
// (paper Figure 4); new classes receive codes automatically.
func NewDatabase(s *Schema) (*Database, error) {
	return NewDatabaseWith(s, Options{})
}

// NewDatabaseWith is NewDatabase with explicit Options.
func NewDatabaseWith(s *Schema, opts Options) (*Database, error) {
	db, err := newDatabase(s, opts)
	if err == nil && opts.Durability == DurabilityWAL {
		err = db.bootstrapWAL()
	}
	if err != nil {
		return nil, err
	}
	return db, nil
}

// newDatabase is NewDatabaseWith short of the WAL bootstrap: an empty
// database with no log attached, which is also what Open recovers into.
func newDatabase(s *Schema, opts Options) (*Database, error) {
	if s.Coding() == nil {
		if _, err := s.AssignCodes(); err != nil {
			return nil, err
		}
	}
	if opts.Durability == DurabilityWAL && opts.Dir == "" {
		return nil, errors.New("uindex: DurabilityWAL requires Options.Dir")
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("uindex: creating database directory: %w", err)
		}
	}
	return &Database{
		sch:    s,
		st:     store.New(s),
		groups: make(map[string]*indexGroup),
		opts:   opts,
	}, nil
}

// Close marks the database closed, checkpoints every disk-backed index
// (unless Options.Durability is DurabilityNone, which discards work after
// the last checkpoint), and releases buffer pools and files. It waits for
// in-flight operations — including queries through open Snapshots, which
// are released here so no epoch pin survives Close; subsequent operations
// fail with ErrClosed (snapshot queries with ErrSnapshotReleased). Close is
// idempotent.
func (db *Database) Close() error { return db.close(true) }

// close(false) is Close for a database that failed before it was handed to a
// caller (LoadWith, Open): everything is released and nothing checkpointed, so
// a failed load or recovery leaves the directory the bytes it had.
func (db *Database) close(publish bool) error {
	if db.wal != nil {
		// Stop the background checkpointer before taking the catalog
		// write lock: it checkpoints under the read lock, and a stop
		// signal sent while we hold the write lock could deadlock against
		// its next acquisition.
		db.wal.stopCheckpointer()
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	db.releaseSnapshotsLocked()
	var first error
	if db.wal != nil {
		if publish {
			// Final fold: everything the log holds lands in the shadow-paged
			// files and the db manifest, so the log closes empty.
			first = db.walCheckpointLocked()
		}
		// An unpublished database never ran a write call, so closing its
		// log flushes nothing.
		if err := db.wal.log.Close(); err != nil && first == nil {
			first = err
		}
		if err := db.wal.manifest.Close(); err != nil && first == nil {
			first = err
		}
	}
	// With a WAL the fold above has checkpointed every group; a second
	// checkpoint per group would be redundant I/O.
	checkpoint := publish && db.opts.Durability == DurabilityCheckpoint
	for _, name := range db.order {
		if err := db.groups[name].release(checkpoint); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// release tears down one group's pools, disk files, and manifest, after a
// final checkpoint when asked for one. The caller holds the catalog write
// lock.
func (g *indexGroup) release(checkpoint bool) error {
	var first error
	if g.disk() {
		if checkpoint {
			first = g.checkpoint()
		}
		// The checkpoint above is the only publish point: closing must not
		// sync a stale payload, so the pools are dropped with the files.
		if err := g.discard(); err != nil && first == nil {
			first = err
		}
		return first
	}
	for i, pool := range g.pools {
		if pool == nil {
			continue
		}
		// Push tree-cache state down before the pool closes.
		if err := g.sharded.Shard(i).DropCache(); err != nil && first == nil {
			first = err
		}
		if err := pool.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DropCaches flushes every index's in-memory node cache so subsequent
// reads go through the page files (and their buffer pools, when
// configured). Cold-cache measurements call this between the build and
// measure phases; it takes the catalog write lock, so no catalog changes
// may race it, and each index's write lock, so no mutations are in flight.
func (db *Database) DropCaches() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	var first error
	for _, name := range db.order {
		g := db.groups[name]
		g.sharded.LockShards(g.sharded.AllShards())
		err := g.sharded.DropCache()
		g.sharded.UnlockShards(g.sharded.AllShards())
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DropPageCaches is DropCaches plus the page layers below it: every buffer
// pool is reset (dirty frames flushed, unpinned frames dropped) and every
// disk-backed page file asks the OS to evict its page-cache contents
// (posix_fadvise DONTNEED; a no-op on in-memory files and non-Linux
// systems). After it returns, the next query's reads hit the actual device —
// this is what the cold-cache benchmark calls between iterations. Locking
// matches DropCaches: the catalog write lock plus every index's write locks.
func (db *Database) DropPageCaches() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	var first error
	for _, name := range db.order {
		g := db.groups[name]
		g.sharded.LockShards(g.sharded.AllShards())
		if err := g.sharded.DropCache(); err != nil && first == nil {
			first = err
		}
		for _, pool := range g.pools {
			if pool == nil {
				continue
			}
			if err := pool.Reset(); err != nil && first == nil {
				first = err
			}
		}
		for _, f := range g.files {
			if f == nil {
				continue
			}
			if err := f.DropOSCache(); err != nil && first == nil {
				first = err
			}
		}
		g.sharded.UnlockShards(g.sharded.AllShards())
	}
	return first
}

// PoolStats aggregates the buffer-pool counters over every index. ok is
// false when the database was opened without a pool (Options.PoolPages 0).
func (db *Database) PoolStats() (BufferPoolStats, bool) {
	if db.opts.PoolPages <= 0 {
		return BufferPoolStats{}, false
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	var agg BufferPoolStats
	for _, g := range db.groups {
		for _, p := range g.pools {
			if p != nil {
				agg.Add(p.PoolStats())
			}
		}
	}
	return agg, true
}

// NodeCacheStats aggregates the decoded-node cache counters over every
// index: cumulative hits and misses, and the nodes currently resident.
func (db *Database) NodeCacheStats() NodeCacheStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var agg NodeCacheStats
	for _, g := range db.groups {
		st := g.sharded.NodeCacheStats()
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Entries += st.Entries
	}
	return agg
}

// Schema returns the database schema.
func (db *Database) Schema() *Schema { return db.sch }

// Store returns the underlying object store (read-mostly access; prefer
// the Database mutation methods, which maintain indexes).
func (db *Database) Store() *store.Store { return db.st }

// Coding returns the default class coding.
func (db *Database) Coding() *Coding { return db.sch.Coding() }

// CreateIndex declares a U-index and builds it from the current objects.
// Each index lives in its own page files with the paper's 1024-byte pages —
// in memory by default, or crash-safe files under Options.Dir when set;
// with Options.PoolPages set, a buffer pool sits in front of each file.
// With Options.Shards above 1 the index is partitioned into shards by
// class-code intervals (see Options.Shards).
//
// With Dir set, an existing Dir/<name>.manifest is reopened from its last
// commit instead of rebuilding: the shard count and routing bounds it records
// win over Options.Shards, and every Dir/<name>.shard<i>.uidx file is opened
// at the generation it recorded. The caller must present the same spec and an
// object store with the same contents (see Load). Corruption — structural
// damage or a checksum-failing page — is surfaced as an error matching
// ErrCorruptFile or ErrCorruptPage, never silently rebuilt over. A freshly
// built index is checkpointed before CreateIndex returns.
func (db *Database) CreateIndex(spec IndexSpec) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if _, dup := db.groups[spec.Name]; dup {
		return fmt.Errorf("uindex: index %q already exists", spec.Name)
	}
	if spec.NodeCacheSize == 0 {
		spec.NodeCacheSize = db.opts.NodeCacheSize
	}
	g, err := db.openGroup(spec)
	if err != nil {
		return err
	}
	db.groups[spec.Name] = g
	db.order = append(db.order, spec.Name)
	if db.wal != nil {
		// Catalog changes do not ride the log: fold everything now so the
		// store snapshot on disk records the new index declaration and
		// recovery reopens it instead of diverging.
		if err := db.walCheckpointLocked(); err != nil {
			// The declaration never reached the disk: take the index back out.
			delete(db.groups, spec.Name)
			db.order = db.order[:len(db.order)-1]
			g.discard()
			return fmt.Errorf("uindex: index %q: checkpointing catalog change: %w", spec.Name, err)
		}
	}
	return nil
}

// openGroup creates or reopens the group of one index spec; it is the one
// place an indexGroup is assembled. In memory every shard is a fresh MemFile.
// On disk the manifest is the root: an existing one dictates the shard map
// (Options.Shards is ignored) and the generation each shard file is opened
// AT, rolling back any shard whose checkpoint outran the last commit; without
// one the shard files and then the manifest are created before the build (so
// every on-disk artifact exists from the start) and committed again by the
// initial checkpoint — a crash in between reopens to the consistent empty
// state and builds again.
func (db *Database) openGroup(spec IndexSpec) (_ *indexGroup, err error) {
	// The spec is validated, and the class codes the shard map partitions
	// derived (the terminal class's hierarchy, which is exactly the set of
	// position-0 codes), before anything touches the directory.
	codes, err := core.ShardCodes(db.st, spec)
	if err != nil {
		return nil, err
	}
	g := &indexGroup{name: spec.Name}
	defer func() {
		if err != nil {
			g.discard()
			err = fmt.Errorf("uindex: index %q: %w", spec.Name, err)
		}
	}()

	dir := db.opts.Dir
	manifestPath := filepath.Join(dir, spec.Name+".manifest")
	smap := core.NewShardMap(codes, min(db.opts.Shards, pager.MaxShards))
	var gens []uint64 // per-shard generations to reopen at; nil creates the files
	if dir != "" {
		g.manifest, err = pager.OpenManifestFile(manifestPath)
		if err == nil {
			gens = g.manifest.Gens()
			bounds := g.manifest.Bounds()
			codes := make([]encoding.Code, len(bounds))
			for i, b := range bounds {
				codes[i] = encoding.Code(b)
			}
			if smap, err = core.ShardMapFromBounds(codes); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorruptFile, err)
			}
		} else if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}
	n := smap.Shards()
	g.files = make([]*pager.DiskFile, n)
	g.pools = make([]*bufferpool.Pool, n)
	g.shardWrites = make([]atomic.Uint64, n)

	// A shard file's checkpoint payload is the meta page of its built tree.
	// An empty payload is a file created but never checkpointed with a built
	// index — only consistent when every shard is in that state.
	built := 0
	metas := make([]pager.PageID, n)
	for i := 0; i < n && dir != ""; i++ {
		path := filepath.Join(dir, fmt.Sprintf("%s.shard%d.uidx", spec.Name, i))
		if gens == nil {
			g.files[i], err = pager.CreateDiskFile(path, 0)
		} else {
			g.files[i], err = pager.OpenDiskFileAt(path, gens[i])
		}
		if err != nil {
			return nil, err
		}
		switch pl := g.files[i].Payload(); len(pl) {
		case 4:
			metas[i] = pager.PageID(binary.BigEndian.Uint32(pl))
			built++
		case 0:
		default:
			return nil, fmt.Errorf("shard %d: %w: checkpoint payload has unexpected length %d",
				i, ErrCorruptFile, len(pl))
		}
	}
	if built != 0 && built != n {
		return nil, fmt.Errorf("%w: %d shards built, %d empty under one manifest commit",
			ErrCorruptFile, built, n-built)
	}
	if dir != "" && gens == nil {
		bounds := make([][]byte, n-1)
		for i, c := range smap.Bounds() {
			bounds[i] = []byte(c)
		}
		gens = make([]uint64, n)
		for i, df := range g.files {
			gens[i] = df.Generation()
		}
		if g.manifest, err = pager.CreateManifestFile(manifestPath, bounds, gens); err != nil {
			return nil, err
		}
	}

	files := make([]pager.File, n)
	for i, df := range g.files {
		files[i] = pager.NewMemFile(0)
		if df != nil {
			files[i] = df
		}
		if db.opts.PoolPages > 0 {
			if g.pools[i], err = bufferpool.New(files[i], bufferpool.Config{Pages: db.opts.PoolPages}); err != nil {
				return nil, err
			}
			files[i] = g.pools[i]
		}
	}
	if built == 0 {
		metas = nil // nothing to reopen: build from the store
	}
	if g.sharded, err = core.NewSharded(db.st, spec, smap, files, metas); err != nil {
		return nil, err
	}
	if built == 0 && g.disk() {
		if err = g.checkpoint(); err != nil {
			return nil, fmt.Errorf("checkpointing initial build: %w", err)
		}
	}
	return g, nil
}

// Checkpoint makes the current state of every disk-backed index durable.
// Each index checkpoints atomically under its write lock: a crash at any
// instant leaves each index file at exactly its previous or its new
// checkpoint. Queries proceed unblocked throughout. Databases without
// Options.Dir return nil immediately.
func (db *Database) Checkpoint() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	if db.wal != nil {
		return db.walCheckpointLocked()
	}
	for _, name := range db.order {
		g := db.groups[name]
		if !g.disk() {
			continue
		}
		g.sharded.LockShards(g.sharded.AllShards())
		err := g.checkpoint()
		g.sharded.UnlockShards(g.sharded.AllShards())
		if err != nil {
			return fmt.Errorf("uindex: checkpointing index %q: %w", name, err)
		}
	}
	db.ctrs.checkpoints.Add(1)
	return nil
}

// DropIndex removes an index, closing its buffer pools and disk files if it
// has them. A disk-backed index is checkpointed first (unless the database
// runs with DurabilityNone); its files are left on disk and can be
// re-attached by a later CreateIndex with the same name.
func (db *Database) DropIndex(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	g, ok := db.groups[name]
	if !ok {
		return fmt.Errorf("uindex: no index %q: %w", name, ErrIndexNotFound)
	}
	if db.wal != nil {
		// The log is truncated right after this drop, so the orphaned files
		// must carry their own final checkpoint — holding only records the
		// log has made durable, or a crash before the truncation would
		// recover an index ahead of the replayable store.
		err := db.wal.log.WaitDurable(db.wal.log.LastAppended())
		if err == nil {
			err = g.checkpoint()
		}
		if err != nil {
			return fmt.Errorf("uindex: checkpointing index %q before drop: %w", name, err)
		}
	}
	// Under the WAL the checkpoint above was the final one.
	err := g.release(db.opts.Durability == DurabilityCheckpoint)
	delete(db.groups, name)
	for i, n := range db.order {
		if n == name {
			db.order = append(db.order[:i], db.order[i+1:]...)
			break
		}
	}
	if db.wal != nil {
		if cerr := db.walCheckpointLocked(); cerr != nil && err == nil {
			err = fmt.Errorf("uindex: checkpointing catalog change: %w", cerr)
		}
	}
	return err
}

// Index returns the prototype shard (shard 0) of a declared index, which
// carries the spec, coding, and key layout used by ParseQuery, Explain, and
// introspection. It is for concurrent read-only use; queries and mutations go
// through the Database. On a sharded index the shard's Len and Tree cover
// only shard 0 — use ShardStats for per-shard entry counts.
func (db *Database) Index(name string) (*core.Index, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	g, ok := db.groups[name]
	if !ok {
		return nil, false
	}
	return g.sharded.Prototype(), true
}

// Indexes lists the declared index names in creation order.
func (db *Database) Indexes() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]string(nil), db.order...)
}

// Get returns an object by id.
func (db *Database) Get(oid OID) (*Object, bool) {
	return db.st.Get(oid)
}

// QueryOption configures one Query call.
type QueryOption func(*queryConfig)

type queryConfig struct {
	alg  Algorithm
	tr   *Tracker
	snap *Snapshot
}

// WithAlgorithm selects the retrieval strategy (default Parallel, the
// paper's Algorithm 1).
func WithAlgorithm(alg Algorithm) QueryOption {
	return func(c *queryConfig) { c.alg = alg }
}

// WithTracker shares a page-read tracker across queries, reproducing the
// paper's buffered experiment model (cumulative distinct pages). A shared
// tracker must not be used from multiple goroutines at once; give each
// goroutine its own and combine them with Tracker.Merge.
func WithTracker(tr *Tracker) QueryOption {
	return func(c *queryConfig) { c.tr = tr }
}

// WithSnapshot runs the query against a previously taken Snapshot instead
// of the current state: the same snapshot serves any number of queries, all
// seeing one consistent version regardless of concurrent writers.
func WithSnapshot(s *Snapshot) QueryOption {
	return func(c *queryConfig) { c.snap = s }
}

// Query runs a query on the named index. Options select the algorithm, a
// shared tracker, or a snapshot to read from; defaults are the parallel
// algorithm, a private tracker, and the current state. ctx cancellation
// aborts the scan at the next page visit.
//
// Every query runs against one immutable pinned version of the index tree,
// so concurrent mutations are neither observed mid-query nor waited on. Any
// number of Query calls run in parallel.
//
// The matches of one result share storage: their Paths are capped windows of
// a few backing arrays (an append to a Path copies), and consecutive matches
// with one attribute value share one Value.
func (db *Database) Query(ctx context.Context, index string, q Query, opts ...QueryOption) ([]Match, Stats, error) {
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.snap != nil {
		return cfg.snap.query(ctx, index, q, cfg)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, Stats{}, ErrClosed
	}
	g, ok := db.groups[index]
	if !ok {
		err := fmt.Errorf("uindex: no index %q: %w", index, ErrIndexNotFound)
		db.ctrs.countQuery(Stats{}, err)
		return nil, Stats{}, err
	}
	ms, stats, err := g.sharded.ExecuteCtx(ctx, q, &core.ExecContext{Tracker: cfg.tr, Algorithm: cfg.alg})
	db.ctrs.countQuery(stats, err)
	return ms, stats, err
}

// ParseQuery parses a paper-notation textual query (see the querylang
// package for the grammar) against an index obtained from Index().
func ParseQuery(ix *core.Index, query string) (Query, error) {
	return querylang.Parse(ix, query)
}

// ClassOf resolves an object id to its class name.
func (db *Database) ClassOf(oid OID) (string, bool) {
	o, ok := db.st.Get(oid)
	if !ok {
		return "", false
	}
	return o.Class, true
}

// CODTable renders the paper's COD relation (Section 3) for display.
func (db *Database) CODTable() []string {
	var out []string
	for _, row := range db.sch.Coding().Table() { // rows sorted by code
		out = append(out, fmt.Sprintf("%-24s COD %s", row.Class, row.Code.Compact()))
	}
	return out
}
