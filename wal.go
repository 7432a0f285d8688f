package uindex

// This file is the DurabilityWAL machinery: a group-commit write-ahead log
// in front of the shadow-paging checkpoints.
//
// Commit path. This is the log step of the write pipeline (write.go): a write
// call — one mutation or a whole Apply batch — holds the writer locks of the
// shards it touches plus walState.commitMu in read mode, applies its store
// and index edits and publishes its tree transactions, and appends ONE
// logical record — the call's operations, each with the OID it acted on — to
// the log BEFORE releasing those locks. A call that fails has undone its
// edits and appends nothing.
// The append only buffers in memory; the call then unlocks and waits for the
// log's group-commit daemon to fsync its record, sharing that fsync with
// every concurrent committer.
//
// Checkpoint protocol (walCheckpointLocked). The background checkpointer
// folds the log into the shadow-paged files without stalling writers. Each
// checkpoint is one generation g: it writes store.<g>.snap and starts the log
// segment wal.<g>.log, which holds exactly the records above the cut that
// db.manifest records with g.
//
//	commitMu.Lock()
//	objs := store.Snapshot(); S := log.Seal()          // the store cut
//	commitMu.Unlock()
//	log.Rotate(wal.<g>.log)            // outside every lock; records > S go there
//	for each group, each shard:        // one shard at a time, writers
//	    lock shard; checkpointShard; unlock
//	W := log.LastAppended()
//	write store.<g>.snap from objs     // outside every lock
//	log.WaitDurable(W)
//	commit each group manifest; db manifest CommitWAL(g, S)
//	remove every store.<k>.snap and wal.<k>.log with k < g
//
// Why replaying from S recovers exactly the durable log prefix:
//
//   - The snapshot is exactly the log prefix <= S: writers edit the store
//     and append under commitMu.RLock, so every record at or below S has
//     all of its store edits in the snapshot and no record above S has any.
//   - The segments from the manifest's generation on hold every record above
//     S: wal.<g>.log starts at S+1, and its header and directory entry are
//     durable before any record is written into it. Until g commits, Open
//     replays the previous generation's segment and chains into wal.<g>.log.
//   - Every shard holds at least that prefix and at most W: it is flushed
//     under its writer lock after S is read, and writers edit a shard and
//     append under that lock, so the shard holds a prefix of the records
//     that touch it, and W is read after every flush.
//   - WaitDurable(W) before the manifest commits means every record a
//     published shard may hold is also in the durable log, so replay
//     reaches it.
//   - Replay runs each record through the live write's commit (execute
//     into one transaction per shard, then publish) over a store that is
//     exactly at that record, so it derives the same key deletions and
//     insertions the live write made. ApplyKeys treats deleting an absent
//     key and inserting a present one as no-ops, so re-applying edits a
//     shard already holds changes nothing, and every key ends where its
//     last record left it.
//   - Only files of generations below the committed one are removed, and a
//     segment is never rewritten, so no byte replay may need is ever gone.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pager"
	"repro/internal/store"
	"repro/internal/wal"
)

const (
	// walManifestName is the database commit manifest: one "shard" slot
	// carrying the store snapshot generation, plus the checkpoint LSN.
	walManifestName = "db.manifest"
	// walLogName is the single log file of earlier builds. Open reads it as
	// the manifest generation's segment when that segment is absent; the next
	// checkpoint removes it.
	walLogName = "wal.log"

	// walDefaultCheckpointBytes is the live-log size that triggers a
	// background checkpoint when Options.WALCheckpointBytes is zero.
	walDefaultCheckpointBytes = 4 << 20
	// walCheckpointPoll is how often the background checkpointer samples
	// the live-log size.
	walCheckpointPoll = 50 * time.Millisecond
)

// storeSnapName is the store snapshot file of one checkpoint generation.
func storeSnapName(gen uint64) string { return fmt.Sprintf("store.%d.snap", gen) }

// walSegName is the log segment of one checkpoint generation: the records
// above that generation's cut.
func walSegName(gen uint64) string { return fmt.Sprintf("wal.%d.log", gen) }

// removeGenerations removes every store snapshot and log segment of dir
// whose generation drop selects.
func removeGenerations(dir string, drop func(gen uint64) bool) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		// A generation's file is named exactly as its number formats.
		var gen uint64
		name := e.Name()
		if fmt.Sscanf(name, "store.%d.snap", &gen); name != storeSnapName(gen) {
			if fmt.Sscanf(name, "wal.%d.log", &gen); name != walSegName(gen) {
				continue
			}
		}
		if drop(gen) {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// walState is the DurabilityWAL machinery of one Database.
type walState struct {
	log      *wal.Log
	manifest *pager.Manifest

	// commitMu orders mutations against the checkpoint's store cut: every
	// mutation holds it in read mode from its first store/index edit
	// through its log append, and the checkpointer holds it in write mode
	// only around the store snapshot + S read — so writers never stall on
	// checkpoint I/O, and the snapshot holds exactly the records at or
	// below S.
	commitMu sync.RWMutex

	// ckptMu serializes checkpoints (background, explicit Checkpoint,
	// catalog changes, Close).
	ckptMu sync.Mutex
	// gen is the newest generation with files on disk, the one the live
	// log segment belongs to: the manifest's after a commit, later after a
	// checkpoint that failed past its rotation or an Open that chained into
	// an interrupted one. The next checkpoint is gen+1. Guarded by ckptMu.
	gen uint64

	replayed  atomic.Uint64 // records replayed by Open
	ckpts     atomic.Uint64 // completed WAL checkpoints
	ckptBytes int64         // live-log trigger; <0 disables

	stopOnce sync.Once
	stopc    chan struct{}
	done     chan struct{}
}

// stopCheckpointer signals the background checkpointer and waits for it to
// exit; callable from any goroutine, any number of times. Must run before
// taking the catalog write lock — the checkpointer acquires the read lock.
func (w *walState) stopCheckpointer() {
	w.stopOnce.Do(func() { close(w.stopc) })
	<-w.done
}

func newWALState(log *wal.Log, manifest *pager.Manifest, gen uint64, opts Options) *walState {
	ckptBytes := opts.WALCheckpointBytes
	if ckptBytes == 0 {
		ckptBytes = walDefaultCheckpointBytes
	}
	return &walState{
		log:       log,
		manifest:  manifest,
		gen:       gen,
		ckptBytes: ckptBytes,
		stopc:     make(chan struct{}),
		done:      make(chan struct{}),
	}
}

// bootstrapWAL initializes a fresh DurabilityWAL database directory: the
// generation-1 store snapshot and log segment, then the database manifest
// that names them. A directory that already holds a WAL database is refused
// — its log tail must be replayed, which is Open's job, not
// NewDatabaseWith's.
func (db *Database) bootstrapWAL() error {
	manifestPath := filepath.Join(db.opts.Dir, walManifestName)
	if _, err := os.Stat(manifestPath); err == nil {
		return fmt.Errorf("uindex: %s already holds a WAL database; recover it with Open", db.opts.Dir)
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	objs, next := db.st.Snapshot()
	if err := db.saveStoreSnapshot(filepath.Join(db.opts.Dir, storeSnapName(1)), objs, next); err != nil {
		return fmt.Errorf("uindex: writing initial store snapshot: %w", err)
	}
	log, err := wal.Create(filepath.Join(db.opts.Dir, walSegName(1)), wal.Options{MaxDelay: db.opts.WALMaxDelay})
	if err != nil {
		return err
	}
	manifest, err := pager.CreateManifestFile(manifestPath, nil, []uint64{1})
	if err != nil {
		log.Close()
		return err
	}
	db.wal = newWALState(log, manifest, 1, db.opts)
	go db.walCheckpointer()
	return nil
}

// recoveryError tags a recovery failure with ErrRecovery, keeping the
// underlying cause (pager corruption, WAL detail, snapshot damage) in the
// chain for errors.Is/errors.As.
func recoveryError(what string, err error) error {
	if errors.Is(err, ErrRecovery) {
		return err
	}
	return fmt.Errorf("%w: %s: %w", ErrRecovery, what, err)
}

// Open recovers a DurabilityWAL database from its directory: it reads the
// database manifest for the last checkpoint (generation + checkpoint LSN),
// decodes that generation's store snapshot into a fresh database — which
// reopens every index from its manifest, each shard file at the generation the
// last commit published — and replays the log on top: the generation's
// segment from the checkpoint LSN, then each later segment an interrupted
// checkpoint started, as long as it chains. Torn or partially-synced log tails
// are detected by the log's per-record framing and truncated, never replayed.
// Every recovery failure matches ErrRecovery, and a failed Open leaves every
// file of the directory as it found it; a successful one removes the files of
// generations past the last segment that chained, which hold nothing
// committed or acknowledged.
//
// opts.Dir and opts.Durability are overridden by dir and DurabilityWAL;
// the remaining options (pools, caches, WAL knobs) apply as in
// NewDatabaseWith, except Shards: the index manifests decide.
func Open(dir string, opts Options) (_ *Database, err error) {
	opts.Dir = dir
	opts.Durability = DurabilityWAL
	manifest, err := pager.OpenManifestFile(filepath.Join(dir, walManifestName))
	if err != nil {
		return nil, recoveryError("opening database manifest", err)
	}
	var (
		db  *Database
		log *wal.Log
	)
	defer func() {
		// Nothing a failed recovery rebuilt or replayed in memory may reach
		// the disk: no checkpoint, and a log never appended to flushes nothing.
		if err != nil {
			if log != nil {
				log.Close()
			}
			if db != nil {
				db.close(false)
			}
			manifest.Close()
		}
	}()
	gen := manifest.Gens()[0]
	var snap *snapshotData
	data, err := os.ReadFile(filepath.Join(dir, storeSnapName(gen)))
	if err == nil {
		snap, err = decodeSnapshot(data)
	}
	if err == nil {
		db, err = newDatabase(snap.schema, opts)
	}
	if err == nil {
		// No log is attached yet, so attaching the indexes checkpoints nothing.
		err = db.attach(snap)
	}
	if err != nil {
		return nil, recoveryError("loading store snapshot", err)
	}
	// The log is the manifest generation's segment, or an earlier build's
	// log in its place, then every later segment on disk.
	var segs []pager.BlockFile
	for k := gen; ; k++ {
		b, oerr := pager.OpenBlock(filepath.Join(dir, walSegName(k)), false)
		if k == gen && errors.Is(oerr, fs.ErrNotExist) {
			b, oerr = pager.OpenBlock(filepath.Join(dir, walLogName), false)
		} else if errors.Is(oerr, fs.ErrNotExist) {
			break
		}
		if oerr != nil {
			err = oerr
			break
		}
		segs = append(segs, b)
	}
	chained := 0
	if err == nil {
		log, chained, err = wal.OpenOn(segs[0], wal.Options{MaxDelay: opts.WALMaxDelay}, segs[1:]...)
	}
	if err == nil {
		segs = segs[1+chained:] // the log owns the segments that chained
	}
	for _, b := range segs {
		b.Close()
	}
	if err != nil {
		return nil, recoveryError("opening write-ahead log", err)
	}
	// Appends resume in the last segment that chains.
	w := newWALState(log, manifest, gen+uint64(chained), opts)
	err = log.Replay(manifest.WALLSN(), func(lsn uint64, payload []byte) error {
		if rerr := db.walReplayRecord(payload); rerr != nil {
			return fmt.Errorf("record %d: %w", lsn, rerr)
		}
		w.replayed.Add(1)
		return nil
	})
	if err != nil {
		return nil, recoveryError("replaying log", err)
	}
	// A file of a later generation holds no acknowledged record and no
	// committed snapshot; removing it keeps the next checkpoint's segment
	// chained to the live one.
	if err = removeGenerations(dir, func(k uint64) bool { return k > w.gen }); err != nil {
		return nil, recoveryError("removing an unchained generation", err)
	}
	db.wal = w
	go db.walCheckpointer()
	return db, nil
}

// walCheckpointer is the background goroutine that folds the log into the
// shadow-paged files once its live size crosses the configured trigger.
func (db *Database) walCheckpointer() {
	w := db.wal
	defer close(w.done)
	if w.ckptBytes < 0 {
		<-w.stopc
		return
	}
	t := time.NewTicker(walCheckpointPoll)
	defer t.Stop()
	for {
		select {
		case <-w.stopc:
			return
		case <-t.C:
			if w.log.LiveBytes() < w.ckptBytes {
				continue
			}
			db.mu.RLock()
			if !db.closed {
				// Best-effort: a failing background checkpoint leaves the
				// log in place; the next explicit Checkpoint or Close
				// surfaces the error.
				_ = db.walCheckpointLocked()
			}
			db.mu.RUnlock()
		}
	}
}

// walCheckpointLocked runs one incremental checkpoint; see the protocol at
// the top of this file. The caller holds db.mu (read or write).
func (db *Database) walCheckpointLocked() error {
	w := db.wal
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()

	// The store cut: commitMu in write mode excludes only the instant of the
	// in-memory snapshot + seal; encoding and writing the snapshot file and
	// starting the next segment happen outside every lock.
	w.commitMu.Lock()
	objs, next := db.st.Snapshot()
	cut := w.log.Seal()
	w.commitMu.Unlock()
	// Records above the cut wait in memory until their segment is durable.
	// The generation moves only once its segment is attached: a failed
	// rotation fails the log, and Rotate on a failed log creates no file.
	gen := w.gen + 1
	segPath := filepath.Join(db.opts.Dir, walSegName(gen))
	if err := w.log.Rotate(func() (pager.BlockFile, error) { return pager.OpenBlock(segPath, true) }); err != nil {
		return fmt.Errorf("uindex: starting log segment: %w", err)
	}
	w.gen = gen
	// Publish each shard on its own, holding only that shard's writer
	// lock: writers to other shards (and readers everywhere) proceed.
	for _, name := range db.order {
		g := db.groups[name]
		for i := range g.files {
			g.sharded.LockShards(1 << i)
			err := g.checkpointShard(i)
			g.sharded.UnlockShards(1 << i)
			if err != nil {
				return fmt.Errorf("uindex: checkpointing index %q shard %d: %w", name, i, err)
			}
		}
	}
	watermark := w.log.LastAppended()
	if err := db.saveStoreSnapshot(filepath.Join(db.opts.Dir, storeSnapName(gen)), objs, next); err != nil {
		return fmt.Errorf("uindex: writing store snapshot: %w", err)
	}
	// Nothing a published shard may hold can be missing from the log.
	if err := w.log.WaitDurable(watermark); err != nil {
		return err
	}
	for _, name := range db.order {
		g := db.groups[name]
		if err := g.commitManifest(); err != nil {
			return fmt.Errorf("uindex: committing index %q manifest: %w", name, err)
		}
	}
	if err := w.manifest.CommitWAL([]uint64{gen}, cut); err != nil {
		return fmt.Errorf("uindex: committing database manifest: %w", err)
	}
	// Every older generation is unreferenced now, and so is an earlier
	// build's log. Removal is best-effort: what a failure or a crash leaves
	// behind, the next checkpoint removes.
	_ = removeGenerations(db.opts.Dir, func(k uint64) bool { return k < gen })
	_ = os.Remove(filepath.Join(db.opts.Dir, walLogName))
	w.ckpts.Add(1)
	db.ctrs.checkpoints.Add(1)
	return nil
}

// saveStoreSnapshot writes one store snapshot file and fsyncs it and its
// directory entry — the manifest commit that references it must never win
// the race to disk.
func (db *Database) saveStoreSnapshot(path string, objs []store.RestoredObject, next OID) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.saveSnapshot(f, objs, next); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return pager.SyncDir(path)
}

// --- record encoding --------------------------------------------------------
//
// One record is one write call (write.go): the record-kind byte, then the
// call's operations back to back until the payload ends, each the store
// codec's op (internal/store/codec.go: kind, OID — an insert's assigned id —
// and body, the same bytes the wire carries). A record holds no index keys:
// replay re-derives every key edit through the write path's own commit, from
// a store that is exactly at the record.

// walRecCommit is the record kind. Kinds 1-3 were per-operation records, kind
// 4 wrote OIDs as varints, and kind 5 carried each operation's index key
// edits beside it; recovery refuses them all. A kind-5 directory's store
// snapshot may be ahead of its replay start, so its operations cannot be
// replayed by derivation — and a cleanly closed database has an empty log,
// so there is nothing to migrate.
const walRecCommit = 6

// walRecord encodes a write call's record: the kind byte, then per operation
// its kind, its OID and its body, bodies[ends[i-1]:ends[i]], encoded at plan
// time.
func walRecord(ops []BatchOp, oids []OID, bodies []byte, ends []int) []byte {
	rec := append(make([]byte, 0, 1+5*len(ops)+len(bodies)), walRecCommit)
	start := 0
	for i := range ops {
		rec = append(store.AppendOID(append(rec, byte(ops[i].Kind)), oids[i]), bodies[start:ends[i]]...)
		start = ends[i]
	}
	return rec
}

// decodeWALRecord is the pure half of replay: payload bytes to operations,
// touching no database state. Anything but a well-formed walRecCommit record
// — including the record kinds of earlier formats — is an error.
func decodeWALRecord(payload []byte) ([]BatchOp, error) {
	d := store.NewDecoder(payload)
	if kind := d.Byte(); d.Err() == nil && kind != walRecCommit {
		return nil, fmt.Errorf("unknown record kind %d", kind)
	}
	var ops []BatchOp
	for d.Err() == nil && d.Len() > 0 {
		ops = append(ops, d.Op())
	}
	return ops, d.Err()
}

// walReplayRecord re-applies one log record during recovery: decode it
// whole, then run its operations through the live write's commit with the
// tolerant Replay* store edits (fixed OIDs, no reference validation), which
// derives and applies their index key edits exactly as the live write did —
// one transaction per shard, published once. Replay runs before the Database
// is published, so no locks are needed; the index set is the one the log was
// written under, because CreateIndex and DropIndex checkpoint.
func (db *Database) walReplayRecord(payload []byte) error {
	ops, err := decodeWALRecord(payload)
	if err != nil {
		return err
	}
	groups := db.groupWrites()
	for i := range groups {
		groups[i].locks = groups[i].g.sharded.AllShards()
	}
	_, _, err = db.commit(context.Background(), ops, groups, true)
	return err
}
