package uindex

// This file is the DurabilityWAL machinery: a group-commit write-ahead log
// in front of the shadow-paging checkpoints.
//
// Commit path. This is the log step of the write pipeline (write.go): a write
// call — one mutation or a whole Apply batch — holds the writer locks of the
// shards it touches plus walState.commitMu in read mode, applies its store
// and index edits, and appends ONE logical record — per applied operation the
// store edit plus, per index group, the exact key deletions and insertions it
// performed — to the log BEFORE releasing those locks. The append only
// buffers in memory; the call then unlocks and waits for the log's
// group-commit daemon to fsync its record, sharing that fsync with every
// concurrent committer.
//
// Checkpoint protocol (walCheckpointLocked). The background checkpointer
// folds the log into the shadow-paged files without stalling writers:
//
//	C := log.LastAppended()            // the cut the manifest will record
//	for each group, each shard:        // one shard at a time, writers
//	    lock shard; checkpointShard; unlock
//	commitMu.Lock()
//	objs := store.Snapshot(); W := log.LastAppended()
//	commitMu.Unlock()
//	write store.<gen+1>.snap from objs // outside every lock
//	log.WaitDurable(W)
//	commit each group manifest; db manifest CommitWAL(gen+1, C)
//	log.TruncateTo(C)
//
// Why this recovers exactly the durable log prefix:
//
//   - Every published state contains every record with LSN <= C: a record
//     at or below C was appended before C was read, its edits were applied
//     before the append (same critical section), and the shard locks /
//     commitMu.Lock make those edits visible to the checkpoint reads.
//   - No published state contains a record above W: edits land under the
//     shard lock and commitMu before the append assigns the LSN, so
//     anything a checkpoint read had an LSN by then, and W was read after
//     every overlapping critical section ended.
//   - WaitDurable(W) before the manifest commits means every record
//     embedded in a published state is also in the durable log; recovery
//     replaying (C, durable] over those states converges because the
//     replay operations are idempotent (keyed B-tree edits, tolerant
//     store ops with fixed OIDs).

import (
	"encoding/binary"
	"errors"
	"fmt"
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
	// walLogName is the write-ahead log file.
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

// walState is the DurabilityWAL machinery of one Database.
type walState struct {
	log      *wal.Log
	manifest *pager.Manifest

	// commitMu orders mutations against the checkpoint's store cut: every
	// mutation holds it in read mode from its first store/index edit
	// through its log append, and the checkpointer holds it in write mode
	// only around the store snapshot + W read — so writers never stall on
	// checkpoint I/O, and the snapshot can neither contain an edit whose
	// LSN is above W nor miss one at or below C.
	commitMu sync.RWMutex

	// ckptMu serializes checkpoints (background, explicit Checkpoint,
	// catalog changes, Close).
	ckptMu sync.Mutex
	// storeGen is the generation of the current store snapshot file;
	// guarded by ckptMu.
	storeGen uint64

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

func newWALState(log *wal.Log, manifest *pager.Manifest, storeGen uint64, opts Options) *walState {
	ckptBytes := opts.WALCheckpointBytes
	if ckptBytes == 0 {
		ckptBytes = walDefaultCheckpointBytes
	}
	return &walState{
		log:       log,
		manifest:  manifest,
		storeGen:  storeGen,
		ckptBytes: ckptBytes,
		stopc:     make(chan struct{}),
		done:      make(chan struct{}),
	}
}

// bootstrapWAL initializes a fresh DurabilityWAL database directory: the
// generation-1 store snapshot, the database manifest, and an empty log. A
// directory that already holds a WAL database is refused — its log tail
// must be replayed, which is Open's job, not NewDatabaseWith's.
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
	manifest, err := pager.CreateManifestFile(manifestPath, nil, []uint64{1})
	if err != nil {
		return err
	}
	log, err := wal.Create(filepath.Join(db.opts.Dir, walLogName), wal.Options{MaxDelay: db.opts.WALMaxDelay})
	if err != nil {
		manifest.Close()
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
// database manifest for the last checkpoint (store snapshot generation +
// checkpoint LSN), decodes that store snapshot into a fresh database — which
// reopens every index from its manifest, each shard file at the generation the
// last commit published — and replays the committed log suffix on top. Torn
// or partially-synced log tails are detected by the log's per-record framing
// and truncated, never replayed. Every recovery failure matches ErrRecovery,
// and a failed Open leaves every file of the directory as it found it.
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
	storeGen := manifest.Gens()[0]
	var snap *snapshotData
	data, err := os.ReadFile(filepath.Join(dir, storeSnapName(storeGen)))
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
	log, err = wal.Open(filepath.Join(dir, walLogName), wal.Options{MaxDelay: opts.WALMaxDelay})
	if err != nil {
		return nil, recoveryError("opening write-ahead log", err)
	}
	w := newWALState(log, manifest, storeGen, opts)
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

	cut := w.log.LastAppended()
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
	// The store cut: commitMu in write mode excludes only the instant of
	// the in-memory snapshot + W read; encoding and writing the snapshot
	// file happen outside every lock.
	w.commitMu.Lock()
	objs, next := db.st.Snapshot()
	watermark := w.log.LastAppended()
	w.commitMu.Unlock()
	newGen := w.storeGen + 1
	snapPath := filepath.Join(db.opts.Dir, storeSnapName(newGen))
	if err := db.saveStoreSnapshot(snapPath, objs, next); err != nil {
		return fmt.Errorf("uindex: writing store snapshot: %w", err)
	}
	// Nothing a published state may contain can be missing from the log.
	if err := w.log.WaitDurable(watermark); err != nil {
		return err
	}
	for _, name := range db.order {
		g := db.groups[name]
		if err := g.commitManifest(); err != nil {
			return fmt.Errorf("uindex: committing index %q manifest: %w", name, err)
		}
	}
	if err := w.manifest.CommitWAL([]uint64{newGen}, cut); err != nil {
		return fmt.Errorf("uindex: committing database manifest: %w", err)
	}
	// The previous snapshot is now unreferenced; removal is best-effort
	// (a leftover file is orphaned, never read).
	os.Remove(filepath.Join(db.opts.Dir, storeSnapName(w.storeGen)))
	w.storeGen = newGen
	if err := w.log.TruncateTo(cut); err != nil {
		return err
	}
	w.ckpts.Add(1)
	db.ctrs.checkpoints.Add(1)
	return nil
}

// saveStoreSnapshot writes one store snapshot file and fsyncs it — the
// manifest commit that references it must never win the race to disk.
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
	return f.Close()
}

// --- record encoding --------------------------------------------------------
//
// One record is one write call (write.go): the record-kind byte, then the
// call's applied operations back to back until the payload ends. Each
// operation is the store codec's op (internal/store/codec.go: kind, OID — an
// insert's assigned id — and body, the same bytes the wire carries) followed
// by, per covering index group, the exact key deletions and insertions it
// performed. Records are physiological: replay re-applies the recorded key
// lists through the shard router rather than re-deriving them from the store,
// so a record replays identically whatever the surrounding state.

// walRecCommit is the record kind. Kinds 1-3 were per-operation records and
// kind 4 wrote OIDs as varints, before the log shared the store codec;
// recovery refuses them (a cleanly closed database has an empty log, so there
// is nothing to migrate).
const walRecCommit = 5

// walGroupEdit is the per-index part of a logged operation: the key
// deletions and insertions it performed on one group.
type walGroupEdit struct {
	name string
	dels [][]byte
	ins  [][]byte
}

// loggedOp is one decoded operation of a record. OID is set for every kind.
type loggedOp struct {
	BatchOp
	edits []walGroupEdit
}

// walAppendOp starts one operation of a record: kind, OID, the body encoded
// at plan time, and the number of group edits that follow.
func walAppendOp(b []byte, kind BatchOpKind, oid OID, body []byte, edits int) []byte {
	b = store.AppendOID(append(b, byte(kind)), oid)
	b = append(b, body...)
	return binary.AppendUvarint(b, uint64(edits))
}

// walAppendEdit appends one group's key edits to the current operation.
func walAppendEdit(b []byte, name string, dels, ins [][]byte) []byte {
	b = store.AppendString(b, name)
	b = binary.AppendUvarint(b, uint64(len(dels)))
	for _, k := range dels {
		b = store.AppendBytes(b, k)
	}
	b = binary.AppendUvarint(b, uint64(len(ins)))
	for _, k := range ins {
		b = store.AppendBytes(b, k)
	}
	return b
}

// walKeys decodes one key list, copying each key out of the record.
func walKeys(d *store.Decoder) [][]byte {
	n := d.Count()
	out := make([][]byte, 0, min(n, store.Prealloc))
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, append([]byte(nil), d.Bytes()...))
	}
	return out
}

// decodeWALRecord is the pure half of replay: payload bytes to operations,
// touching no database state. Anything but a well-formed walRecCommit record
// — including the record kinds of earlier formats — is an error.
func decodeWALRecord(payload []byte) ([]loggedOp, error) {
	d := store.NewDecoder(payload)
	if kind := d.Byte(); d.Err() == nil && kind != walRecCommit {
		return nil, fmt.Errorf("unknown record kind %d", kind)
	}
	var ops []loggedOp
	for d.Err() == nil && d.Len() > 0 {
		op := loggedOp{BatchOp: d.Op()}
		n := d.Count()
		op.edits = make([]walGroupEdit, 0, min(n, store.Prealloc))
		for i := 0; i < n && d.Err() == nil; i++ {
			op.edits = append(op.edits, walGroupEdit{name: d.Str(), dels: walKeys(&d), ins: walKeys(&d)})
		}
		ops = append(ops, op)
	}
	return ops, d.Err()
}

// walReplayRecord re-applies one log record during recovery: decode it whole,
// then per operation the store edit — through the tolerant Replay* methods
// (fixed OIDs, no reference validation: a later record may delete a
// referenced object) — and the recorded key edits, re-routed to their shards.
// Replay runs before the Database is published, so no locks are needed.
// Edits naming a since-dropped index are skipped.
func (db *Database) walReplayRecord(payload []byte) error {
	ops, err := decodeWALRecord(payload)
	if err != nil {
		return err
	}
	for _, op := range ops {
		switch op.Kind {
		case BatchInsert:
			if err := db.st.ReplayInsert(op.OID, op.Class, op.Attrs); err != nil {
				return err
			}
		case BatchSet:
			db.st.ReplaySet(op.OID, op.Attr, op.Value)
		case BatchDelete:
			db.st.ReplayDelete(op.OID)
		}
		for _, e := range op.edits {
			g, ok := db.groups[e.name]
			if !ok {
				continue
			}
			if err := g.sharded.ApplyKeys(e.dels, e.ins); err != nil {
				return fmt.Errorf("index %q: %w", e.name, err)
			}
		}
	}
	return nil
}
