package uindex

// This file is the write path — the only one. The paper's Section 3.5 reduces
// every update to a set of key deletions plus a set of key insertions on the
// one B+-tree; write is that primitive for n mutations, Apply calls it with a
// batch and Insert/Set/Delete with a batch of one:
//
//	plan     resolve each op's class, rejecting unknown classes and OIDs;
//	         with a WAL, encode each op's body with the store codec (so an
//	         unloggable value fails here); union the shard locks every
//	         covering group needs. A failure here has touched nothing.
//	lock     group creation order, shard index ascending, then the uncovered
//	         lock if an op's class no index covers — the single global order
//	         that keeps multi-index writers deadlock-free. Every call that
//	         edits an object holds a lock every other call editing it takes,
//	         so an undo never meets another call's edit.
//	execute  open one tree transaction per locked shard; per op, in order:
//	         per covering group EntriesFor, the store edit, EntriesFor
//	         again, DiffKeys → ApplyKeys into those transactions
//	commit   write the pages of every transaction, then publish them all.
//	         A failure in execute or commit aborts every transaction and
//	         undoes the store edits: the call happened whole or not at all.
//	         Recovery replays a logged call through these two steps.
//	log      with a WAL: ONE record carrying the call's ops, appended
//	         before the locks drop (see wal.go)
//	unlock
//	wait     with a WAL: the group-commit fsync of that one record

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/store"
)

// BatchOpKind identifies one mutation kind inside a Batch. The values are
// also the operation kinds of a log record and of the wire: never renumber
// them.
type BatchOpKind = store.OpKind

const (
	// BatchInsert stores a new object.
	BatchInsert = store.KindInsert
	// BatchSet updates one attribute of an existing object.
	BatchSet = store.KindSet
	// BatchDelete removes an existing object.
	BatchDelete = store.KindDelete
)

// BatchOp is one mutation of a Batch. Exactly the fields of its kind are
// meaningful: Class and Attrs for BatchInsert; OID, Attr, and Value for
// BatchSet; OID for BatchDelete. The log, the snapshot and the wire encode
// it with one codec (internal/store/codec.go).
type BatchOp = store.Op

// Batch collects mutations for one Apply call. Build it with Insert, Set,
// and Delete; the zero value is an empty batch. A Batch is not safe for
// concurrent mutation, and may be reused after Apply.
type Batch struct {
	ops []BatchOp
}

// Insert appends an object insertion.
func (b *Batch) Insert(class string, attrs Attrs) *Batch {
	b.ops = append(b.ops, BatchOp{Kind: BatchInsert, Class: class, Attrs: attrs})
	return b
}

// Set appends an attribute update of an existing object.
func (b *Batch) Set(oid OID, attr string, v any) *Batch {
	b.ops = append(b.ops, BatchOp{Kind: BatchSet, OID: oid, Attr: attr, Value: v})
	return b
}

// Delete appends an object deletion.
func (b *Batch) Delete(oid OID) *Batch {
	b.ops = append(b.ops, BatchOp{Kind: BatchDelete, OID: oid})
	return b
}

// Len returns the number of operations in the batch.
func (b *Batch) Len() int { return len(b.ops) }

// Ops returns the batch's operations in order (shared backing array; treat
// as read-only).
func (b *Batch) Ops() []BatchOp { return b.ops }

// Reset empties the batch for reuse.
func (b *Batch) Reset() { b.ops = b.ops[:0] }

// BatchResult reports what an Apply call did.
type BatchResult struct {
	// OIDs are the ids assigned to the batch's BatchInsert operations, in
	// operation order.
	OIDs []OID
}

// Apply executes a batch of mutations through one pass of the write pipeline:
// the union of the shard locks its operations need is taken once, every
// operation is applied in order into one transaction per locked shard, each
// of which commits once, and — under DurabilityWAL — the whole batch is one
// log record and one group-commit wait. Batching is the write-path analogue
// of the paper's buffered experiment model: per-call overheads (lock
// handshakes, tree commits, log appends, fsync waits) amortize over the
// batch.
//
// A batch is a transaction: it applies whole or not at all. An error from an
// operation (wrapped with its index and kind) leaves the store, every index
// and the log as they were before the call. Set and Delete operations must
// reference objects that exist when Apply begins (an OID inserted earlier in
// the same batch cannot be referenced later in it — its covering shards are
// unknown at planning time). ctx is consulted between operations; a canceled
// context fails the batch.
//
// Queries never block on an in-flight batch: they read the pinned tree
// versions from before or after each shard's commit.
func (db *Database) Apply(ctx context.Context, b *Batch) (BatchResult, error) {
	var res BatchResult
	if b == nil || len(b.ops) == 0 {
		return res, nil
	}
	at, err := db.write(ctx, b.ops, &res)
	if err != nil {
		if at >= 0 {
			err = fmt.Errorf("uindex: batch op %d (%s): %w", at, b.ops[at].Kind, err)
		}
		return res, err
	}
	db.ctrs.batches.Add(1)
	db.ctrs.batchOps.Add(uint64(len(b.ops)))
	return res, nil
}

// Insert stores a new object and adds its entries to every index that can
// cover its class. Inserts of objects with disjoint index coverage run in
// parallel; only writers to the same index shard, or to classes no index
// covers, serialize. Queries are never blocked — they read the pinned tree
// version from before or after each index commit.
func (db *Database) Insert(class string, attrs Attrs) (OID, error) {
	res, err := db.writeOne(BatchOp{Kind: BatchInsert, Class: class, Attrs: attrs})
	if err != nil {
		return 0, err
	}
	return res.OIDs[0], nil
}

// Set updates one attribute of an object, applying the batch index diff of
// the paper's Section 3.5 (a president switching companies is exactly one
// Set call). The write locks of every covering index are held across the
// before-enumeration, the store update, and the diff application, so each
// index moves atomically from the old state to the new one.
func (db *Database) Set(oid OID, attr string, v any) error {
	_, err := db.writeOne(BatchOp{Kind: BatchSet, OID: oid, Attr: attr, Value: v})
	return err
}

// Delete removes an object and its entries from every index. Objects that
// reference the deleted one keep dangling references; their index entries
// through the deleted object are removed here. The write locks of every
// covering index are held for the whole removal, so concurrent writers to
// those indexes wait while others proceed.
func (db *Database) Delete(oid OID) error {
	_, err := db.writeOne(BatchOp{Kind: BatchDelete, OID: oid})
	return err
}

// writeOne is write for a batch of one, which has no use for the failing
// operation's index.
func (db *Database) writeOne(op BatchOp) (BatchResult, error) {
	var res BatchResult
	_, err := db.write(context.Background(), []BatchOp{op}, &res)
	return res, err
}

// groupWrite is one index group's share of a write call: the union of the
// shard locks the call's operations need on it, the transactions open on
// those shards, and, while one operation executes, whether the group covers
// it and its entry keys before the store edit.
type groupWrite struct {
	g      *indexGroup
	locks  uint64
	txs    []*btree.Tx
	covers bool
	olds   [][]byte
}

// undoOp takes one executed operation back: the object it installed (nil
// after a delete) and the one it replaced (nil before an insert).
type undoOp struct {
	oid       OID
	cur, prev *store.Object
}

// groupWrites returns one groupWrite per index group, in creation order,
// with no locks.
func (db *Database) groupWrites() []groupWrite {
	groups := make([]groupWrite, len(db.order))
	for gi, name := range db.order {
		groups[gi].g = db.groups[name]
	}
	return groups
}

// write runs mutations through the pipeline described at the top of this
// file. It returns the index of the operation an error belongs to, or -1 for
// an error of the call as a whole (closed database, page writes, failed log
// fsync). Every failing call counts one write error; every operation of a
// call that applied counts under its kind.
func (db *Database) write(ctx context.Context, ops []BatchOp, res *BatchResult) (at int, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return -1, ErrClosed
	}
	defer func() {
		if err != nil {
			db.ctrs.writeErrors.Add(1)
		}
	}()

	// Plan. Set and Delete resolve their class through the store, so the
	// objects they name must exist before the call.
	groups := db.groupWrites()
	uncovered := false
	bodyEnds := make([]int, len(ops)) // where each op's body ends in bodies
	var bodies []byte
	for i := range ops {
		op := &ops[i]
		class := op.Class
		switch op.Kind {
		case BatchInsert:
			if _, ok := db.sch.Class(op.Class); !ok {
				return i, fmt.Errorf("%w %q", ErrUnknownClass, op.Class)
			}
		case BatchSet, BatchDelete:
			o, ok := db.st.Get(op.OID)
			if !ok {
				return i, fmt.Errorf("store: no object %d", op.OID)
			}
			class = o.Class
		default:
			return i, fmt.Errorf("uindex: unknown mutation kind %d", uint8(op.Kind))
		}
		covered := false
		for gi := range groups {
			if sh := groups[gi].g.sharded; sh.Covers(class) {
				groups[gi].locks |= sh.WriteShards(class)
				covered = true
			}
		}
		uncovered = uncovered || !covered
		if db.wal != nil {
			if bodies, err = store.AppendOpBody(bodies, op); err != nil {
				return i, err
			}
			bodyEnds[i] = len(bodies)
		}
	}

	// Lock.
	for i := range groups {
		groups[i].g.sharded.LockShards(groups[i].locks)
	}
	if uncovered {
		db.uncoveredMu.Lock()
	}

	// Execute and commit, then log: the edits and the append share one
	// commitMu critical section, which is what lets a checkpoint cut the
	// store between two records and never inside one.
	if db.wal != nil {
		db.wal.commitMu.RLock()
	}
	oids, at, err := db.commit(ctx, ops, groups, false)
	var lsn uint64
	if oids != nil {
		for i := range ops {
			switch ops[i].Kind {
			case BatchInsert:
				res.OIDs = append(res.OIDs, oids[i])
				db.ctrs.inserts.Add(1)
			case BatchSet:
				db.ctrs.sets.Add(1)
			case BatchDelete:
				db.ctrs.deletes.Add(1)
			}
		}
		if db.wal != nil {
			lsn = db.wal.log.Append(walRecord(ops, oids, bodies, bodyEnds))
		}
	}
	if db.wal != nil {
		db.wal.commitMu.RUnlock()
	}

	// Unlock; a call that applied counts once against every shard it locked.
	for i := range groups {
		gw := &groups[i]
		for m := gw.locks; oids != nil && m != 0; m &= m - 1 {
			gw.g.shardWrites[bits.TrailingZeros64(m)].Add(1)
		}
		gw.g.sharded.UnlockShards(gw.locks)
	}
	if uncovered {
		db.uncoveredMu.Unlock()
	}

	// Wait, after the locks drop, so concurrent committers queue only on
	// the shared fsync.
	if lsn != 0 {
		if werr := db.wal.log.WaitDurable(lsn); werr != nil && err == nil {
			at, err = -1, werr
		}
	}
	return at, err
}

// commit is what live writes and recovery share: every operation executes
// into one transaction per shard of the groups' lock masks, every transaction
// writes its pages, and only then does each publish. A failure aborts them
// all and reinstalls, newest first, the objects the operations replaced. It
// returns each operation's OID (nil when nothing applied) and for an error
// its operation's index or -1; with OIDs, the error is a page not freed.
func (db *Database) commit(ctx context.Context, ops []BatchOp, groups []groupWrite, replay bool) (oids []OID, at int, err error) {
	var txs []*btree.Tx // every open transaction; groups[i].txs by shard
	for i := range groups {
		groups[i].txs = groups[i].g.sharded.Begin(groups[i].locks)
		for _, tx := range groups[i].txs {
			if tx != nil {
				txs = append(txs, tx)
			}
		}
	}
	var undo []undoOp
	oids, at = make([]OID, len(ops)), -1
	for i := range ops {
		if err = ctx.Err(); err == nil {
			oids[i], err = db.execute(&ops[i], groups, replay, &undo)
		}
		if err != nil {
			at = i
			break
		}
	}
	for _, tx := range txs {
		if err == nil {
			err = tx.Write()
		}
	}
	if err != nil {
		for _, tx := range txs {
			tx.Abort(nil)
		}
		for i := len(undo) - 1; i >= 0; i-- {
			db.st.Reinstall(undo[i].oid, undo[i].cur, undo[i].prev)
		}
		return nil, at, err
	}
	for _, tx := range txs {
		if perr := tx.Publish(); perr != nil && err == nil {
			err = perr
		}
	}
	return oids, -1, err
}

// execute is the one index-maintenance step: per covering group the object's
// entry keys before the store edit, the edit, the keys after, and ApplyKeys
// of exactly their difference (core.DiffKeys) into the group's transactions.
// A live write runs it with the store's Insert/SetAttr/Delete, replay with
// the tolerant Replay* edits. Once the store edit is made it appends what
// undoes it to undo. It returns the operation's OID, an insert's new one.
func (db *Database) execute(op *BatchOp, groups []groupWrite, replay bool, undo *[]undoOp) (oid OID, err error) {
	oid = op.OID
	prev, _ := db.st.Get(oid)
	class := op.Class // an insert names its class, a set or delete finds it
	if prev != nil && op.Kind != BatchInsert {
		class = prev.Class
	}
	for i := range groups {
		gw := &groups[i]
		gw.olds = nil
		gw.covers = gw.g.sharded.Covers(class)
		if gw.covers && op.Kind != BatchInsert { // an insert has no before-image
			if gw.olds, err = gw.g.sharded.EntriesFor(oid); err != nil {
				return oid, fmt.Errorf("uindex: maintaining index %q: %w", gw.g.name, err)
			}
		}
	}
	switch {
	case op.Kind == BatchInsert && replay:
		err = db.st.ReplayInsert(oid, op.Class, op.Attrs)
	case op.Kind == BatchInsert:
		oid, err = db.st.Insert(op.Class, op.Attrs)
	case op.Kind == BatchSet && replay:
		db.st.ReplaySet(oid, op.Attr, op.Value)
	case op.Kind == BatchSet:
		_, err = db.st.SetAttr(oid, op.Attr, op.Value)
	case op.Kind == BatchDelete && replay:
		db.st.ReplayDelete(oid)
	case op.Kind == BatchDelete:
		err = db.st.Delete(oid)
	}
	if err != nil {
		return oid, err
	}
	cur, _ := db.st.Get(oid)
	*undo = append(*undo, undoOp{oid, cur, prev})
	for i := range groups {
		gw := &groups[i]
		if !gw.covers {
			continue
		}
		var news [][]byte
		if op.Kind != BatchDelete { // a delete has no after-image
			if news, err = gw.g.sharded.EntriesFor(oid); err != nil {
				return oid, fmt.Errorf("uindex: maintaining index %q: %w", gw.g.name, err)
			}
		}
		dels, ins := core.DiffKeys(gw.olds, news)
		if err = gw.g.sharded.ApplyKeys(gw.txs, dels, ins); err != nil {
			return oid, fmt.Errorf("uindex: maintaining index %q: %w", gw.g.name, err)
		}
	}
	return oid, nil
}
