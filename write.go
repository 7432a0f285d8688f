package uindex

// This file is the write path — the only one. The paper's Section 3.5 reduces
// every update to a set of key deletions plus a set of key insertions on the
// one B+-tree; write is that primitive for n mutations, Apply calls it with a
// batch and Insert/Set/Delete with a batch of one:
//
//	plan     resolve each op's class, rejecting unknown classes and OIDs;
//	         with a WAL, encode each op's store half (so an unloggable value
//	         fails here); union the shard locks every covering group needs.
//	         A failure here has touched nothing.
//	lock     group creation order, shard index ascending — the single global
//	         order that keeps multi-index writers deadlock-free
//	execute  per op, in order: the store edit, then per covering group
//	         EntriesFor → DiffKeys → ApplyKeys. The first failing op stops
//	         the call; earlier ops stay applied (not a transaction in memory).
//	log      with a WAL: ONE record carrying every applied op and the key
//	         edits it made, appended before the locks drop (see wal.go)
//	unlock
//	wait     with a WAL: the group-commit fsync of that one record
//
// Because a call is one CRC-framed log record, recovery replays all of its
// applied ops or none of them: Apply is atomic across a crash.

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/core"
)

// BatchOpKind identifies one mutation kind inside a Batch. The values are
// also the operation kinds of a log record (wal.go): never renumber them.
type BatchOpKind uint8

const (
	// BatchInsert stores a new object.
	BatchInsert BatchOpKind = 1
	// BatchSet updates one attribute of an existing object.
	BatchSet BatchOpKind = 2
	// BatchDelete removes an existing object.
	BatchDelete BatchOpKind = 3
)

// String implements fmt.Stringer.
func (k BatchOpKind) String() string {
	switch k {
	case BatchInsert:
		return "insert"
	case BatchSet:
		return "set"
	case BatchDelete:
		return "delete"
	}
	return fmt.Sprintf("BatchOpKind(%d)", uint8(k))
}

// BatchOp is one mutation of a Batch. Exactly the fields of its kind are
// meaningful: Class and Attrs for BatchInsert; OID, Attr, and Value for
// BatchSet; OID for BatchDelete.
type BatchOp struct {
	Kind  BatchOpKind
	Class string
	Attrs Attrs
	OID   OID
	Attr  string
	Value any
}

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
	// Applied is the number of operations that executed; on error it is
	// the index of the failing operation.
	Applied int
}

// Apply executes a batch of mutations through one pass of the write pipeline:
// the union of the shard locks its operations need is taken once, every
// operation is applied in order, and — under DurabilityWAL — the whole batch
// is one log record and one group-commit wait, so a crash recovers either all
// of its applied operations or none. Batching is the write-path analogue of
// the paper's buffered experiment model: per-call overheads (lock handshakes,
// log appends, fsync waits) amortize over the batch.
//
// Semantics are identical to issuing the operations individually, with two
// planning rules: Set and Delete operations must reference objects that
// exist when Apply begins (an OID inserted earlier in the same batch cannot
// be referenced later in it — its covering shards are unknown at planning
// time), and the batch is not a transaction in memory — operations apply in
// order, and the first failure stops the batch, leaving earlier operations
// applied (and, with a WAL, logged together). ctx is consulted between
// operations; a canceled context stops the batch at the next operation
// boundary.
//
// Queries never block on an in-flight batch: they read the pinned tree
// versions from before or after each shard's commits.
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
	db.ctrs.batchOps.Add(uint64(res.Applied))
	return res, nil
}

// Insert stores a new object and adds its entries to every index that can
// cover its class. Inserts of objects with disjoint index coverage run in
// parallel; only writers to the same index shard serialize. Queries are never
// blocked — they read the pinned tree version from before or after each
// index commit.
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

// plannedOp is what planning resolved for one operation.
type plannedOp struct {
	class   string // the object's class: decides covering groups and shards
	halfEnd int    // end of the op's encoded store half in the plan buffer
}

// groupWrite is one index group's share of a write call: the union of the
// shard locks the call's operations need on it and, while one operation
// executes, whether the group covers it and its entry keys before the store
// edit.
type groupWrite struct {
	g      *indexGroup
	locks  uint64
	covers bool
	olds   [][]byte
}

// write runs mutations through the pipeline described at the top of this
// file. It returns the index of the operation an error belongs to, or -1 for
// an error of the call as a whole (closed database, failed log fsync);
// res.Applied counts the operations that executed. Every failing call counts
// one write error; every applied operation counts under its kind.
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
	planned := make([]plannedOp, len(ops))
	var halves []byte
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case BatchInsert:
			if _, ok := db.sch.Class(op.Class); !ok {
				return i, fmt.Errorf("%w %q", ErrUnknownClass, op.Class)
			}
			planned[i].class = op.Class
		case BatchSet, BatchDelete:
			o, ok := db.st.Get(op.OID)
			if !ok {
				return i, fmt.Errorf("store: no object %d", op.OID)
			}
			planned[i].class = o.Class
		default:
			return i, fmt.Errorf("uindex: unknown mutation kind %d", uint8(op.Kind))
		}
		if db.wal != nil {
			if halves, err = walAppendStoreHalf(halves, op); err != nil {
				return i, err
			}
			planned[i].halfEnd = len(halves)
		}
	}
	groups := make([]groupWrite, len(db.order))
	for gi, name := range db.order {
		gw := &groups[gi]
		gw.g = db.groups[name]
		for i := range planned {
			if gw.g.sharded.Covers(planned[i].class) {
				gw.locks |= gw.g.sharded.WriteShards(planned[i].class)
			}
		}
	}

	// Lock.
	for i := range groups {
		groups[i].g.sharded.LockShards(groups[i].locks)
	}

	// Execute, then log: the edits and the append share one commitMu
	// critical section, which is what lets a checkpoint cut the store
	// between two records and never inside one.
	var rec []byte
	if db.wal != nil {
		db.wal.commitMu.RLock()
		rec = append(make([]byte, 0, 2*len(halves)+64), walRecCommit)
	}
	halfStart := 0
	for i := range ops {
		if err = ctx.Err(); err != nil {
			break
		}
		half := halves[halfStart:planned[i].halfEnd]
		if rec, err = db.execute(&ops[i], planned[i].class, half, groups, rec, res); err != nil {
			break
		}
		halfStart = planned[i].halfEnd
		res.Applied++
	}
	var lsn uint64
	if db.wal != nil {
		if res.Applied > 0 {
			lsn = db.wal.log.Append(rec)
		}
		db.wal.commitMu.RUnlock()
	}

	// Unlock; a complete call counts once against every shard it locked.
	for i := range groups {
		gw := &groups[i]
		for m := gw.locks; err == nil && m != 0; m &= m - 1 {
			gw.g.shardWrites[bits.TrailingZeros64(m)].Add(1)
		}
		gw.g.sharded.UnlockShards(gw.locks)
	}

	// Wait, after the locks drop, so concurrent committers queue only on
	// the shared fsync. A stopped call still waits for what it applied.
	at = res.Applied
	if lsn != 0 {
		if werr := db.wal.log.WaitDurable(lsn); werr != nil && err == nil {
			at, err = -1, werr
		}
	}
	return at, err
}

// execute applies one planned operation under the call's locks: the store
// edit between the before- and after-enumeration of the object's entry keys
// in every covering group, each group moved by exactly the difference. With a
// WAL it appends the operation and those key edits to rec; on error rec comes
// back as it was.
func (db *Database) execute(op *BatchOp, class string, half []byte, groups []groupWrite, rec []byte, res *BatchResult) ([]byte, error) {
	mark := len(rec)
	oid := op.OID
	covering := 0
	for i := range groups {
		gw := &groups[i]
		gw.olds = nil
		gw.covers = gw.locks != 0 && gw.g.sharded.Covers(class)
		if !gw.covers {
			continue
		}
		covering++
		if op.Kind != BatchInsert { // an insert has no before-image
			var err error
			if gw.olds, err = gw.g.sharded.EntriesFor(oid); err != nil {
				return rec, fmt.Errorf("uindex: maintaining index %q: %w", gw.g.name, err)
			}
		}
	}
	var (
		err     error
		counter *atomic.Uint64
	)
	switch op.Kind {
	case BatchInsert:
		oid, err = db.st.Insert(op.Class, op.Attrs)
		counter = &db.ctrs.inserts
	case BatchSet:
		_, err = db.st.SetAttr(oid, op.Attr, op.Value)
		counter = &db.ctrs.sets
	case BatchDelete:
		err = db.st.Delete(oid)
		counter = &db.ctrs.deletes
	}
	if err != nil {
		return rec, err
	}
	if db.wal != nil {
		rec = walAppendOp(rec, op.Kind, oid, half, covering)
	}
	for i := range groups {
		gw := &groups[i]
		if !gw.covers {
			continue
		}
		var news [][]byte
		if op.Kind != BatchDelete { // a delete has no after-image
			if news, err = gw.g.sharded.EntriesFor(oid); err != nil {
				return rec[:mark], fmt.Errorf("uindex: maintaining index %q: %w", gw.g.name, err)
			}
		}
		dels, ins := core.DiffKeys(gw.olds, news)
		if err = gw.g.sharded.ApplyKeys(dels, ins); err != nil {
			return rec[:mark], fmt.Errorf("uindex: maintaining index %q: %w", gw.g.name, err)
		}
		if db.wal != nil {
			rec = walAppendEdit(rec, gw.g.name, dels, ins)
		}
	}
	if op.Kind == BatchInsert {
		res.OIDs = append(res.OIDs, oid)
	}
	counter.Add(1)
	return rec, nil
}
