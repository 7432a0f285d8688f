package btree

import (
	"context"
	"sync/atomic"

	"repro/internal/pager"
)

// Snap is a long-lived pinned snapshot of the tree: an immutable read view
// of the version current when Snapshot was called. Reads through a Snap
// never observe later commits, and the pages the snapshot can reach are not
// reclaimed until Release. A Snap is safe for concurrent use; Release may be
// called once (further calls are no-ops) and must be called, or superseded
// pages accumulate for as long as the snapshot is live.
type Snap struct {
	t        *Tree
	v        *version
	released atomic.Bool
}

// Snapshot pins the current version and returns it as a read view.
func (t *Tree) Snapshot() *Snap {
	v, _ := t.pinKeep()
	return &Snap{t: t, v: v}
}

// pinKeep is pin without the release closure; the caller keeps the version
// and unpins via rec.Unpin(v.epoch) later.
func (t *Tree) pinKeep() (*version, uint64) {
	var v *version
	epoch := t.rec.Pin(func() uint64 {
		v = t.cur.Load()
		return v.epoch
	})
	return v, epoch
}

// Release unpins the snapshot. Pages superseded since the snapshot was taken
// become reclaimable once no older pin remains. Release is idempotent.
func (s *Snap) Release() error {
	if s.released.Swap(true) {
		return nil
	}
	return s.t.rec.Unpin(s.v.epoch)
}

// Epoch returns the epoch of the pinned version.
func (s *Snap) Epoch() uint64 { return s.v.epoch }

// Len returns the number of keys in the snapshot.
func (s *Snap) Len() int { return s.v.count }

// Height returns the number of levels of the snapshot (1 = root is a leaf).
func (s *Snap) Height() int { return s.v.hgt }

// Get returns the value stored under key in the snapshot.
func (s *Snap) Get(key []byte, tr *pager.Tracker) ([]byte, bool, error) {
	if s.released.Load() {
		return nil, false, ErrSnapshotReleased
	}
	return s.t.getAt(s.v, key, tr)
}

// MultiScan runs the parallel retrieval algorithm against the snapshot.
func (s *Snap) MultiScan(ctx context.Context, ivs []Interval, tr *pager.Tracker, fn ScanFunc) error {
	if s.released.Load() {
		return ErrSnapshotReleased
	}
	return s.t.multiScanAt(ctx, s.v, ivs, tr, fn, false)
}

// MultiScanKeys is MultiScan without value materialization; fn receives a
// nil value (see Tree.MultiScanKeys).
func (s *Snap) MultiScanKeys(ctx context.Context, ivs []Interval, tr *pager.Tracker, fn ScanFunc) error {
	if s.released.Load() {
		return ErrSnapshotReleased
	}
	return s.t.multiScanAt(ctx, s.v, ivs, tr, fn, true)
}
