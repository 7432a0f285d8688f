package uindex

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
)

// Snapshot is an immutable read view of the whole database's index set: at
// creation it pins the current version of every index tree, and every query
// through it answers from those versions no matter how many mutations
// commit afterwards. Writers are never blocked by an open snapshot — they
// keep committing new versions; the snapshot merely keeps the superseded
// pages it can reach alive until Release.
//
// A Snapshot is safe for concurrent use. Release it when done (idempotent);
// a long-lived snapshot holds superseded pages, so the page footprint grows
// with the write volume during its lifetime. Closing the database releases
// every snapshot still open: Close waits for the snapshot's in-flight
// queries to finish, then unpins its views, and later queries through it
// fail with ErrSnapshotReleased — epoch pins never outlive the database.
//
// The snapshot covers index state only. Whatever a query resolves through
// the object store — Where predicates, and any db.Get on a returned OID —
// reads the store's latest state, not the state at the pin.
type Snapshot struct {
	db    *Database
	views map[string]*core.ShardedSnap
	order []string
	// mu serializes Release against in-flight queries: queries hold it in
	// read mode for their whole execution, so Release (and through it,
	// Database.Close) waits for them instead of unpinning pages a scan is
	// still walking.
	mu       sync.RWMutex
	released bool
}

// Snapshot pins the current version of every index and returns the view.
func (db *Database) Snapshot() (*Snapshot, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	s := &Snapshot{
		db:    db,
		views: make(map[string]*core.ShardedSnap, len(db.order)),
		order: append([]string(nil), db.order...),
	}
	for _, name := range db.order {
		s.views[name] = db.groups[name].sharded.Snapshot()
	}
	db.snapMu.Lock()
	if db.snaps == nil {
		db.snaps = make(map[*Snapshot]struct{})
	}
	db.snaps[s] = struct{}{}
	db.snapMu.Unlock()
	db.ctrs.snapsTaken.Add(1)
	db.ctrs.snapsActive.Add(1)
	return s, nil
}

// releaseSnapshotsLocked releases every snapshot still open; the caller
// holds the catalog write lock (Close). Each Release waits for that
// snapshot's in-flight queries, so when this returns no query is touching
// the pools and files about to be torn down.
func (db *Database) releaseSnapshotsLocked() {
	db.snapMu.Lock()
	open := make([]*Snapshot, 0, len(db.snaps))
	for s := range db.snaps {
		open = append(open, s)
	}
	db.snaps = nil
	db.snapMu.Unlock()
	for _, s := range open {
		s.Release()
	}
}

// Release unpins every index version the snapshot holds, letting the engine
// reclaim pages superseded since. Release waits for the snapshot's
// in-flight queries to finish first. It is idempotent; queries after
// Release fail with ErrSnapshotReleased.
func (s *Snapshot) Release() error {
	s.mu.Lock()
	if s.released {
		s.mu.Unlock()
		return nil
	}
	s.released = true
	s.mu.Unlock()
	var first error
	for _, name := range s.order {
		if err := s.views[name].Release(); err != nil && first == nil {
			first = err
		}
	}
	s.db.snapMu.Lock()
	delete(s.db.snaps, s)
	s.db.snapMu.Unlock()
	s.db.ctrs.snapsActive.Add(-1)
	return first
}

// Indexes lists the index names the snapshot covers, in creation order.
func (s *Snapshot) Indexes() []string {
	return append([]string(nil), s.order...)
}

// Epoch returns the pinned tree epoch of the named index; ok is false when
// the snapshot does not cover it.
func (s *Snapshot) Epoch(index string) (uint64, bool) {
	v, ok := s.views[index]
	if !ok {
		return 0, false
	}
	return v.Epoch(), true
}

// Query runs a query on the named index against the snapshot's pinned
// version. It accepts the same options as Database.Query; WithSnapshot is
// redundant here and ignored. Its matches share storage as Database.Query's
// do.
func (s *Snapshot) Query(ctx context.Context, index string, q Query, opts ...QueryOption) ([]Match, Stats, error) {
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	return s.query(ctx, index, q, cfg)
}

func (s *Snapshot) query(ctx context.Context, index string, q Query, cfg queryConfig) (_ []Match, _ Stats, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.released {
		return nil, Stats{}, ErrSnapshotReleased
	}
	v, ok := s.views[index]
	if !ok {
		err := fmt.Errorf("uindex: no index %q: %w", index, ErrIndexNotFound)
		s.db.ctrs.countQuery(Stats{}, err)
		return nil, Stats{}, err
	}
	ms, stats, err := v.ExecuteCtx(ctx, q, &core.ExecContext{Tracker: cfg.tr, Algorithm: cfg.alg})
	s.db.ctrs.countQuery(stats, err)
	return ms, stats, err
}
