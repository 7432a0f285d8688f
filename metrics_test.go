package uindex

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestMetricsSnapshot exercises the merged Metrics() facade: query, write,
// checkpoint, and snapshot counters all move, and errors land in the error
// counters rather than the success ones.
func TestMetricsSnapshot(t *testing.T) {
	db, ids := paperDB(t)
	ctx := context.Background()

	base := db.Metrics()
	if base.Indexes != 2 {
		t.Fatalf("Indexes = %d, want 2", base.Indexes)
	}

	ms, _, err := db.Query(ctx, "color", Query{Value: Exact("Red")})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Query(ctx, "nope", Query{Value: Exact("Red")}); !errors.Is(err, ErrIndexNotFound) {
		t.Fatalf("want ErrIndexNotFound, got %v", err)
	}
	oid, err := db.Insert("Truck", Attrs{"Name": "Hauler", "Color": "Red"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Set(oid, "Color", "Blue"); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(oid); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("NoSuchClass", Attrs{"Name": "x"}); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("want ErrUnknownClass, got %v", err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := snap.Query(ctx, "color", Query{Value: Exact("Red")}); err != nil {
		t.Fatal(err)
	}

	m := db.Metrics()
	// 1 direct + 1 failed direct + 1 snapshot query. ErrIndexNotFound is
	// reported before execution, so only the completed ones count.
	if got := m.Queries - base.Queries; got != 3 {
		t.Errorf("Queries moved by %d, want 3", got)
	}
	if got := m.QueryErrors - base.QueryErrors; got != 1 {
		t.Errorf("QueryErrors moved by %d, want 1", got)
	}
	if m.Matches-base.Matches < uint64(len(ms)) {
		t.Errorf("Matches moved by %d, want >= %d", m.Matches-base.Matches, len(ms))
	}
	if got := m.Inserts - base.Inserts; got != 1 {
		t.Errorf("Inserts moved by %d, want 1", got)
	}
	if got := m.Sets - base.Sets; got != 1 {
		t.Errorf("Sets moved by %d, want 1", got)
	}
	if got := m.Deletes - base.Deletes; got != 1 {
		t.Errorf("Deletes moved by %d, want 1", got)
	}
	if got := m.WriteErrors - base.WriteErrors; got != 1 {
		t.Errorf("WriteErrors moved by %d, want 1", got)
	}
	if got := m.Checkpoints - base.Checkpoints; got != 1 {
		t.Errorf("Checkpoints moved by %d, want 1", got)
	}
	if got := m.SnapshotsTaken - base.SnapshotsTaken; got != 1 {
		t.Errorf("SnapshotsTaken moved by %d, want 1", got)
	}
	if m.SnapshotsActive != base.SnapshotsActive+1 {
		t.Errorf("SnapshotsActive = %d, want %d", m.SnapshotsActive, base.SnapshotsActive+1)
	}
	if err := snap.Release(); err != nil {
		t.Fatal(err)
	}
	if got := db.Metrics().SnapshotsActive; got != base.SnapshotsActive {
		t.Errorf("SnapshotsActive after release = %d, want %d", got, base.SnapshotsActive)
	}
	_ = ids
}

// TestMetricsPoolDisabled: without a buffer pool the Pool block is zero and
// flagged off, and Metrics stays callable after Close.
func TestMetricsPoolDisabled(t *testing.T) {
	db, _ := paperDB(t)
	m := db.Metrics()
	if m.PoolEnabled {
		t.Fatal("PoolEnabled true for a pool-less database")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	after := db.Metrics()
	if after.Queries != m.Queries {
		t.Fatalf("Queries changed across Close: %d → %d", m.Queries, after.Queries)
	}
	if after.SnapshotsActive != 0 {
		t.Fatalf("SnapshotsActive = %d after Close", after.SnapshotsActive)
	}
}

// TestCloseReleasesSnapshots is the session-lifecycle pin: Close while
// snapshots are held (and queried concurrently) must release every pin,
// surface only the typed sentinels, and never panic.
func TestCloseReleasesSnapshots(t *testing.T) {
	db, _ := paperDB(t)
	ctx := context.Background()

	const holders = 6
	snaps := make([]*Snapshot, holders)
	for i := range snaps {
		s, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = s
	}
	if got := db.Metrics().SnapshotsActive; got != holders {
		t.Fatalf("SnapshotsActive = %d, want %d", got, holders)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, s := range snaps {
		wg.Add(1)
		go func(s *Snapshot) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _, err := s.Query(ctx, "color", Query{Value: Exact("Red")})
				if err == nil {
					continue
				}
				if !errors.Is(err, ErrSnapshotReleased) && !errors.Is(err, ErrClosed) {
					t.Errorf("unexpected error class: %v", err)
				}
				return
			}
		}(s)
	}
	time.Sleep(5 * time.Millisecond)
	if err := db.Close(); err != nil {
		t.Fatalf("Close with held snapshots: %v", err)
	}
	close(stop)
	wg.Wait()

	if got := db.Metrics().SnapshotsActive; got != 0 {
		t.Fatalf("SnapshotsActive = %d after Close, want 0 (epoch pins leaked)", got)
	}
	// Everything stays well-typed after the fact.
	if _, _, err := snaps[0].Query(ctx, "color", Query{Value: Exact("Red")}); !errors.Is(err, ErrSnapshotReleased) {
		t.Fatalf("post-Close snapshot query = %v, want ErrSnapshotReleased", err)
	}
	if err := snaps[0].Release(); err != nil {
		t.Fatalf("redundant Release after Close: %v", err)
	}
	if _, err := db.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Snapshot after Close = %v, want ErrClosed", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
