package btree

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/pager"
)

// TestSnapshotIsolation: a snapshot taken before a batch of mutations keeps
// answering from the pinned version while the live tree moves on.
func TestSnapshotIsolation(t *testing.T) {
	tree := newTree(t, 256, Config{})
	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("key-%05d", i))
		if err := tree.Insert(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	snap := tree.Snapshot()
	defer snap.Release()
	wantLen := snap.Len()
	wantEpoch := snap.Epoch()

	// Mutate heavily after the snapshot: overwrites, inserts, deletes.
	for i := 0; i < 500; i += 2 {
		key := []byte(fmt.Sprintf("key-%05d", i))
		if err := tree.Insert(key, []byte("overwritten")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 500; i < 700; i++ {
		if err := tree.Insert([]byte(fmt.Sprintf("key-%05d", i)), []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 500; i += 10 {
		if _, err := tree.Delete([]byte(fmt.Sprintf("key-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}

	if snap.Len() != wantLen || snap.Epoch() != wantEpoch {
		t.Fatalf("snapshot drifted: len %d→%d epoch %d→%d", wantLen, snap.Len(), wantEpoch, snap.Epoch())
	}
	// Every original key reads its original value through the snapshot.
	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("key-%05d", i))
		v, ok, err := snap.Get(key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("snapshot Get(%s) = %q ok=%v", key, v, ok)
		}
	}
	// Keys inserted after the snapshot are invisible to it.
	if _, ok, _ := snap.Get([]byte("key-00600"), nil); ok {
		t.Fatal("snapshot sees a post-snapshot insert")
	}
	// A snapshot range scan sees exactly the original keys.
	n := 0
	err := snap.MultiScan(nil, []Interval{{}}, nil, func(k, v []byte) ([]byte, bool, error) {
		n++
		return nil, false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != wantLen {
		t.Fatalf("snapshot scan saw %d keys, want %d", n, wantLen)
	}
	// The live tree sees the new state.
	if v, ok, _ := tree.Get([]byte("key-00000"), nil); !ok || string(v) != "overwritten" {
		t.Fatalf("live Get = %q ok=%v", v, ok)
	}
}

// TestSnapshotReleased: queries after Release fail with the sentinel;
// Release is idempotent.
func TestSnapshotReleased(t *testing.T) {
	tree := newTree(t, 256, Config{})
	if err := tree.Insert([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	snap := tree.Snapshot()
	if err := snap.Release(); err != nil {
		t.Fatal(err)
	}
	if err := snap.Release(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := snap.Get([]byte("a"), nil); !errors.Is(err, ErrSnapshotReleased) {
		t.Fatalf("Get after release = %v, want ErrSnapshotReleased", err)
	}
	if err := snap.MultiScan(nil, nil, nil, func(k, v []byte) ([]byte, bool, error) { return nil, false, nil }); !errors.Is(err, ErrSnapshotReleased) {
		t.Fatalf("MultiScan after release = %v, want ErrSnapshotReleased", err)
	}
}

// TestEpochReclamation: without open snapshots, superseded pages are freed
// at commit, so a sustained overwrite workload reaches a steady-state page
// footprint instead of growing without bound.
func TestEpochReclamation(t *testing.T) {
	f := pager.NewMemFile(256)
	tree, err := Create(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := tree.Insert([]byte(fmt.Sprintf("key-%04d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	base := f.NumPages()
	// Overwrite every key many times: each commit retires its COW path.
	for round := 0; round < 20; round++ {
		for i := 0; i < 200; i++ {
			if err := tree.Insert([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("r%d", round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rec := tree.rec; rec.FreedPages() == 0 {
		t.Fatal("no pages reclaimed across 4000 overwrites")
	}
	grown := f.NumPages() - base
	// The file may grow a little (free-list churn), but nowhere near the
	// thousands of pages the COW commits wrote.
	if grown > base {
		t.Fatalf("file grew from %d to %d pages under steady-state overwrites", base, f.NumPages())
	}
	if err := tree.Check(); err != nil {
		t.Fatal(err)
	}

	// With a snapshot open, superseded pages accumulate instead ...
	snap := tree.Snapshot()
	for i := 0; i < 200; i++ {
		if err := tree.Insert([]byte(fmt.Sprintf("key-%04d", i)), []byte("held")); err != nil {
			t.Fatal(err)
		}
	}
	if tree.rec.PendingPages() == 0 {
		t.Fatal("open snapshot did not hold superseded pages")
	}
	// ... and drain on Release.
	if err := snap.Release(); err != nil {
		t.Fatal(err)
	}
	if got := tree.rec.PendingPages(); got != 0 {
		t.Fatalf("PendingPages after release = %d, want 0", got)
	}
}

// TestSnapshotConcurrentWithWriter runs a committing writer against readers
// holding snapshots; under -race this is the regression test for the
// pin/publish handshake. Each reader verifies its snapshot is internally
// consistent: the scan count matches the pinned Len.
func TestSnapshotConcurrentWithWriter(t *testing.T) {
	tree := newTree(t, 512, Config{})
	for i := 0; i < 1000; i++ {
		if err := tree.Insert([]byte(fmt.Sprintf("key-%05d", i)), []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var writerDone sync.WaitGroup
	var wg sync.WaitGroup
	writerDone.Add(1)
	go func() { // writer: inserts, overwrites, deletes
		defer writerDone.Done()
		i := 1000
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := tree.Insert([]byte(fmt.Sprintf("key-%05d", i)), []byte("w")); err != nil {
				t.Error(err)
				return
			}
			if _, err := tree.Delete([]byte(fmt.Sprintf("key-%05d", i-500))); err != nil {
				t.Error(err)
				return
			}
			i++
		}
	}()
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 40; k++ {
				snap := tree.Snapshot()
				want := snap.Len()
				got := 0
				var prev []byte
				err := snap.MultiScan(nil, []Interval{{}}, nil, func(key, v []byte) ([]byte, bool, error) {
					if prev != nil && bytes.Compare(prev, key) >= 0 {
						t.Errorf("out-of-order keys %q >= %q", prev, key)
						return nil, true, nil
					}
					prev = append(prev[:0], key...)
					got++
					return nil, false, nil
				})
				if err != nil {
					t.Error(err)
				} else if got != want {
					t.Errorf("snapshot scan saw %d keys, pinned Len is %d", got, want)
				}
				if err := snap.Release(); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait() // readers finish first; then stop the writer
	close(stop)
	writerDone.Wait()
}
