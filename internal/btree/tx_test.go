package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pager"
)

// TestTxRandomizedModel runs the randomized model of TestRandomizedModel
// through transactions of up to 200 edits each: every transaction publishes
// exactly one version, sees its own earlier edits (a key it inserted it can
// delete, and the other way round), and leaves a tree equal to the model.
// One transaction in four aborts instead and must leave the tree, the model
// and the page file exactly as before it.
func TestTxRandomizedModel(t *testing.T) {
	for _, cfg := range []Config{{}, {MaxEntries: 5}} {
		t.Run(fmt.Sprintf("cfg%+v", cfg), func(t *testing.T) {
			rng := rand.New(rand.NewSource(78))
			tr := newTree(t, 128, cfg)
			model := map[string]string{}
			for round := 0; round < 60; round++ {
				epoch, pages := tr.Epoch(), tr.f.NumPages()
				abort := round%4 == 3
				next := model
				if abort {
					next = make(map[string]string, len(model))
					for k, v := range model {
						next[k] = v
					}
				}
				tx := tr.Begin()
				for op := rng.Intn(200); op >= 0; op-- {
					k := []byte(fmt.Sprintf("k%0*d", 1+rng.Intn(12), rng.Intn(300)))
					if rng.Intn(3) < 2 {
						v := fmt.Sprintf("v%d", rng.Intn(1000))
						if err := tx.Insert(k, []byte(v)); err != nil {
							t.Fatalf("round %d Insert: %v", round, err)
						}
						next[string(k)] = v
						continue
					}
					ok, err := tx.Delete(k)
					if _, had := next[string(k)]; err != nil || ok != had {
						t.Fatalf("round %d Delete(%q) = %v, %v; model has %v", round, k, ok, err, had)
					}
					delete(next, string(k))
				}
				if abort {
					tx.Abort(nil)
					if tr.Epoch() != epoch || tr.f.NumPages() != pages {
						t.Fatalf("round %d: abort moved the epoch %d -> %d or pages %d -> %d",
							round, epoch, tr.Epoch(), pages, tr.f.NumPages())
					}
				} else if err := tx.Commit(); err != nil {
					t.Fatalf("round %d Commit: %v", round, err)
				} else if tr.Epoch() != epoch+1 {
					t.Fatalf("round %d: one transaction published %d versions", round, tr.Epoch()-epoch)
				}
				if err := tr.Check(); err != nil {
					t.Fatalf("round %d Check: %v", round, err)
				}
				compareToModel(t, tr, model)
			}
		})
	}
}

// TestTxEmptyPublishesNothing: a transaction without edits, or whose only
// edit deletes an absent key, publishes no version.
func TestTxEmptyPublishesNothing(t *testing.T) {
	tr := newTree(t, 256, Config{})
	if err := tr.Insert(key(1), val(1)); err != nil {
		t.Fatal(err)
	}
	epoch := tr.Epoch()
	tx := tr.Begin()
	if ok, err := tx.Delete(key(2)); ok || err != nil {
		t.Fatalf("Delete of an absent key = %v, %v", ok, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tr.Epoch() != epoch {
		t.Fatalf("an empty transaction moved the epoch %d -> %d", epoch, tr.Epoch())
	}
}

// TestTxOwnOverflowDiscarded: an overflow chain a transaction allocated and
// then dropped itself — its value replaced, then its key deleted — was never
// visible, so it is freed at publish rather than retired. With a snapshot
// pinned, only the committed page the transaction superseded (the old root
// leaf) waits for the reclaimer.
func TestTxOwnOverflowDiscarded(t *testing.T) {
	tr := newTree(t, 256, Config{})
	pages := tr.f.NumPages()
	snap := tr.Snapshot()
	tx := tr.Begin()
	for _, v := range [][]byte{bytes.Repeat([]byte("a"), 1000), bytes.Repeat([]byte("b"), 700)} {
		if err := tx.Insert(key(1), v); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := tx.Delete(key(1)); !ok || err != nil {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := tr.rec.PendingPages(); got != 1 {
		t.Fatalf("%d pages await the reclaimer, want 1 (the superseded root leaf)", got)
	}
	if err := snap.Release(); err != nil {
		t.Fatal(err)
	}
	if got := tr.f.NumPages(); got != pages {
		t.Fatalf("%d pages in use after the snapshot released, want %d", got, pages)
	}
}

// TestTxWriteFailureAborts: a page write failing in the first commit step
// aborts the transaction — Commit returns the error, nothing is published,
// and every page the transaction allocated is free again.
func TestTxWriteFailureAborts(t *testing.T) {
	f := &failWrites{File: pager.NewMemFile(256)}
	tr, err := Create(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	epoch, pages := tr.Epoch(), f.NumPages()
	tx := tr.Begin()
	for i := 0; i < 50; i++ {
		if err := tx.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	f.fail = true
	if err := tx.Commit(); err != errWrite {
		t.Fatalf("Commit = %v, want the page-write error", err)
	}
	f.fail = false
	if tr.Epoch() != epoch || f.NumPages() != pages || tr.Len() != 0 {
		t.Fatalf("failed commit left epoch %d -> %d, pages %d -> %d, %d keys", epoch, tr.Epoch(), pages, f.NumPages(), tr.Len())
	}
	if err := tr.Insert(key(1), val(1)); err != nil { // the writer lock was released
		t.Fatal(err)
	}
}

var errWrite = fmt.Errorf("page write refused")

// failWrites is a page file whose writes fail while fail is set.
type failWrites struct {
	pager.File
	fail bool
}

func (f *failWrites) Write(id pager.PageID, buf []byte) error {
	if f.fail {
		return errWrite
	}
	return f.File.Write(id, buf)
}
