package pager

import "testing"

func TestTrackerMerge(t *testing.T) {
	a, b := NewTracker(), NewTracker()
	for _, id := range []PageID{1, 2, 3, 4} {
		a.Touch(id)
	}
	for _, id := range []PageID{3, 4, 5, 6} {
		b.Touch(id)
	}
	a.Merge(b)
	if got := a.Reads(); got != 6 {
		t.Fatalf("merged reads = %d, want 6 (distinct pages 1-6)", got)
	}
	// b is untouched by the merge.
	if got := b.Reads(); got != 4 {
		t.Fatalf("source tracker changed by Merge: reads = %d, want 4", got)
	}
	// Merge is idempotent: folding the same pages in again adds nothing.
	a.Merge(b)
	if got := a.Reads(); got != 6 {
		t.Fatalf("re-merged reads = %d, want 6", got)
	}
	// Nil source and nil receiver are no-ops.
	a.Merge(nil)
	var nilTr *Tracker
	nilTr.Merge(a)
	if got := a.Reads(); got != 6 {
		t.Fatalf("after nil merges reads = %d, want 6", got)
	}
}

// TestTrackerMergeEqualsSequential is the accounting invariance the
// concurrent executor relies on: splitting a page-access sequence across
// per-goroutine trackers and merging them yields the same distinct-page
// count as feeding the whole sequence through one shared tracker.
func TestTrackerMergeEqualsSequential(t *testing.T) {
	accesses := []PageID{7, 1, 7, 3, 9, 1, 12, 3, 3, 40, 9, 7, 2}

	shared := NewTracker()
	for _, id := range accesses {
		shared.Touch(id)
	}

	per := []*Tracker{NewTracker(), NewTracker(), NewTracker()}
	for i, id := range accesses {
		per[i%len(per)].Touch(id)
	}
	merged := NewTracker()
	for _, tr := range per {
		merged.Merge(tr)
	}

	if merged.Reads() != shared.Reads() {
		t.Fatalf("merged per-goroutine count %d != sequential shared count %d",
			merged.Reads(), shared.Reads())
	}
}

func TestTrackerReset(t *testing.T) {
	tr := NewTracker()
	tr.Touch(1)
	tr.Touch(2)
	tr.Reset()
	if tr.Reads() != 0 || tr.Touched(1) {
		t.Fatalf("Reset left state behind: reads=%d touched(1)=%v", tr.Reads(), tr.Touched(1))
	}
	if !tr.Touch(1) {
		t.Fatal("Touch after Reset did not count the page as new")
	}
}

// TestTrackerChildren: per-file child trackers deduplicate within their own
// file only, and Reads, Merge and Reset cover them.
func TestTrackerChildren(t *testing.T) {
	tr := NewTracker()
	if tr.Child(0, 1) != tr {
		t.Fatal("Child of a one-file structure is not the tracker itself")
	}
	a, b := tr.Child(0, 2), tr.Child(1, 2)
	a.Touch(1)
	a.Touch(1)
	b.Touch(1) // same page id, different file
	a.NoteNodeCache(false, 10)
	if tr.Reads() != 2 || tr.CacheMisses() != 1 || tr.BytesDecoded() != 10 {
		t.Fatalf("reads=%d misses=%d bytes=%d, want 2, 1, 10", tr.Reads(), tr.CacheMisses(), tr.BytesDecoded())
	}
	if tr.Child(0, 2) != a {
		t.Fatal("Child allocated a second tracker for the same file")
	}

	other := NewTracker()
	other.Child(1, 2).Touch(1) // already seen by b
	other.Child(1, 2).Touch(2)
	tr.Merge(other)
	if tr.Reads() != 3 {
		t.Fatalf("merged reads = %d, want 3", tr.Reads())
	}

	tr.Reset()
	if tr.Reads() != 0 || tr.CacheMisses() != 0 || b.Touched(1) {
		t.Fatalf("Reset left child state behind: reads=%d", tr.Reads())
	}
	var nilTr *Tracker
	if nilTr.Child(1, 2) != nil {
		t.Fatal("nil tracker has a non-nil child")
	}
}
