package core

import (
	"path/filepath"
	"testing"

	"repro/internal/pager"
)

// TestPersistReopen builds an index in a disk page file, flushes it, and
// reopens it cold — every query must survive the round trip.
func TestPersistReopen(t *testing.T) {
	f := newFixture(t)
	path := filepath.Join(t.TempDir(), "age.idx")
	pf, err := pager.CreateDiskFile(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Name: "veh-age", Root: "Vehicle",
		Refs: []string{"ManufacturedBy", "President"}, Attr: "Age",
	}
	ix, err := NewSharded(f.st, spec, nil, []pager.File{pf}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Shard(0).Flush(); err != nil {
		t.Fatal(err)
	}
	// Metadata is written copy-on-write, so the meta id must be read
	// after the Flush that produced it.
	meta := ix.Shard(0).MetaPage()
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen cold.
	pf2, err := pager.OpenDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Close()
	re, err := NewSharded(f.st, spec, nil, []pager.File{pf2}, []pager.PageID{meta})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if re.Len() != 6 {
		t.Fatalf("reopened Len = %d", re.Len())
	}
	ms, stats, err := re.Execute(Query{Value: Exact(50)}, Parallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantOIDs(t, oidsAt(ms, 2), f.v2, f.v3, f.v6)
	if stats.PagesRead == 0 {
		t.Fatal("no pages read from the reopened index")
	}
	// The reopened index stays mutable.
	v7, err := f.st.Insert("Truck", map[string]any{
		"Name": "FH16", "Color": "Blue", "ManufacturedBy": f.c2})
	if err != nil {
		t.Fatal(err)
	}
	update(t, re, v7, nil, false)
	ms, _, _ = re.Execute(Query{Value: Exact(50)}, Parallel, nil)
	if len(ms) != 4 {
		t.Fatalf("matches after post-reopen insert = %d", len(ms))
	}
	if err := re.Shard(0).Tree().Check(); err != nil {
		t.Fatal(err)
	}
	// Opening garbage must fail cleanly.
	if _, err := NewSharded(f.st, spec, nil, []pager.File{pf2}, []pager.PageID{meta + 1}); err == nil {
		t.Error("reopen on a non-meta page succeeded")
	}
}
