package uindex

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// vehicleSchema is a minimal hierarchy for the durability tests.
func vehicleSchema(t *testing.T) *Schema {
	t.Helper()
	s := NewSchema()
	if err := s.AddClass("Vehicle", "", Attr{Name: "Color", Type: String}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClass("Automobile", "Vehicle"); err != nil {
		t.Fatal(err)
	}
	return s
}

var testColors = []string{"Red", "White", "Red", "Blue", "White", "Red"}

func insertVehicles(t *testing.T, db *Database, colors []string) []OID {
	t.Helper()
	oids := make([]OID, len(colors))
	for i, c := range colors {
		oid, err := db.Insert("Automobile", Attrs{"Color": c})
		if err != nil {
			t.Fatal(err)
		}
		oids[i] = oid
	}
	return oids
}

func redQuery() Query {
	return Query{Value: Exact("Red"), Positions: []Position{On("Vehicle")}}
}

var colorSpec = IndexSpec{Name: "color", Root: "Vehicle", Attr: "Color"}

// TestDiskBackedCheckpointReopen: a checkpointed disk-backed index is
// reopened from its file — not rebuilt — and serves the same query results
// once the object store is repopulated. A dropped index re-attaches to its
// file.
func TestDiskBackedCheckpointReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, PoolPages: 16}

	db1, err := NewDatabaseWith(vehicleSchema(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db1.CreateIndex(colorSpec); err != nil {
		t.Fatal(err)
	}
	insertVehicles(t, db1, testColors)
	if err := db1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	baseline, _, err := db1.Query(context.Background(), "color", redQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) != 3 {
		t.Fatalf("baseline red vehicles = %d, want 3", len(baseline))
	}
	ix1, _ := db1.Index("color")
	wantLen := ix1.Len()
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen over an EMPTY store: the entry count can only come from the
	// file — a silent rebuild would produce an empty index.
	db2, err := NewDatabaseWith(vehicleSchema(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.CreateIndex(colorSpec); err != nil {
		t.Fatal(err)
	}
	ix2, _ := db2.Index("color")
	if ix2.Len() != wantLen {
		t.Fatalf("reopened index has %d entries, want %d (rebuilt instead of reopened?)", ix2.Len(), wantLen)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with the store repopulated (same insertion order, same OIDs):
	// queries must match the original database.
	db3, err := NewDatabaseWith(vehicleSchema(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	insertVehicles(t, db3, testColors)
	if err := db3.CreateIndex(colorSpec); err != nil {
		t.Fatal(err)
	}
	ms, _, err := db3.Query(context.Background(), "color", redQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(baseline) {
		t.Fatalf("recovered query found %d matches, want %d", len(ms), len(baseline))
	}
	for i := range ms {
		if ms[i].Path[0].OID != baseline[i].Path[0].OID {
			t.Fatalf("match %d OID = %d, want %d", i, ms[i].Path[0].OID, baseline[i].Path[0].OID)
		}
	}

	// DropIndex leaves the file; CreateIndex re-attaches it.
	if err := db3.DropIndex("color"); err != nil {
		t.Fatal(err)
	}
	if err := db3.CreateIndex(colorSpec); err != nil {
		t.Fatal(err)
	}
	ix3, _ := db3.Index("color")
	if ix3.Len() != wantLen {
		t.Fatalf("re-attached index has %d entries, want %d", ix3.Len(), wantLen)
	}
	if err := db3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptIndexFileSurfaces: corruption in a disk-backed index file is
// reported as a typed error from CreateIndex — never a silent rebuild.
func TestCorruptIndexFileSurfaces(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir}

	db1, err := NewDatabaseWith(vehicleSchema(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	insertVehicles(t, db1, testColors)
	if err := db1.CreateIndex(colorSpec); err != nil {
		t.Fatal(err)
	}
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "color.shard0.uidx")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte in every page slot after the header page: any
	// page the reopen touches fails its checksum.
	const slotSize = 1024 + 12
	mangled := append([]byte(nil), pristine...)
	for off := slotSize + 50; off < len(mangled); off += slotSize {
		mangled[off] ^= 0xFF
	}
	if err := os.WriteFile(path, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := NewDatabaseWith(vehicleSchema(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	err = db2.CreateIndex(colorSpec)
	var cp ErrCorruptPage
	if err == nil || (!errors.As(err, &cp) && !errors.Is(err, ErrCorruptFile)) {
		t.Fatalf("CreateIndex on corrupt file = %v, want ErrCorruptPage or ErrCorruptFile", err)
	}
	if got := db2.Indexes(); len(got) != 0 {
		t.Fatalf("corrupt index registered anyway: %v", got)
	}
	db2.Close()

	// Truncation is structural damage: ErrCorruptFile.
	if err := os.WriteFile(path, pristine[:100], 0o644); err != nil {
		t.Fatal(err)
	}
	db3, err := NewDatabaseWith(vehicleSchema(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db3.CreateIndex(colorSpec); !errors.Is(err, ErrCorruptFile) {
		t.Fatalf("CreateIndex on truncated file = %v, want ErrCorruptFile", err)
	}
	db3.Close()
}

// TestDropPageCachesKeepsCheckpointReadable: dropping the page caches of a
// reopened disk-backed database publishes nothing. A buffer-pool reset that
// synced the shard files would publish a new header generation per call and,
// after two calls, overwrite the header slot of the generation the manifest
// records — a crash image taken then would not reopen. Both durability modes
// reopen the image and answer as before.
func TestDropPageCachesKeepsCheckpointReadable(t *testing.T) {
	dropThrice := func(t *testing.T, db *Database, wantRed int) {
		t.Helper()
		for i := 0; i < 3; i++ {
			if err := db.DropPageCaches(); err != nil {
				t.Fatal(err)
			}
			if got := countRed(t, db); got != wantRed {
				t.Fatalf("drop %d: %d red vehicles, want %d", i, got, wantRed)
			}
		}
	}
	t.Run("checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		opts := Options{Dir: dir, PoolPages: 16}
		db, err := NewDatabaseWith(vehicleSchema(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		insertVehicles(t, db, testColors)
		if err := db.CreateIndex(colorSpec); err != nil {
			t.Fatal(err)
		}
		wantRed := countRed(t, db)
		snap := filepath.Join(t.TempDir(), "state.usnap")
		if err := db.SaveFile(snap); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		db2, err := LoadFileWith(snap, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db2.Close()
		dropThrice(t, db2, wantRed)
		img := crashImage(t, dir)
		db3, err := LoadFileWith(snap, Options{Dir: img, PoolPages: 16})
		if err != nil {
			t.Fatalf("reopening the crash image: %v", err)
		}
		defer db3.Close()
		if got := countRed(t, db3); got != wantRed {
			t.Fatalf("crash image: %d red vehicles, want %d", got, wantRed)
		}
	})
	t.Run("wal", func(t *testing.T) {
		dir := t.TempDir()
		db, err := NewDatabaseWith(vehicleSchema(t), walOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.CreateIndex(colorSpec); err != nil {
			t.Fatal(err)
		}
		insertVehicles(t, db, testColors)
		wantRed := countRed(t, db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		reopen := Options{PoolPages: 16, WALCheckpointBytes: -1}
		db2, err := Open(dir, reopen)
		if err != nil {
			t.Fatal(err)
		}
		defer db2.Close()
		dropThrice(t, db2, wantRed)
		db3, err := Open(crashImage(t, dir), reopen)
		if err != nil {
			t.Fatalf("reopening the crash image: %v", err)
		}
		defer db3.Close()
		if got := countRed(t, db3); got != wantRed {
			t.Fatalf("crash image: %d red vehicles, want %d", got, wantRed)
		}
	})
}
