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

// TestDurabilityNoneDiscardsOnClose: with DurabilityNone, Close discards
// mutations after the last checkpoint; the file keeps the checkpointed
// state (here: the initial build) intact.
func TestDurabilityNoneDiscardsOnClose(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Durability: DurabilityNone}

	db1, err := NewDatabaseWith(vehicleSchema(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	insertVehicles(t, db1, testColors[:3]) // in the store before the build
	if err := db1.CreateIndex(colorSpec); err != nil {
		t.Fatal(err)
	}
	insertVehicles(t, db1, testColors[3:]) // indexed, but never checkpointed
	ix1, _ := db1.Index("color")
	if ix1.Len() != len(testColors) {
		t.Fatalf("live index has %d entries, want %d", ix1.Len(), len(testColors))
	}
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := NewDatabaseWith(vehicleSchema(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.CreateIndex(colorSpec); err != nil {
		t.Fatal(err)
	}
	ix2, _ := db2.Index("color")
	if ix2.Len() != 3 {
		t.Fatalf("recovered index has %d entries, want the 3 from the build checkpoint", ix2.Len())
	}
	if err := db2.Close(); err != nil {
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
