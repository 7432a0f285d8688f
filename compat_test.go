package uindex

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/wal"
)

// The files under testdata were written by the build before the wire, the
// log and the snapshot shared the store codec (internal/store/codec.go):
// parent.usnap by SaveFile, parent-wal/ by a cleanly closed DurabilityWAL
// database, both holding codecFixtureDB.

// codecFixtureDB builds a small database holding every value type the store
// accepts, through both the single-op writes and a batch. It must stay the
// database the testdata files hold.
func codecFixtureDB(t *testing.T, opts Options) *Database {
	t.Helper()
	s := NewSchema()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AddClass("Employee", "",
		Attr{Name: "Name", Type: String},
		Attr{Name: "Age", Type: Uint64},
		Attr{Name: "Delta", Type: Int64},
		Attr{Name: "Score", Type: Float64},
		Attr{Name: "Owns", Ref: "Auto", Multi: true}))
	must(s.AddClass("Auto", "",
		Attr{Name: "Color", Type: String},
		Attr{Name: "Mileage", Type: Uint64},
		Attr{Name: "UsedBy", Ref: "Employee"}))
	must(s.AddClass("Van", "Auto"))
	db, err := NewDatabaseWith(s, opts)
	must(err)
	must(db.CreateIndex(IndexSpec{Name: "color", Root: "Auto", Attr: "Color"}))
	must(db.CreateIndex(IndexSpec{Name: "mileage", Root: "Employee", Refs: []string{"Owns"}, Attr: "Mileage"}))
	var emps []OID
	for i := 0; i < 4; i++ {
		oid, err := db.Insert("Employee", Attrs{
			"Name": "e\x00" + string(rune('a'+i)), "Age": 30 + i, "Delta": int64(-1000 * i), "Score": 0.25 * float64(i)})
		must(err)
		emps = append(emps, oid)
	}
	var b Batch
	colors := []string{"Red", "Blue", "White"}
	for i := 0; i < 9; i++ {
		class := "Auto"
		if i%3 == 2 {
			class = "Van"
		}
		b.Insert(class, Attrs{"Color": colors[i%3], "Mileage": uint64(100 * i), "UsedBy": emps[i%4]})
	}
	res, err := db.Apply(context.Background(), &b)
	must(err)
	for i, e := range emps {
		must(db.Set(e, "Owns", []OID{res.OIDs[i], res.OIDs[i+4]}))
	}
	must(db.Set(res.OIDs[0], "Color", "Green"))
	must(db.Set(emps[3], "Age", uint64(1<<40)))
	must(db.Delete(res.OIDs[8]))
	return db
}

// typedState renders a database for comparison: every object with the Go
// type of every value, every index's keys, and the answers of a few queries.
func typedState(t *testing.T, db *Database) string {
	t.Helper()
	var b strings.Builder
	objs, next := db.Store().Snapshot()
	fmt.Fprintf(&b, "next=%d\n", next)
	for _, o := range objs {
		names := make([]string, 0, len(o.Attrs))
		for name := range o.Attrs {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "%d %s", o.OID, o.Class)
		for _, name := range names {
			fmt.Fprintf(&b, " %s=%T(%v)", name, o.Attrs[name], o.Attrs[name])
		}
		b.WriteByte('\n')
	}
	for _, name := range db.Indexes() {
		fmt.Fprintf(&b, "%s %v\n", name, dumpIndexKeys(t, db, name))
	}
	for _, q := range []struct {
		index string
		q     Query
	}{
		{"color", Query{Value: Exact("Red"), Positions: []Position{On("Auto")}}},
		{"color", Query{Value: Range("Blue", "Red")}},
		{"mileage", Query{Value: Range(uint64(100), uint64(600))}},
	} {
		ms, _, err := db.Query(context.Background(), q.index, q.q)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %v\n", q.index, ms)
	}
	return b.String()
}

// TestParentSnapshotLoads: a snapshot written before the codec was shared
// loads into the same objects, value types included, and the same answers.
func TestParentSnapshotLoads(t *testing.T) {
	want := typedState(t, codecFixtureDB(t, Options{}))
	db, err := LoadFile(filepath.Join("testdata", "parent.usnap"))
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	defer db.Close()
	if got := typedState(t, db); got != want {
		t.Fatalf("parent snapshot loaded as\n%s\nwant\n%s", got, want)
	}
}

// TestParentWALDirectoryOpens: a cleanly closed WAL directory written before
// the codec was shared opens, answers identically, and takes new writes that
// recover after a crash.
func TestParentWALDirectoryOpens(t *testing.T) {
	want := typedState(t, codecFixtureDB(t, Options{}))
	dir := t.TempDir()
	copyDirTo(t, filepath.Join("testdata", "parent-wal"), dir)
	db, err := Open(dir, Options{WALCheckpointBytes: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := typedState(t, db); got != want {
		db.Close()
		t.Fatalf("parent WAL directory opened as\n%s\nwant\n%s", got, want)
	}
	oid, err := db.Insert("Van", Attrs{"Color": "Red", "Mileage": uint64(5)})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Set(1, "Owns", []OID{oid}); err != nil {
		t.Fatal(err)
	}
	after := typedState(t, db)
	img := crashImage(t, dir) // the log tail holds both writes
	db.Close()
	re, err := Open(img, Options{})
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	defer re.Close()
	if got := typedState(t, re); got != after {
		t.Fatalf("recovered\n%s\nwant\n%s", got, after)
	}
}

// TestParentLogRecordRefused: a log record of an earlier format is refused as
// a recovery error naming its kind, and the failed Open leaves the directory
// as it found it. Kind 4 wrote OIDs as varints; kind 5 carried each
// operation's index key edits beside it. Each record deletes OID 1, touching
// no index.
func TestParentLogRecordRefused(t *testing.T) {
	for _, tc := range []struct {
		kind   byte
		record []byte
	}{
		{4, []byte{4, byte(BatchDelete), 1, 0}},          // op kind, uvarint OID, 0 edits
		{5, []byte{5, byte(BatchDelete), 0, 0, 0, 1, 0}}, // op kind, 4-byte OID, 0 edits
	} {
		t.Run(fmt.Sprintf("kind%d", tc.kind), func(t *testing.T) {
			dir := t.TempDir()
			copyDirTo(t, filepath.Join("testdata", "parent-wal"), dir)
			log, err := wal.Open(filepath.Join(dir, walLogName), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := log.WaitDurable(log.Append(tc.record)); err != nil {
				t.Fatal(err)
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			before := readDir(t, dir)
			_, err = Open(dir, Options{})
			if want := fmt.Sprintf("unknown record kind %d", tc.kind); !errors.Is(err, ErrRecovery) || !strings.Contains(err.Error(), want) {
				t.Fatalf("Open with a kind-%d record: %v, want ErrRecovery naming the kind", tc.kind, err)
			}
			after := readDir(t, dir)
			if len(after) != len(before) {
				t.Fatalf("failed Open changed the file set: %d -> %d files", len(before), len(after))
			}
			for name, raw := range before {
				if after[name] != raw {
					t.Fatalf("failed Open changed %s", name)
				}
			}
		})
	}
}

// TestParentWALDirectoryRetiresLog: the log file of a directory written
// before the log had segments is read until the next checkpoint, which
// starts a segment and removes the old file; the database reopens intact.
func TestParentWALDirectoryRetiresLog(t *testing.T) {
	want := typedState(t, codecFixtureDB(t, Options{}))
	dir := t.TempDir()
	copyDirTo(t, filepath.Join("testdata", "parent-wal"), dir)
	db, err := Open(dir, Options{WALCheckpointBytes: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, walLogName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("%s after a checkpoint and Close: %v, want removed", walLogName, err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := typedState(t, re); got != want {
		t.Fatalf("reopened as\n%s\nwant\n%s", got, want)
	}
}
