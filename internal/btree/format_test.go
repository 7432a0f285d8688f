package btree

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pager"
)

// The fixtures under testdata were written by the build before the page
// format was unified (commit ebad161), which packed a seek-anchor trailer
// into the tail slack of every page with room for one and set flagAnchors:
//
//   - {leaf,internal}.anchored.page: one 1 KiB node page with the trailer;
//   - {leaf,internal}.plain.page: the same node written without it;
//   - anchored.db: a 512-byte-page DiskFile holding a tree of key(i) ->
//     val(i) for i < 1200, every 7th key deleted, built by Insert/Delete so
//     its pages carry trailers; anchored.json records its meta page and the
//     logical page counts that build measured for a few queries.

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPageFormatEntryAreaIdentical pins that a page carrying the old anchor
// trailer reads as the same node as the page without it: same keys, values
// and children. Re-encoding that node today reproduces the trailer-free
// page byte for byte, so the entry area — the bytes that set fanout, splits
// and every logical page count — is the same one format old and new.
func TestPageFormatEntryAreaIdentical(t *testing.T) {
	for _, kind := range []string{"leaf", "internal"} {
		anchored := readFixture(t, kind+".anchored.page")
		plain := readFixture(t, kind+".plain.page")
		if anchored[0]&flagAnchors == 0 || plain[0]&flagAnchors != 0 {
			t.Fatalf("%s fixtures: flags %02x / %02x, want the anchor bit on the anchored page only",
				kind, anchored[0], plain[0])
		}
		a, err := decodeNode(1, anchored)
		if err != nil {
			t.Fatal(err)
		}
		p, err := decodeNode(1, plain)
		if err != nil {
			t.Fatal(err)
		}
		if a.leaf != (kind == "leaf") || a.leaf != p.leaf || len(a.keys) == 0 || len(a.keys) != len(p.keys) {
			t.Fatalf("%s: decoded leaf=%v/%v with %d/%d keys", kind, a.leaf, p.leaf, len(a.keys), len(p.keys))
		}
		for i := range a.keys {
			if !bytes.Equal(a.keys[i], p.keys[i]) {
				t.Fatalf("%s: key %d differs: %q vs %q", kind, i, a.keys[i], p.keys[i])
			}
			if a.leaf && !bytes.Equal(a.vals[i], p.vals[i]) {
				t.Fatalf("%s: value %d differs: %q vs %q", kind, i, a.vals[i], p.vals[i])
			}
		}
		if len(a.children) != len(p.children) {
			t.Fatalf("%s: %d vs %d children", kind, len(a.children), len(p.children))
		}
		for i := range p.children {
			if a.children[i] != p.children[i] {
				t.Fatalf("%s: child %d differs: %d vs %d", kind, i, a.children[i], p.children[i])
			}
		}
		buf := make([]byte, len(plain))
		if err := a.encode(buf, false); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, plain) {
			t.Fatalf("%s: re-encoding the anchored page's node differs from the plain page", kind)
		}
	}
}

// TestOldFormatDiskRoundTrip reopens the anchored DiskFile fixture (on a
// copy: opening may write) and requires every answer and every logical page
// count the writing build measured, then mixes in new writes — pages in the
// one current format next to the old anchored ones.
func TestOldFormatDiskRoundTrip(t *testing.T) {
	var want struct {
		Meta       uint32 `json:"meta"`
		Keys       int    `json:"keys"`
		Height     int    `json:"height"`
		ScanPages  int    `json:"scan_pages"`
		MultiPages int    `json:"multiscan_pages"`
		MultiKeys  int    `json:"multiscan_keys"`
		GetPages   int    `json:"get_pages"`
	}
	if err := json.Unmarshal(readFixture(t, "anchored.json"), &want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "anchored.db")
	if err := os.WriteFile(path, readFixture(t, "anchored.db"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := pager.OpenDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := Open(f, pager.PageID(want.Meta))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1200
	present := func(i int) bool { return i < n && i%7 != 0 }
	if tr.Len() != want.Keys || tr.Height() != want.Height {
		t.Fatalf("reopened tree: %d keys, height %d; want %d, %d", tr.Len(), tr.Height(), want.Keys, want.Height)
	}

	// The fixture must really hold anchored pages, or it proves nothing.
	anchored := 0
	buf := make([]byte, f.PageSize())
	var walk func(id pager.PageID) error
	walk = func(id pager.PageID) error {
		if err := f.Read(id, buf); err != nil {
			return err
		}
		if buf[0]&flagAnchors != 0 {
			anchored++
		}
		nd, err := decodeNode(id, buf)
		if err != nil {
			return err
		}
		for _, c := range nd.children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(tr.cur.Load().root); err != nil {
		t.Fatal(err)
	}
	if anchored == 0 {
		t.Fatal("fixture has no anchored pages")
	}

	for i := 0; i < n+10; i++ {
		trk := pager.NewTracker()
		v, ok, err := tr.Get(key(i), trk)
		if err != nil || ok != present(i) || (ok && !bytes.Equal(v, val(i))) {
			t.Fatalf("Get(%d) = %q, %v, %v; want present=%v", i, v, ok, err, present(i))
		}
		if trk.Reads() != want.GetPages {
			t.Fatalf("Get(%d) read %d pages, the writing build %d", i, trk.Reads(), want.GetPages)
		}
	}
	trk := pager.NewTracker()
	var got []string
	err = tr.Scan(nil, nil, nil, trk, func(k, v []byte) ([]byte, bool, error) {
		got = append(got, string(k)+"="+string(v))
		return nil, false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var expect []string
	for i := 0; i < n; i++ {
		if present(i) {
			expect = append(expect, string(key(i))+"="+string(val(i)))
		}
	}
	if len(got) != len(expect) {
		t.Fatalf("scan returned %d entries, want %d", len(got), len(expect))
	}
	for i := range got {
		if got[i] != expect[i] {
			t.Fatalf("scan entry %d = %s, want %s", i, got[i], expect[i])
		}
	}
	if trk.Reads() != want.ScanPages {
		t.Fatalf("scan read %d pages, the writing build %d", trk.Reads(), want.ScanPages)
	}
	trk = pager.NewTracker()
	ivs := []Interval{{Lo: key(100), Hi: key(160)}, {Lo: key(500), Hi: key(520)}, {Lo: key(1000), Hi: key(1100)}}
	matches := 0
	err = tr.MultiScanKeys(nil, ivs, trk, func(k, _ []byte) ([]byte, bool, error) {
		matches++
		return nil, false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if matches != want.MultiKeys || trk.Reads() != want.MultiPages {
		t.Fatalf("multi-interval scan: %d keys over %d pages; the writing build %d over %d",
			matches, trk.Reads(), want.MultiKeys, want.MultiPages)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}

	for i := n; i < n+300; i++ {
		if err := tr.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n+300; i++ {
		v, ok, err := tr.Get(key(i), nil)
		if err != nil || ok != (present(i) || i >= n) || (ok && !bytes.Equal(v, val(i))) {
			t.Fatalf("Get(%d) on mixed-format file = %q, %v, %v", i, v, ok, err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}
