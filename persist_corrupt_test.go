package uindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"testing"
)

// corruptibleSnapshot builds a small but representative snapshot (class
// hierarchy, references, multi-valued attributes, two indexes).
func corruptibleSnapshot(t testing.TB) []byte {
	t.Helper()
	db, _ := paperDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadCorruptionSweep flips every byte of a valid snapshot (several
// patterns each) and tries every truncation: Load must always return an
// error matching ErrInvalidSnapshot — never a panic, and never a
// silently-wrong database (the CRC trailer makes any mutation detectable).
func TestLoadCorruptionSweep(t *testing.T) {
	snap := corruptibleSnapshot(t)
	if _, err := Load(bytes.NewReader(snap)); err != nil {
		t.Fatalf("pristine snapshot does not load: %v", err)
	}
	check := func(mut []byte, what string) {
		t.Helper()
		db, err := Load(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("%s: corrupt snapshot accepted", what)
		}
		if !errors.Is(err, ErrInvalidSnapshot) {
			t.Fatalf("%s: error %v does not match ErrInvalidSnapshot", what, err)
		}
		if db != nil {
			t.Fatalf("%s: non-nil database alongside error", what)
		}
	}
	stride := 1
	if testing.Short() {
		stride = 13
	}
	for i := 0; i < len(snap); i += stride {
		for _, pat := range []byte{0xFF, 0x01, 0x80} {
			if snap[i]^pat == snap[i] {
				continue
			}
			mut := append([]byte(nil), snap...)
			mut[i] ^= pat
			check(mut, "byte flip")
		}
	}
	for n := 0; n < len(snap); n += stride {
		check(snap[:n:n], "truncation")
	}
	// Appended trailing garbage changes the checksummed length.
	check(append(append([]byte(nil), snap...), 0xAB), "trailing garbage")
}

// openFiles counts this process's open file descriptors (Linux only).
func openFiles(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to count descriptors in: %v", err)
	}
	return len(ents)
}

// TestLoadFailureReleasesEverything: damage that passes the checksum reaches
// the parser and, past it, a live Database with pools and page files under
// Options.Dir. Every truncation of the body, and every byte flip in the index
// section, either loads or fails — and a failed LoadWith leaves no file
// descriptor and no goroutine behind.
func TestLoadFailureReleasesEverything(t *testing.T) {
	snap := corruptibleSnapshot(t)
	body := snap[:len(snap)-4]
	reseal := func(b []byte) []byte {
		return binary.BigEndian.AppendUint32(append([]byte(nil), b...), crc32.Checksum(b, snapshotCRC))
	}
	fds, goroutines := openFiles(t), runtime.NumGoroutine()
	failed := 0
	try := func(mut []byte, what string) {
		t.Helper()
		db, err := LoadWith(bytes.NewReader(mut), Options{Dir: t.TempDir(), PoolPages: 8})
		if err == nil {
			if err := db.Close(); err != nil {
				t.Fatalf("%s: closing a database that loaded: %v", what, err)
			}
			return
		}
		failed++
		if !errors.Is(err, ErrInvalidSnapshot) {
			t.Fatalf("%s: error %v does not match ErrInvalidSnapshot", what, err)
		}
		if got := openFiles(t); got != fds {
			t.Fatalf("%s: %d file descriptors open after the failed load, %d before", what, got, fds)
		}
		if got := runtime.NumGoroutine(); got > goroutines {
			t.Fatalf("%s: %d goroutines after the failed load, %d before", what, got, goroutines)
		}
	}
	for n := 8; n < len(body); n++ {
		try(reseal(body[:n]), fmt.Sprintf("truncation at %d", n))
	}
	// The index declarations are the last section: from the first index name
	// on, a flipped byte is a spec CreateIndex may refuse with the indexes
	// before it already open.
	from := bytes.LastIndex(body, []byte("color"))
	if from < 0 {
		t.Fatal("no index section in the snapshot")
	}
	for i := from; i < len(body); i++ {
		mut := append([]byte(nil), body...)
		mut[i] ^= 0x01
		try(reseal(mut), fmt.Sprintf("flip at %d", i))
	}
	if failed == 0 {
		t.Fatal("no mutation failed to load")
	}
}

// FuzzLoad asserts Load never panics on arbitrary input, and that accepted
// inputs produce a usable database.
func FuzzLoad(f *testing.F) {
	snap := corruptibleSnapshot(f)
	f.Add(snap)
	if len(snap) > 40 {
		f.Add(snap[:len(snap)/2])
		mut := append([]byte(nil), snap...)
		mut[17] ^= 0xFF
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte("UODB"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrInvalidSnapshot) {
				t.Fatalf("Load error %v does not match ErrInvalidSnapshot", err)
			}
			return
		}
		// Accepted: the database must be minimally usable.
		got.Indexes()
		if err := got.Close(); err != nil {
			t.Fatalf("closing loaded database: %v", err)
		}
	})
}
