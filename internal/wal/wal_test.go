package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// memBlock is a minimal in-memory BlockFile for the unit tests; the
// crash-fidelity variant lives in internal/faultfs.
type memBlock struct {
	mu   sync.Mutex
	data []byte
}

func (m *memBlock) ReadAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off >= int64(len(m.data)) {
		return 0, fmt.Errorf("read past end")
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, fmt.Errorf("short read")
	}
	return n, nil
}

func (m *memBlock) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if grow := off + int64(len(p)); grow > int64(len(m.data)) {
		m.data = append(m.data, make([]byte, grow-int64(len(m.data)))...)
	}
	return copy(m.data[off:], p), nil
}

func (m *memBlock) Sync() error { return nil }

func (m *memBlock) Size() (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(len(m.data)), nil
}

func (m *memBlock) Close() error { return nil }

func payloadFor(lsn uint64) []byte {
	return []byte(fmt.Sprintf("record-%06d", lsn))
}

func appendSync(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		lsn := l.Append(payloadFor(l.LastAppended() + 1))
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatalf("WaitDurable(%d): %v", lsn, err)
		}
	}
}

func collect(t *testing.T, l *Log, from uint64) map[uint64]string {
	t.Helper()
	got := map[uint64]string{}
	err := l.Replay(from, func(lsn uint64, payload []byte) error {
		got[lsn] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendSync(t, l, 10)
	if got := l.LastAppended(); got != 10 {
		t.Fatalf("LastAppended = %d, want 10", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.Durable(); got != 10 {
		t.Fatalf("reopened Durable = %d, want 10", got)
	}
	got := collect(t, l, 4)
	if len(got) != 6 {
		t.Fatalf("replayed %d records from 4, want 6", len(got))
	}
	for lsn := uint64(5); lsn <= 10; lsn++ {
		if got[lsn] != string(payloadFor(lsn)) {
			t.Fatalf("record %d = %q, want %q", lsn, got[lsn], payloadFor(lsn))
		}
	}
	// Appending after reopen continues the LSN sequence.
	if lsn := l.Append(payloadFor(11)); lsn != 11 {
		t.Fatalf("post-reopen Append assigned %d, want 11", lsn)
	}
	if err := l.WaitDurable(11); err != nil {
		t.Fatal(err)
	}
}

func TestLogTornTailTruncated(t *testing.T) {
	m := &memBlock{}
	l, err := CreateOn(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendSync(t, l, 5)
	if err := l.close(true); err != nil {
		t.Fatal(err)
	}

	// Corrupt the last record's payload in place: the scan must stop
	// before it, recovering exactly the first four.
	size, _ := m.Size()
	buf := make([]byte, 1)
	if _, err := m.ReadAt(buf, size-1); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xff
	if _, err := m.WriteAt(buf, size-1); err != nil {
		t.Fatal(err)
	}

	l, err = OpenOn(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Durable(); got != 4 {
		t.Fatalf("Durable after torn tail = %d, want 4", got)
	}
	// The torn record's LSN is reassigned: new appends overwrite the tail.
	if lsn := l.Append(payloadFor(5)); lsn != 5 {
		t.Fatalf("Append after torn tail assigned %d, want 5", lsn)
	}
	if err := l.WaitDurable(5); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l, 0); len(got) != 5 || got[5] != string(payloadFor(5)) {
		t.Fatalf("replay after rewrite = %v", got)
	}
	l.Abandon()
}

func TestLogGroupCommitCoalesces(t *testing.T) {
	m := &memBlock{}
	l, err := CreateOn(m, Options{MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn := l.Append([]byte("concurrent-commit"))
				if err := l.WaitDurable(lsn); err != nil {
					t.Errorf("WaitDurable: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != writers*per {
		t.Fatalf("Appends = %d, want %d", st.Appends, writers*per)
	}
	if st.BatchRecords != writers*per {
		t.Fatalf("BatchRecords = %d, want %d", st.BatchRecords, writers*per)
	}
	if st.Fsyncs >= st.Appends {
		t.Fatalf("group commit did not amortize: %d fsyncs for %d commits", st.Fsyncs, st.Appends)
	}
	if err := l.close(true); err != nil {
		t.Fatal(err)
	}
}

func TestLogTruncatePartialAndReset(t *testing.T) {
	m := &memBlock{}
	l, err := CreateOn(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendSync(t, l, 8)
	live := l.LiveBytes()

	// Partial truncation reclaims whole batches below the cut.
	if err := l.TruncateTo(5); err != nil {
		t.Fatal(err)
	}
	if got := l.LiveBytes(); got >= live {
		t.Fatalf("LiveBytes after partial truncate = %d, want < %d", got, live)
	}
	if got := collect(t, l, 5); len(got) != 3 {
		t.Fatalf("replay(5) after truncate = %v, want records 6..8", got)
	}

	// Full truncation rewinds the write offset to the start of the file.
	if err := l.TruncateTo(8); err != nil {
		t.Fatal(err)
	}
	if got := l.LiveBytes(); got != 0 {
		t.Fatalf("LiveBytes after full truncate = %d, want 0", got)
	}
	// New records land over the recycled region but keep increasing LSNs.
	if lsn := l.Append(payloadFor(9)); lsn != 9 {
		t.Fatalf("post-reset Append assigned %d, want 9", lsn)
	}
	if err := l.WaitDurable(9); err != nil {
		t.Fatal(err)
	}
	if err := l.close(true); err != nil {
		t.Fatal(err)
	}

	// Reopen: the reset slot plus the one new record.
	l, err = OpenOn(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Durable(); got != 9 {
		t.Fatalf("Durable after reopen = %d, want 9", got)
	}
	got := collect(t, l, 0)
	if len(got) != 1 || got[9] != string(payloadFor(9)) {
		t.Fatalf("replay after reset reopen = %v, want only record 9", got)
	}
	l.Abandon()
}

func TestLogStaleRecordAfterResetIgnored(t *testing.T) {
	m := &memBlock{}
	l, err := CreateOn(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Two records of different sizes so the stale second record starts
	// inside the region a single new record does not fully overwrite.
	for lsn := uint64(1); lsn <= 2; lsn++ {
		l.Append(payloadFor(lsn))
	}
	if err := l.WaitDurable(2); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateTo(2); err != nil {
		t.Fatal(err)
	}
	// One short new record: the bytes of stale record 2 still sit beyond
	// it on disk, CRC-valid, but with a smaller-than-expected LSN.
	l.Append([]byte("x"))
	if err := l.WaitDurable(3); err != nil {
		t.Fatal(err)
	}
	if err := l.close(true); err != nil {
		t.Fatal(err)
	}

	l, err = OpenOn(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, l, 0)
	if len(got) != 1 || got[3] != "x" {
		t.Fatalf("stale record leaked into replay: %v", got)
	}
	l.Abandon()
}

func TestLogCorruptHeader(t *testing.T) {
	m := &memBlock{}
	l, err := CreateOn(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendSync(t, l, 1)
	if err := l.close(true); err != nil {
		t.Fatal(err)
	}
	var bad [4]byte
	binary.BigEndian.PutUint32(bad[:], 0xdeadbeef)
	if _, err := m.WriteAt(bad[:], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenOn(m, Options{}); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("OpenOn with bad magic = %v, want ErrCorruptLog", err)
	}
}

func TestLogCloseReleasesWaiters(t *testing.T) {
	m := &memBlock{}
	l, err := CreateOn(m, Options{MaxDelay: time.Hour}) // never flushes on its own
	if err != nil {
		t.Fatal(err)
	}
	lsn := l.Append([]byte("pending"))
	done := make(chan error, 1)
	go func() { done <- l.WaitDurable(lsn) }()
	time.Sleep(10 * time.Millisecond)
	if err := l.close(true); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		// Close drains pending records, so the waiter may see success;
		// it must not block forever either way.
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("waiter released with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after Close")
	}
}
