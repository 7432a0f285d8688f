package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/pager"
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

	l, _, err = OpenOn(m, Options{})
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

// onto is a Rotate opener handing over b.
func onto(b pager.BlockFile) func() (pager.BlockFile, error) {
	return func() (pager.BlockFile, error) { return b, nil }
}

// rotate seals the log and starts the next segment on an empty memBlock.
func rotate(t *testing.T, l *Log) (*memBlock, uint64) {
	t.Helper()
	cut := l.Seal()
	next := &memBlock{}
	if err := l.Rotate(onto(next)); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	return next, cut
}

func TestLogRotateSplitsAtSeal(t *testing.T) {
	old := &memBlock{}
	l, err := CreateOn(old, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendSync(t, l, 2)
	l.Append(payloadFor(3)) // buffered, not yet written: still at or below the seal
	cut := l.Seal()
	if cut != 3 {
		t.Fatalf("Seal = %d, want 3", cut)
	}
	l.Append(payloadFor(4)) // above the seal
	next := &memBlock{}
	if err := l.Rotate(onto(next)); err != nil {
		t.Fatal(err)
	}
	appendSync(t, l, 1)
	if err := l.close(true); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		b        *memBlock
		from, to uint64
	}{{"old", old, 1, 3}, {"next", next, 4, 5}} {
		seg, _, err := OpenOn(tc.b, Options{})
		if err != nil {
			t.Fatalf("%s segment: %v", tc.name, err)
		}
		got := collect(t, seg, 0)
		if len(got) != int(tc.to-tc.from+1) || got[tc.from] == "" || got[tc.to] == "" {
			t.Fatalf("%s segment holds %v, want records %d..%d", tc.name, got, tc.from, tc.to)
		}
		seg.Abandon()
	}
}

// slowSync is a memBlock whose Sync waits while hold is locked.
type slowSync struct {
	memBlock
	hold sync.Mutex
}

func (s *slowSync) Sync() error {
	s.hold.Lock()
	defer s.hold.Unlock()
	return nil
}

func TestLogRotateAcksAfterOldTail(t *testing.T) {
	old := &slowSync{}
	l, err := CreateOn(old, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Abandon()
	old.hold.Lock()
	l.Append(payloadFor(1))
	l.Seal()
	above := l.Append(payloadFor(2))
	next := &memBlock{}
	// Rotate first, with record 1 still buffered: the daemon must write it to
	// the old segment and wait for its sync before moving on.
	rotated := make(chan error, 1)
	go func() { rotated <- l.Rotate(onto(next)) }()
	time.Sleep(20 * time.Millisecond)
	acked := make(chan error, 1)
	go func() { acked <- l.WaitDurable(above) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-acked:
		t.Fatalf("record above the seal acknowledged (%v) while the old segment's tail was not durable", err)
	case err := <-rotated:
		t.Fatalf("Rotate returned (%v) while the old segment's tail was not durable", err)
	default:
	}
	if size, _ := next.Size(); size != HeaderLen {
		t.Fatalf("next segment is %d bytes before the old tail is durable, want only its header", size)
	}
	old.hold.Unlock()
	if err := <-rotated; err != nil {
		t.Fatal(err)
	}
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
	if got := l.Durable(); got != 2 {
		t.Fatalf("Durable = %d, want 2", got)
	}
}

func TestLogChainReopens(t *testing.T) {
	first := &memBlock{}
	l, err := CreateOn(first, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendSync(t, l, 3)
	second, _ := rotate(t, l)
	appendSync(t, l, 2)
	third, _ := rotate(t, l) // empty: the chain may end in a segment with no records
	if err := l.close(true); err != nil {
		t.Fatal(err)
	}

	l, chained, err := OpenOn(first, Options{}, second, third)
	if err != nil {
		t.Fatal(err)
	}
	if chained != 2 {
		t.Fatalf("%d later segments chained, want 2", chained)
	}
	if got := collect(t, l, 1); len(got) != 4 || got[2] != string(payloadFor(2)) || got[5] != string(payloadFor(5)) {
		t.Fatalf("replay(1) over the chain = %v, want records 2..5", got)
	}
	if lsn := l.Append(payloadFor(6)); lsn != 6 {
		t.Fatalf("Append after reopening the chain assigned %d, want 6", lsn)
	}
	if err := l.WaitDurable(6); err != nil {
		t.Fatal(err)
	}
	l.Abandon()
	if size, _ := third.Size(); size <= HeaderLen {
		t.Fatalf("record 6 did not go to the last segment (%d bytes)", size)
	}
}

func TestLogUnchainedSegmentIgnored(t *testing.T) {
	first := &memBlock{}
	l, err := CreateOn(first, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendSync(t, l, 3)
	if err := l.close(true); err != nil {
		t.Fatal(err)
	}
	skips := &memBlock{} // a whole header whose first LSN skips record 4
	if err := writeHeader(skips, 5); err != nil {
		t.Fatal(err)
	}
	torn := &memBlock{} // a header cut short by a crash
	torn.WriteAt([]byte{0x55, 0x57, 0x41}, 0)

	for name, later := range map[string]*memBlock{"skips": skips, "torn": torn} {
		l, chained, err := OpenOn(first, Options{}, later)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if chained != 0 {
			t.Fatalf("%s: %d later segments chained, want 0", name, chained)
		}
		if got := collect(t, l, 0); len(got) != 3 {
			t.Fatalf("%s: replay = %v, want records 1..3", name, got)
		}
		l.Abandon()
	}
}

// errIO is the injected I/O error of faulty.
var errIO = errors.New("injected I/O error")

// faulty is a memBlock whose Size, reads, or Sync fail with errIO as set.
type faulty struct {
	*memBlock
	failSize, failSync bool
	failRead           func(off int64) bool
}

func (f *faulty) Size() (int64, error) {
	if f.failSize {
		return 0, errIO
	}
	return f.memBlock.Size()
}

func (f *faulty) ReadAt(p []byte, off int64) (int, error) {
	if f.failRead != nil && f.failRead(off) {
		return 0, errIO
	}
	return f.memBlock.ReadAt(p, off)
}

func (f *faulty) Sync() error {
	if f.failSync {
		return errIO
	}
	return f.memBlock.Sync()
}

// TestLogUnreadableSegmentFails: an I/O error is not the end of the chain. A
// segment that cannot be sized or read may hold acknowledged records, so
// OpenOn fails rather than resuming before it.
func TestLogUnreadableSegmentFails(t *testing.T) {
	first := &memBlock{}
	l, err := CreateOn(first, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendSync(t, l, 3)
	second, _ := rotate(t, l)
	appendSync(t, l, 2)
	if err := l.close(true); err != nil {
		t.Fatal(err)
	}
	always := func(int64) bool { return true }
	records := func(off int64) bool { return off >= HeaderLen }
	for _, tc := range []struct {
		name  string
		first pager.BlockFile
		later *faulty
	}{
		{"later size", first, &faulty{memBlock: second, failSize: true}},
		{"later header read", first, &faulty{memBlock: second, failRead: always}},
		{"later record read", first, &faulty{memBlock: second, failRead: records}},
		{"first record read", &faulty{memBlock: first, failRead: records}, &faulty{memBlock: second}},
	} {
		if l, _, err := OpenOn(tc.first, Options{}, tc.later); !errors.Is(err, errIO) {
			if l != nil {
				l.Abandon()
			}
			t.Errorf("%s: OpenOn = %v, want the I/O error", tc.name, err)
		}
	}
}

// TestLogRotateFailedLogOpensNothing: once a flush has failed the log, Rotate
// returns that error before it makes a segment, so a checkpoint retried
// against a failed log creates no file.
func TestLogRotateFailedLogOpensNothing(t *testing.T) {
	f := &faulty{memBlock: &memBlock{}}
	l, err := CreateOn(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Abandon()
	f.failSync = true
	if err := l.WaitDurable(l.Append(payloadFor(1))); !errors.Is(err, errIO) {
		t.Fatalf("WaitDurable over a failing sync = %v, want the I/O error", err)
	}
	l.Seal()
	opened := false
	err = l.Rotate(func() (pager.BlockFile, error) {
		opened = true
		return &memBlock{}, nil
	})
	if !errors.Is(err, errIO) || opened {
		t.Fatalf("Rotate on a failed log = %v (open called: %v), want the I/O error and no open", err, opened)
	}
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
	if _, _, err := OpenOn(m, Options{}); !errors.Is(err, ErrCorruptLog) {
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
