// Package wal implements the write-ahead commit log that sits in front of
// the shadow-paging checkpoints: an append-only record log with per-record
// CRC32C + length framing, a group-commit daemon that coalesces concurrent
// committers into one fsync, and one segment file per checkpoint generation.
//
// A segment is a 16-byte header — magic, version 2, the first record's LSN
// — followed by records, each [4B payload length][4B CRC32C over
// LSN+payload][8B LSN][payload]. LSNs are dense from 1 and strictly increase
// across the chain of segments: each segment's first LSN continues the one
// before it. A segment is never rewritten; log bytes are retired by deleting
// whole segments.
//
// Rotation: a checkpoint's Seal marks its cut S, and Rotate starts the next
// segment. The group-commit daemon writes the records at or below S to the
// current segment and holds later ones in memory; it moves to the next
// segment, whose header is already durable, only once every record up to S
// is durable.
//
// Version 1 is the single-file log of earlier builds: a header, two
// truncation slots at 512 and 1024 (a pager.CommitSlots pair whose body is
// [8B slot generation][8B start LSN][8B start offset]), then records. It is
// still read as the first segment of a chain and appended to until the next
// rotation.
//
// Concurrency contract: Append never blocks on I/O (records buffer in
// memory and the group-commit daemon writes them); WaitDurable blocks the
// caller until its record and every lower LSN are fsynced. Any number of
// goroutines may Append/WaitDurable concurrently; one checkpointer at a time
// calls Seal, then Rotate.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pager"
)

// ErrCorruptLog reports a structurally damaged first segment: bad magic or
// version, or no valid truncation slot in a version-1 log. A torn record tail
// is not corruption — it is the expected shape of a crash and is silently
// truncated.
var ErrCorruptLog = errors.New("wal: corrupt log")

// ErrClosed is returned by WaitDurable when the log is closed before the
// record became durable.
var ErrClosed = errors.New("wal: log closed")

// HeaderLen is the size of a segment header: a segment holding no records.
const HeaderLen = 16

const (
	logMagic   = 0x5557414c // "UWAL"
	logVersion = 2

	// The version-1 log's truncation slots, then its records.
	v1SlotOff   = 512
	v1SlotSize  = 512
	v1DataStart = v1SlotOff + 2*v1SlotSize

	recHeaderLen = 4 + 4 + 8 // length, crc, lsn

	// maxRecordLen bounds a single record payload; a scanned length beyond
	// it is treated as a torn tail.
	maxRecordLen = 1 << 28
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options tunes the group-commit daemon.
type Options struct {
	// MaxDelay is how long the daemon waits after being woken before
	// flushing, letting more committers join the batch. 0 flushes
	// immediately — concurrent committers still coalesce naturally, because
	// appends that arrive during one flush's fsync all ride the next one.
	MaxDelay time.Duration
}

// Stats is a snapshot of the log's cumulative counters.
type Stats struct {
	// Appends counts records ever appended.
	Appends uint64
	// Fsyncs counts Sync calls issued to the log by group commit.
	Fsyncs uint64
	// Batches counts group-commit flushes; BatchRecords sums the records
	// they carried, so BatchRecords/Batches is the mean group size.
	Batches      uint64
	BatchRecords uint64
}

// segment is one file of the chain: its records are [start, end), the first
// of them carrying LSN first.
type segment struct {
	b          pager.BlockFile
	first      uint64
	start, end int64
}

// Log is one write-ahead log over a chain of segments.
type Log struct {
	opts Options

	mu   sync.Mutex
	cond *sync.Cond // broadcast when durable/failed/closed/segs changes

	// segs are the open segments: appends go to the last one; earlier ones
	// are read by Replay after an Open that chained several. A rotation
	// closes all but the new segment.
	segs []segment
	// next is the segment Rotate attached; the daemon moves to it once
	// every record up to seal is durable.
	next pager.BlockFile
	// sealed holds records above seal back from the current segment;
	// sealLen and sealRecs are the bytes and records of buf at or below it.
	sealed            bool
	seal              uint64
	sealLen, sealRecs int

	nextLSN uint64 // next LSN to assign
	durable uint64 // every LSN up to it is fsynced
	buf     []byte // encoded frames awaiting flush
	bufRecs int

	halted bool  // flush does nothing: the log was abandoned
	failed error // sticky first I/O error
	closed bool

	kick  chan struct{} // wakes the daemon
	stopc chan struct{}
	done  chan struct{}

	appends   atomic.Uint64
	fsyncs    atomic.Uint64
	batches   atomic.Uint64
	batchRecs atomic.Uint64
}

// Create initializes a new log file at path (truncating any previous
// contents) holding records from LSN 1, and starts its group-commit daemon.
func Create(path string, opts Options) (*Log, error) {
	return pager.OpenPath(path, true, func(b pager.BlockFile) (*Log, error) {
		return CreateOn(b, opts)
	})
}

// CreateOn initializes a log on an empty BlockFile: one segment holding
// records from LSN 1, its header synced.
func CreateOn(b pager.BlockFile, opts Options) (*Log, error) {
	if err := writeHeader(b, 1); err != nil {
		return nil, err
	}
	l, _, err := OpenOn(b, opts)
	return l, err
}

// writeHeader writes and syncs a segment header for records from first.
func writeHeader(b pager.BlockFile, first uint64) error {
	var hdr [HeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:], logMagic)
	binary.BigEndian.PutUint32(hdr[4:], logVersion)
	binary.BigEndian.PutUint64(hdr[8:], first)
	if _, err := b.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	return b.Sync()
}

// Open opens the log file at path as a one-segment chain and starts its
// group-commit daemon; see OpenOn.
func Open(path string, opts Options) (*Log, error) {
	return pager.OpenPath(path, false, func(b pager.BlockFile) (*Log, error) {
		l, _, err := OpenOn(b, opts)
		return l, err
	})
}

// OpenOn recovers a log from its first segment and the later ones that
// follow it. Each segment is scanned up to its first record that fails its
// length, checksum, or LSN check — the torn tail. A later segment chains
// only if its header is whole and its first LSN continues the segment before
// it; the chain ends at the first that does not. OpenOn returns how many of
// the later segments chained: the log owns their files and b, and the caller
// closes the rest. Appends resume at the end of the last segment that
// chains. Structural damage to the first segment reports an error matching
// ErrCorruptLog; a torn tail does not. An I/O error is returned as is: it
// shows nothing about where the chain ends.
func OpenOn(b pager.BlockFile, opts Options, later ...pager.BlockFile) (*Log, int, error) {
	seg, err := readHeader(b, true)
	if err != nil {
		return nil, 0, err
	}
	l := newLog(opts, seg)
	var last uint64
	for i := 0; ; i++ {
		s := &l.segs[i]
		if s.end, last, err = scan(s.b, s.first, s.start, s.end, nil); err != nil {
			return nil, 0, err
		}
		if i == len(later) {
			break
		}
		next, err := readHeader(later[i], false)
		if err != nil && !errors.Is(err, ErrCorruptLog) {
			return nil, 0, err
		}
		if err != nil || next.first != last+1 {
			break
		}
		l.segs = append(l.segs, next)
	}
	l.nextLSN, l.durable = last+1, last
	go l.daemon()
	return l, len(l.segs) - 1, nil
}

// readHeader reads a segment's header into the segment, whose end is the
// file size until scanned. Only the first segment of a chain may be a
// version-1 log.
func readHeader(b pager.BlockFile, first bool) (segment, error) {
	size, err := b.Size()
	if err != nil {
		return segment{}, err
	}
	if size < HeaderLen {
		return segment{}, fmt.Errorf("%w: %d bytes is shorter than the header", ErrCorruptLog, size)
	}
	var hdr [HeaderLen]byte
	if err := pager.ReadFull(b, hdr[:], 0); err != nil {
		return segment{}, err
	}
	if binary.BigEndian.Uint32(hdr[0:]) != logMagic {
		return segment{}, fmt.Errorf("%w: bad magic", ErrCorruptLog)
	}
	seg := segment{b: b, first: binary.BigEndian.Uint64(hdr[8:]), start: HeaderLen, end: size}
	switch v := binary.BigEndian.Uint32(hdr[4:]); {
	case v == logVersion && seg.first == 0:
		return segment{}, fmt.Errorf("%w: first LSN 0", ErrCorruptLog)
	case v == logVersion:
		return seg, nil
	case v == 1 && first:
		// A slot body is the slot generation, the start LSN and the start offset.
		slot, ok := pager.CommitSlots{B: b, Off: v1SlotOff, Stride: v1SlotSize}.Elect(24, 0)
		if !ok {
			return segment{}, fmt.Errorf("%w: no valid truncation slot", ErrCorruptLog)
		}
		seg.first, seg.start = binary.BigEndian.Uint64(slot[8:]), int64(binary.BigEndian.Uint64(slot[16:]))
		if seg.start < v1DataStart {
			return segment{}, fmt.Errorf("%w: truncation slot points at offset %d inside the header", ErrCorruptLog, seg.start)
		}
		return seg, nil
	default:
		return segment{}, fmt.Errorf("%w: unsupported version %d", ErrCorruptLog, v)
	}
}

func newLog(opts Options, seg segment) *Log {
	l := &Log{
		opts:  opts,
		segs:  []segment{seg},
		kick:  make(chan struct{}, 1),
		stopc: make(chan struct{}),
		done:  make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// scan walks the record chain from (lsn, off), stopping at the first record
// that fails validation — the torn tail. It returns the end offset and the
// last valid LSN (lsn-1 when the region is empty). fn, when non-nil, is
// called with each valid record's LSN and payload. A read that fails inside
// size is an I/O error, returned as is, not a torn tail.
func scan(b pager.BlockFile, lsn uint64, off, size int64, fn func(uint64, []byte) error) (int64, uint64, error) {
	expect := lsn
	for {
		if off+recHeaderLen > size {
			break
		}
		var hdr [recHeaderLen]byte
		if err := pager.ReadFull(b, hdr[:], off); err != nil {
			return 0, 0, err
		}
		length := int64(binary.BigEndian.Uint32(hdr[0:]))
		sum := binary.BigEndian.Uint32(hdr[4:])
		got := binary.BigEndian.Uint64(hdr[8:])
		if length > maxRecordLen || off+recHeaderLen+length > size {
			break
		}
		payload := make([]byte, length)
		if err := pager.ReadFull(b, payload, off+recHeaderLen); err != nil {
			return 0, 0, err
		}
		if crc32.Update(crc32.Checksum(hdr[8:16], castagnoli), castagnoli, payload) != sum {
			break
		}
		if got != expect {
			break
		}
		if fn != nil {
			if err := fn(got, payload); err != nil {
				return 0, 0, err
			}
		}
		expect++
		off += recHeaderLen + length
	}
	return off, expect - 1, nil
}

// Append assigns the next LSN to payload and buffers its frame for the
// group-commit daemon. It never performs I/O and never fails; durability
// (and any I/O failure) surfaces in WaitDurable.
func (l *Log) Append(payload []byte) uint64 {
	l.mu.Lock()
	lsn := l.nextLSN
	l.nextLSN++
	var hdr [recHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.BigEndian.PutUint64(hdr[8:], lsn)
	sum := crc32.Update(crc32.Checksum(hdr[8:16], castagnoli), castagnoli, payload)
	binary.BigEndian.PutUint32(hdr[4:], sum)
	l.buf = append(l.buf, hdr[:]...)
	l.buf = append(l.buf, payload...)
	l.bufRecs++
	l.mu.Unlock()
	l.appends.Add(1)
	return lsn
}

// WaitDurable blocks until the record with the given LSN and every lower one
// are fsynced, kicking the group-commit daemon. Concurrent waiters coalesce:
// one flush satisfies every LSN it covers.
func (l *Log) WaitDurable(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durable < lsn && l.failed == nil && !l.closed {
		signal(l.kick)
		l.cond.Wait()
	}
	if l.durable >= lsn {
		return nil
	}
	if l.failed != nil {
		return l.failed
	}
	return ErrClosed
}

// signal does a non-blocking send on a 1-buffered wake channel.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// daemon is the group-commit loop: woken by the first waiter, it optionally
// lingers MaxDelay to let more committers join, then writes and fsyncs
// everything pending.
func (l *Log) daemon() {
	defer close(l.done)
	for {
		select {
		case <-l.stopc:
			l.flush()
			return
		case <-l.kick:
		}
		if d := l.opts.MaxDelay; d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-l.stopc:
				t.Stop()
				l.flush()
				return
			}
		}
		l.flush()
	}
}

// flush writes and fsyncs every pending record as one batch. Only the daemon
// calls it, so batches hit the files in LSN order, and no write is in flight
// at the top of its loop: once a sealed segment has no record left to take,
// every record up to the seal is durable and the attached next segment takes
// over. A batch that ends at the seal loops to that switch and the records
// after it.
func (l *Log) flush() {
	for {
		l.mu.Lock()
		var retired []segment
		if l.sealed && l.sealLen == 0 && l.next != nil && l.failed == nil {
			retired = l.segs
			l.segs = []segment{{b: l.next, first: l.seal + 1, start: HeaderLen, end: HeaderLen}}
			l.next, l.sealed = nil, false
			l.cond.Broadcast()
		}
		n, recs := len(l.buf), l.bufRecs
		if l.sealed {
			n, recs = l.sealLen, l.sealRecs
		}
		if n == 0 || l.failed != nil || l.halted {
			l.mu.Unlock()
			closeSegments(retired)
			return
		}
		tail := l.sealed
		data := l.buf[:n]
		if l.buf = l.buf[n:]; len(l.buf) == 0 {
			l.buf = nil
		}
		l.bufRecs -= recs
		l.sealLen, l.sealRecs = 0, 0
		last := l.nextLSN - 1 - uint64(l.bufRecs)
		seg := &l.segs[len(l.segs)-1]
		b, off := seg.b, seg.end
		seg.end += int64(n)
		l.mu.Unlock()
		closeSegments(retired)

		_, err := b.WriteAt(data, off)
		if err == nil {
			err = b.Sync()
		}

		l.mu.Lock()
		if err != nil {
			if l.failed == nil {
				l.failed = err
			}
		} else {
			l.durable = last
			l.fsyncs.Add(1)
			l.batches.Add(1)
			l.batchRecs.Add(uint64(recs))
		}
		l.cond.Broadcast()
		l.mu.Unlock()
		if !tail {
			return
		}
	}
}

// closeSegments closes retired segment files; their records are durable.
func closeSegments(segs []segment) {
	for _, s := range segs {
		s.b.Close()
	}
}

// Seal marks a checkpoint cut: it returns S, the highest LSN appended so
// far, and holds every later record back from the current segment until
// Rotate attaches the next one. It performs no I/O, so a checkpoint can call
// it while writers are excluded. Every Seal must be followed by a Rotate.
func (l *Log) Seal() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sealed, l.seal = true, l.nextLSN-1
	l.sealLen, l.sealRecs = len(l.buf), l.bufRecs
	return l.seal
}

// Rotate starts the segment for the records above the seal on the empty
// file open returns and waits until appends go to it: its header is synced,
// like the directory entry a created file gets from pager.OpenPath, before
// any record is written into it. The daemon closes the segments before it;
// deleting their files is the caller's step, after the commit that no
// longer needs them. A failed or closed log returns its error without
// calling open, and a segment that cannot be made fails the log as any log
// I/O error does, so no later segment ever holds a record.
func (l *Log) Rotate(open func() (pager.BlockFile, error)) error {
	l.mu.Lock()
	first, err := l.seal+1, l.failed
	if err == nil && l.closed {
		err = ErrClosed
	}
	l.mu.Unlock()
	if err != nil {
		return err
	}
	b, err := open()
	if err == nil {
		if err = writeHeader(b, first); err != nil {
			b.Close()
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		if l.failed == nil {
			l.failed = err
		}
		l.cond.Broadcast()
		return err
	}
	l.next = b
	signal(l.kick)
	for l.next != nil && l.failed == nil && !l.closed {
		l.cond.Wait()
	}
	if l.next == nil {
		return nil
	}
	l.next = nil
	b.Close()
	if l.failed != nil {
		return l.failed
	}
	return ErrClosed
}

// LastAppended returns the highest LSN ever assigned (0 when none).
func (l *Log) LastAppended() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Durable returns the highest fsynced LSN.
func (l *Log) Durable() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// LiveBytes returns the record bytes of the open segments plus buffered
// unflushed records — the checkpoint-lag measure.
func (l *Log) LiveBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := int64(len(l.buf))
	for _, s := range l.segs {
		n += s.end - s.start
	}
	return n
}

// Stats snapshots the cumulative counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:      l.appends.Load(),
		Fsyncs:       l.fsyncs.Load(),
		Batches:      l.batches.Load(),
		BatchRecords: l.batchRecs.Load(),
	}
}

// Replay re-reads the open segments and calls fn for every record with
// LSN > from, in LSN order. It scans only what was on disk when the log was
// opened plus completed flushes; call it during recovery, before concurrent
// appends begin.
func (l *Log) Replay(from uint64, fn func(lsn uint64, payload []byte) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()
	for _, s := range segs {
		_, _, err := scan(s.b, s.first, s.start, s.end, func(got uint64, payload []byte) error {
			if got <= from {
				return nil
			}
			return fn(got, payload)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Close flushes pending records, stops the group-commit daemon, and closes
// the segment files. Waiters still blocked are released with ErrClosed.
func (l *Log) Close() error {
	return l.close(true)
}

// Abandon stops the daemon without any further I/O and without closing the
// segment files — the crash-simulation teardown: each file is left exactly
// as the last completed operation left it.
func (l *Log) Abandon() {
	l.close(false)
}

func (l *Log) close(drain bool) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return nil
	}
	l.closed = true
	l.halted = !drain
	l.mu.Unlock()
	close(l.stopc)
	<-l.done
	l.mu.Lock()
	err := l.failed
	l.cond.Broadcast()
	segs := l.segs
	l.mu.Unlock()
	if !drain {
		return err
	}
	for _, s := range segs {
		if cerr := s.b.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
