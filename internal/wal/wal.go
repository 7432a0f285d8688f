// Package wal implements the write-ahead commit log that sits in front of
// the shadow-paging checkpoints: an append-only record log with per-record
// CRC32C + length framing, a group-commit daemon that coalesces concurrent
// committers into one fsync, and a checkpoint-driven truncation protocol.
//
// Layout on the BlockFile:
//
//	[0,   16)   magic, version (and zero padding to the first slot)
//	[512, 540)  truncation slot, even generations
//	[1024,1052) truncation slot, odd generations
//	[1536, ...) records
//
// A truncation slot is [8B slot generation][8B start LSN][8B start offset]
// [4B CRC32C]; the two slots alternate by generation parity exactly like
// pager.Manifest commits, so a torn slot write leaves the previous
// truncation point intact. startLSN is the LSN of the record stored at
// startOff.
//
// A record is [4B payload length][4B CRC32C over LSN+payload][8B LSN]
// [payload]. LSNs are assigned densely from 1 and strictly increase over
// the whole life of the file — even across truncation resets that rewind
// the write offset — which is what makes tail scanning sound: a stale
// record left over from an earlier pass always carries an LSN smaller than
// the one expected at its offset, so it terminates the scan instead of
// replaying.
//
// Concurrency contract: Append never blocks on I/O (records buffer in
// memory and the group-commit daemon writes them); WaitDurable blocks the
// caller until its record's batch is fsynced. Any number of goroutines may
// Append/WaitDurable concurrently; TruncateTo is called by one checkpointer
// at a time.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pager"
)

// ErrCorruptLog reports a structurally damaged log: bad magic or version,
// or no valid truncation slot. A torn record tail is not corruption — it is
// the expected shape of a crash and is silently truncated.
var ErrCorruptLog = errors.New("wal: corrupt log")

// ErrClosed is returned by WaitDurable when the log is closed before the
// record became durable.
var ErrClosed = errors.New("wal: log closed")

const (
	logMagic   = 0x5557414c // "UWAL"
	logVersion = 1

	slot0Off = 512
	slotSize = 512
	slotLen  = 8 + 8 + 8 + 4 // gen, startLSN, startOff, crc

	// dataStart is the offset of the first record.
	dataStart = slot0Off + 2*slotSize

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
	// Fsyncs counts Sync calls issued to the backing file by group commit
	// (truncation-slot syncs are counted separately in TruncSyncs).
	Fsyncs uint64
	// Batches counts group-commit flushes; BatchRecords sums the records
	// they carried, so BatchRecords/Batches is the mean group size.
	Batches      uint64
	BatchRecords uint64
	// TruncSyncs counts truncation-slot commits.
	TruncSyncs uint64
}

// mark remembers the file offset of the first record of one flushed batch;
// TruncateTo discards whole batches using these.
type mark struct {
	lsn uint64
	off int64
}

// Log is one write-ahead log on a BlockFile.
type Log struct {
	b    pager.BlockFile
	opts Options

	mu   sync.Mutex
	cond *sync.Cond // broadcast when durable/failed/closed changes

	nextLSN  uint64 // next LSN to assign
	durable  uint64 // highest fsynced LSN
	buf      []byte // encoded frames awaiting flush
	bufRecs  int
	writeOff int64 // file offset of the next flush
	marks    []mark

	startLSN uint64 // first LSN at startOff, per the durable slot
	startOff int64
	slotGen  uint64

	// truncating pauses flushes while a truncation reset rewinds writeOff:
	// no record may land at the recycled offset before the new slot is
	// durable.
	truncating bool
	failed     error // sticky first I/O error
	closed     bool

	kick  chan struct{} // wakes the daemon
	stopc chan struct{}
	done  chan struct{}

	appends    atomic.Uint64
	fsyncs     atomic.Uint64
	batches    atomic.Uint64
	batchRecs  atomic.Uint64
	truncSyncs atomic.Uint64
}

// osFile adapts an *os.File to pager.BlockFile.
type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Create initializes a new log file at path (truncating any previous
// contents) and starts its group-commit daemon.
func Create(path string, opts Options) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	l, err := CreateOn(osFile{f}, opts)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// Open opens an existing log file, truncating any torn tail, and starts its
// group-commit daemon.
func Open(path string, opts Options) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	l, err := OpenOn(osFile{f}, opts)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// CreateOn initializes a log on an empty BlockFile: header, the generation-1
// truncation slot (start LSN 1 at dataStart), one sync.
func CreateOn(b pager.BlockFile, opts Options) (*Log, error) {
	hdr := make([]byte, dataStart)
	binary.BigEndian.PutUint32(hdr[0:], logMagic)
	binary.BigEndian.PutUint32(hdr[4:], logVersion)
	if _, err := b.WriteAt(hdr, 0); err != nil {
		return nil, err
	}
	if _, err := b.WriteAt(encodeSlot(1, 1, dataStart), slotOff(1)); err != nil {
		return nil, err
	}
	if err := b.Sync(); err != nil {
		return nil, err
	}
	l := newLog(b, opts)
	l.nextLSN, l.durable = 1, 0
	l.startLSN, l.startOff, l.slotGen = 1, dataStart, 1
	l.writeOff = dataStart
	l.start()
	return l, nil
}

// OpenOn recovers a log from a BlockFile: it elects the newest valid
// truncation slot, scans the records from its start point, and truncates
// the tail at the first record that fails its length, checksum, or LSN
// check. Structural damage (header or both slots) reports an error matching
// ErrCorruptLog; a torn tail does not.
func OpenOn(b pager.BlockFile, opts Options) (*Log, error) {
	size, err := b.Size()
	if err != nil {
		return nil, err
	}
	if size < dataStart {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrCorruptLog, size)
	}
	var hdr [8]byte
	if err := readFull(b, hdr[:], 0); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrCorruptLog, err)
	}
	if binary.BigEndian.Uint32(hdr[0:]) != logMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptLog)
	}
	if v := binary.BigEndian.Uint32(hdr[4:]); v != logVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorruptLog, v)
	}
	l := newLog(b, opts)
	var slot [slotLen]byte
	for parity := uint64(0); parity < 2; parity++ {
		if err := readFull(b, slot[:], slotOff(parity)); err != nil {
			continue
		}
		gen, lsn, off, ok := decodeSlot(slot[:], parity)
		if ok && gen > l.slotGen {
			l.slotGen, l.startLSN, l.startOff = gen, lsn, off
		}
	}
	if l.slotGen == 0 {
		return nil, fmt.Errorf("%w: no valid truncation slot", ErrCorruptLog)
	}
	if l.startOff < dataStart {
		return nil, fmt.Errorf("%w: truncation slot points at offset %d inside the header", ErrCorruptLog, l.startOff)
	}
	end, last, marks, err := scan(b, l.startLSN, l.startOff, size, nil)
	if err != nil {
		return nil, err
	}
	l.nextLSN, l.durable = last+1, last
	l.writeOff = end
	l.marks = marks
	l.start()
	return l, nil
}

func newLog(b pager.BlockFile, opts Options) *Log {
	l := &Log{
		b:     b,
		opts:  opts,
		kick:  make(chan struct{}, 1),
		stopc: make(chan struct{}),
		done:  make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *Log) start() { go l.daemon() }

func slotOff(gen uint64) int64 { return slot0Off + int64(gen%2)*slotSize }

func encodeSlot(gen, lsn uint64, off int64) []byte {
	buf := make([]byte, 0, slotLen)
	buf = binary.BigEndian.AppendUint64(buf, gen)
	buf = binary.BigEndian.AppendUint64(buf, lsn)
	buf = binary.BigEndian.AppendUint64(buf, uint64(off))
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// decodeSlot validates one truncation slot: checksum, nonzero generation,
// and generation parity matching the cell.
func decodeSlot(buf []byte, parity uint64) (gen, lsn uint64, off int64, ok bool) {
	if binary.BigEndian.Uint32(buf[24:]) != crc32.Checksum(buf[:24], castagnoli) {
		return 0, 0, 0, false
	}
	gen = binary.BigEndian.Uint64(buf[0:])
	if gen == 0 || gen%2 != parity {
		return 0, 0, 0, false
	}
	return gen, binary.BigEndian.Uint64(buf[8:]), int64(binary.BigEndian.Uint64(buf[16:])), true
}

// scan walks the record chain from (lsn, off), stopping at the first record
// that fails validation — the torn tail. It returns the end offset, the
// last valid LSN (lsn-1 when the region is empty), and a mark per record.
// fn, when non-nil, is called with each valid record's LSN and payload.
func scan(b pager.BlockFile, lsn uint64, off, size int64, fn func(uint64, []byte) error) (int64, uint64, []mark, error) {
	var marks []mark
	expect := lsn
	for {
		if off+recHeaderLen > size {
			break
		}
		var hdr [recHeaderLen]byte
		if err := readFull(b, hdr[:], off); err != nil {
			break
		}
		length := int64(binary.BigEndian.Uint32(hdr[0:]))
		sum := binary.BigEndian.Uint32(hdr[4:])
		got := binary.BigEndian.Uint64(hdr[8:])
		if length > maxRecordLen || off+recHeaderLen+length > size {
			break
		}
		payload := make([]byte, length)
		if err := readFull(b, payload, off+recHeaderLen); err != nil {
			break
		}
		if crc32.Update(crc32.Checksum(hdr[8:16], castagnoli), castagnoli, payload) != sum {
			break
		}
		if got != expect {
			break
		}
		if fn != nil {
			if err := fn(got, payload); err != nil {
				return 0, 0, nil, err
			}
		}
		marks = append(marks, mark{lsn: expect, off: off})
		expect++
		off += recHeaderLen + length
	}
	return off, expect - 1, marks, nil
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

// WaitDurable blocks until the record with the given LSN is fsynced,
// kicking the group-commit daemon. Concurrent waiters coalesce: one flush
// satisfies every LSN it covers.
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

// daemon is the group-commit loop: woken by the first waiter, it optionally lingers MaxDelay to let more committers join, then
// writes and fsyncs everything pending in one batch.
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
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}

// flush writes and fsyncs every pending record as one batch. Only the
// daemon calls it, so batches hit the file in LSN order.
func (l *Log) flush() {
	l.mu.Lock()
	if len(l.buf) == 0 || l.failed != nil || l.truncating {
		l.mu.Unlock()
		return
	}
	data, recs := l.buf, l.bufRecs
	l.buf, l.bufRecs = nil, 0
	first := l.nextLSN - uint64(recs)
	last := l.nextLSN - 1
	off := l.writeOff
	l.writeOff += int64(len(data))
	l.marks = append(l.marks, mark{lsn: first, off: off})
	l.mu.Unlock()

	var err error
	if _, werr := l.b.WriteAt(data, off); werr != nil {
		err = werr
	} else if serr := l.b.Sync(); serr != nil {
		err = serr
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

// LiveBytes returns the bytes between the truncation point and the append
// head, including buffered unflushed records — the checkpoint-lag measure.
func (l *Log) LiveBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeOff - l.startOff + int64(len(l.buf))
}

// Stats snapshots the cumulative counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:      l.appends.Load(),
		Fsyncs:       l.fsyncs.Load(),
		Batches:      l.batches.Load(),
		BatchRecords: l.batchRecs.Load(),
		TruncSyncs:   l.truncSyncs.Load(),
	}
}

// Replay re-reads the durable log and calls fn for every record with
// LSN > from, in LSN order. It scans only what was on disk when the log
// was opened plus completed flushes; call it during recovery, before
// concurrent appends begin.
func (l *Log) Replay(from uint64, fn func(lsn uint64, payload []byte) error) error {
	l.mu.Lock()
	lsn, off, end := l.startLSN, l.startOff, l.writeOff
	l.mu.Unlock()
	_, _, _, err := scan(l.b, lsn, off, end, func(got uint64, payload []byte) error {
		if got <= from {
			return nil
		}
		return fn(got, payload)
	})
	return err
}

// TruncateTo logically discards every record with LSN <= lsn by committing
// a new truncation slot. Physical space is reclaimed at flushed-batch
// granularity, and fully — rewinding the write offset to the start of the
// file — once every appended record is both durable and covered by lsn.
// The caller must have made lsn durable in the state it is truncating
// toward (the checkpoint-LSN handshake): TruncateTo itself only ever runs
// after the manifest commit that published lsn.
func (l *Log) TruncateTo(lsn uint64) error {
	l.mu.Lock()
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return err
	}
	if lsn < l.startLSN {
		l.mu.Unlock()
		return nil
	}
	reset := len(l.buf) == 0 && l.durable == l.nextLSN-1 && lsn == l.durable
	var newLSN uint64
	var newOff int64
	if reset {
		// Pause flushes: nothing may land at the recycled offsets until
		// the new slot is durable, or a crash would recover the old slot
		// and lose fsynced records written over the old region.
		l.truncating = true
		newLSN, newOff = l.nextLSN, dataStart
	} else {
		// Keep the latest batch whose first record is still needed.
		idx := -1
		for i, m := range l.marks {
			if m.lsn <= lsn+1 {
				idx = i
			} else {
				break
			}
		}
		if idx < 0 {
			l.mu.Unlock()
			return nil
		}
		newLSN, newOff = l.marks[idx].lsn, l.marks[idx].off
		if newLSN == l.startLSN {
			l.mu.Unlock()
			return nil
		}
	}
	gen := l.slotGen + 1
	l.mu.Unlock()

	var err error
	if _, werr := l.b.WriteAt(encodeSlot(gen, newLSN, newOff), slotOff(gen)); werr != nil {
		err = werr
	} else if serr := l.b.Sync(); serr != nil {
		err = serr
	}

	l.mu.Lock()
	if err != nil {
		if l.failed == nil {
			l.failed = err
		}
		l.truncating = false
		l.cond.Broadcast()
		l.mu.Unlock()
		return err
	}
	l.truncSyncs.Add(1)
	l.slotGen, l.startLSN, l.startOff = gen, newLSN, newOff
	if reset {
		l.writeOff = dataStart
		l.marks = l.marks[:0]
		l.truncating = false
	} else {
		for len(l.marks) > 0 && l.marks[0].lsn < newLSN {
			l.marks = l.marks[1:]
		}
	}
	l.mu.Unlock()
	signal(l.kick) // appends may have queued behind the pause
	return nil
}

// Close flushes pending records, stops the group-commit daemon, and closes
// the backing file. Waiters still blocked are released with ErrClosed.
func (l *Log) Close() error {
	return l.close(true)
}

// Abandon stops the daemon without any further I/O and without closing the
// backing file — the crash-simulation teardown: the file is left exactly as
// the last completed operation left it.
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
	if !drain {
		// Make flush a no-op for the daemon's shutdown pass.
		l.truncating = true
	}
	l.mu.Unlock()
	close(l.stopc)
	<-l.done
	l.mu.Lock()
	err := l.failed
	l.cond.Broadcast()
	l.mu.Unlock()
	if !drain {
		return err
	}
	if cerr := l.b.Close(); err == nil {
		err = cerr
	}
	return err
}

func readFull(b pager.BlockFile, buf []byte, off int64) error {
	n, err := b.ReadAt(buf, off)
	if n == len(buf) {
		return nil
	}
	if err == nil {
		err = errors.New("short read")
	}
	return err
}
