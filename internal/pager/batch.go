package pager

import (
	"cmp"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"sync"
	"sync/atomic"
)

// BatchReader is implemented by page files that can serve several reads in
// one call. ReadBatch fills bufs[i] with the contents of page ids[i]; ids
// and bufs must have equal length and every buffer must be exactly
// PageSize() bytes. It returns nil when every sub-read succeeded, otherwise
// a slice of len(ids) holding the per-page error (nil for the pages that
// succeeded). A failed sub-read never affects its siblings: every page
// either carries its own typed error (ErrPageBounds, ErrFreed, ErrPageSize,
// ErrCorruptPage, or an I/O error) or valid verified contents.
type BatchReader interface {
	ReadBatch(ids []PageID, bufs [][]byte) []error
}

// ReadPages serves a batch of reads through f's ReadBatch when the file
// implements BatchReader, and by sequential Read calls otherwise. The
// return contract is that of BatchReader.ReadBatch.
func ReadPages(f File, ids []PageID, bufs [][]byte) []error {
	if br, ok := f.(BatchReader); ok {
		return br.ReadBatch(ids, bufs)
	}
	if len(ids) != len(bufs) {
		panic("pager: ReadPages ids/bufs length mismatch")
	}
	var errs []error
	for i, id := range ids {
		if err := f.Read(id, bufs[i]); err != nil {
			if errs == nil {
				errs = make([]error, len(ids))
			}
			errs[i] = err
		}
	}
	return errs
}

// ReadBatch implements BatchReader. All sub-reads are served under one lock
// acquisition; per-page validation matches Read exactly.
func (f *MemFile) ReadBatch(ids []PageID, bufs [][]byte) []error {
	if len(ids) != len(bufs) {
		panic("pager: ReadBatch ids/bufs length mismatch")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var errs []error
	for i, id := range ids {
		if err := f.check(id, bufs[i]); err != nil {
			if errs == nil {
				errs = make([]error, len(ids))
			}
			errs[i] = err
			continue
		}
		f.stats.Reads++
		copy(bufs[i], f.pages[id])
	}
	return errs
}

// ioRun is one contiguous read of the backing device into a scratch region.
type ioRun struct {
	off int64
	buf []byte
	pos []int // caller positions of the run's pages, in slot order
	err error // the bulk read's error, set by readRuns
}

// batchRunPages caps the length of one coalesced run so scratch stays
// bounded and long runs still pipeline through the parallel submitters.
const batchRunPages = 64

// ReadBatch implements BatchReader. Requested pages are sorted and coalesced
// into contiguous-slot runs, the runs are read with one preadv-sized I/O
// each — submitted in parallel through io_uring where available, a bounded
// goroutine pool otherwise — and every page is then CRC-verified
// individually, so a torn or corrupt slot fails only its own sub-read. A run
// whose bulk read fails is retried page by page to isolate the failing
// sub-read from its siblings. The sort order, the runs and the slot bytes
// live in scratch on d, reused under d.mu, so a batch that fails nowhere
// allocates nothing once the scratch has grown to its size.
func (d *DiskFile) ReadBatch(ids []PageID, bufs [][]byte) []error {
	if len(ids) != len(bufs) {
		panic("pager: ReadBatch ids/bufs length mismatch")
	}
	if len(ids) == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var errs []error
	fail := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(ids))
		}
		errs[i] = err
	}
	valid := d.bvalid[:0]
	for i, id := range ids {
		if len(bufs[i]) != d.pageSize {
			fail(i, ErrPageSize)
			continue
		}
		if err := d.checkID(id); err != nil {
			fail(i, err)
			continue
		}
		d.stats.Reads++
		valid = append(valid, i)
	}
	d.bvalid = valid
	if len(valid) == 0 {
		return errs
	}
	slices.SortFunc(valid, func(a, b int) int { return cmp.Compare(ids[a], ids[b]) })

	need := len(valid) * int(d.slotSize)
	if cap(d.batchBuf) < need {
		d.batchBuf = make([]byte, need)
	}
	scratch := d.batchBuf[:need]

	// Coalesce sorted pages into runs of contiguous slots. A duplicate id
	// is not prev+1, so it simply starts its own single-page run.
	runs := d.bruns[:0]
	for k := 0; k < len(valid); {
		start := k
		for k++; k < len(valid) &&
			k-start < batchRunPages &&
			ids[valid[k]] == ids[valid[k-1]]+1; k++ {
		}
		n := k - start
		off := int64(start) * d.slotSize
		runs = append(runs, ioRun{
			off: d.offset(ids[valid[start]]),
			buf: scratch[off : off+int64(n)*d.slotSize],
			pos: valid[start:k],
		})
	}
	d.bruns = runs

	d.readRuns(runs)
	for _, run := range runs {
		for k, i := range run.pos {
			slot := run.buf[int64(k)*d.slotSize:]
			if run.err != nil {
				// Bulk read failed: retry this page alone so the error
				// (or a late success) is attributed per sub-read.
				slot = slot[:d.pageSize+4]
				if err := ReadFull(d.b, slot, d.offset(ids[i])); err != nil {
					fail(i, err)
					continue
				}
			}
			sum := binary.BigEndian.Uint32(slot[d.pageSize : d.pageSize+4])
			if sum != crc32.Checksum(slot[:d.pageSize], castagnoli) {
				fail(i, ErrCorruptPage{ID: ids[i]})
				continue
			}
			copy(bufs[i], slot[:d.pageSize])
		}
	}
	return errs
}

// readRuns reads every run, setting each run's err. Multiple runs on an
// fd-backed device are submitted concurrently: io_uring when the ring is
// available, otherwise a bounded pool of goroutines whose blocking preads
// overlap in the kernel. Other devices (the fault-injection media) are read
// sequentially so their op schedules stay deterministic.
func (d *DiskFile) readRuns(runs []ioRun) {
	if len(runs) == 1 {
		runs[0].err = ReadFull(d.b, runs[0].buf, runs[0].off)
		return
	}
	if fd, ok := blockFd(d.b); ok {
		if uringReadRuns(fd, runs) {
			return
		}
		workers := min(4, len(runs))
		var next atomic.Int32
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(runs) {
						return
					}
					runs[i].err = ReadFull(d.b, runs[i].buf, runs[i].off)
				}
			}()
		}
		wg.Wait()
		return
	}
	for i := range runs {
		runs[i].err = ReadFull(d.b, runs[i].buf, runs[i].off)
	}
}

// blockFd reports the OS file descriptor behind a BlockFile, when it has
// one (osBlock does, via the embedded *os.File).
func blockFd(b BlockFile) (uintptr, bool) {
	f, ok := b.(interface{ Fd() uintptr })
	if !ok {
		return 0, false
	}
	return f.Fd(), true
}

// DropOSCache asks the kernel to evict this file's pages from the OS page
// cache (after an fsync, since only clean pages are dropped), so the next
// reads hit the block device. Cold-cache benchmarks call this between
// iterations; it is a hint and a no-op on devices without a descriptor or
// on platforms without posix_fadvise.
func (d *DiskFile) DropOSCache() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	fd, ok := blockFd(d.b)
	if !ok {
		return nil
	}
	if err := d.b.Sync(); err != nil {
		return err
	}
	return fadviseDontNeed(fd)
}
