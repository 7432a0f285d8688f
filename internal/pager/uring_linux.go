//go:build linux && !nouring

// io_uring batch-read backend. ReadBatch submits every coalesced run of a
// batch as one ring submission, so the kernel services the reads with real
// queue depth instead of one serial pread per run. Everything here is raw
// syscalls over the stable io_uring ABI — no cgo, no external packages. The
// ring is probed once at first use; if io_uring is unavailable (old kernel,
// seccomp filter, kernel.io_uring_disabled) the probe fails permanently and
// callers fall back to the portable bounded-goroutine pool in batch.go. The
// `nouring` build tag forces that fallback at compile time.
package pager

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

const (
	sysIoUringSetup = 425
	sysIoUringEnter = 426

	ioringOffSqRing = 0x0
	ioringOffCqRing = 0x8000000
	ioringOffSqes   = 0x10000000

	ioringEnterGetevents = 1 << 0
	ioringOpRead         = 22 // IORING_OP_READ, kernel >= 5.6
	ioringFeatSingleMmap = 1 << 0

	uringEntries = 64
)

// Mirrors of struct io_sqring_offsets / io_cqring_offsets / io_uring_params
// from <linux/io_uring.h>.
type sqringOffsets struct {
	head, tail, ringMask, ringEntries, flags, dropped, array, resv1 uint32
	userAddr                                                        uint64
}

type cqringOffsets struct {
	head, tail, ringMask, ringEntries, overflow, cqes, flags, resv1 uint32
	userAddr                                                        uint64
}

type uringParams struct {
	sqEntries, cqEntries, flags, sqThreadCPU, sqThreadIdle, features, wqFd uint32
	resv                                                                   [3]uint32
	sqOff                                                                  sqringOffsets
	cqOff                                                                  cqringOffsets
}

// uringSqe is struct io_uring_sqe (64 bytes).
type uringSqe struct {
	opcode   uint8
	flags    uint8
	ioprio   uint16
	fd       int32
	off      uint64
	addr     uint64
	len      uint32
	rwFlags  uint32
	userData uint64
	pad      [3]uint64
}

// uringCqe is struct io_uring_cqe (16 bytes).
type uringCqe struct {
	userData uint64
	res      int32
	flags    uint32
}

// uring is one mmapped submission/completion ring pair. A single
// process-wide ring is shared by every DiskFile and serialized by mu:
// batches are infrequent enough that ring contention is negligible next to
// the I/O itself.
type uring struct {
	mu      sync.Mutex
	fd      int
	entries uint32

	sqHead, sqTail, sqMask *uint32
	cqHead, cqTail, cqMask *uint32
	sqArray                []uint32
	sqes                   []uringSqe
	cqes                   []uringCqe
}

var (
	ringOnce sync.Once
	ring     *uring
)

func setupRing() *uring {
	var p uringParams
	fd, _, errno := syscall.Syscall(sysIoUringSetup, uringEntries, uintptr(unsafe.Pointer(&p)), 0)
	if errno != 0 {
		return nil
	}
	r := &uring{fd: int(fd), entries: p.sqEntries}
	sqSize := int(p.sqOff.array + p.sqEntries*4)
	cqSize := int(p.cqOff.cqes + p.cqEntries*uint32(unsafe.Sizeof(uringCqe{})))
	var sqMap, cqMap []byte
	var err error
	if p.features&ioringFeatSingleMmap != 0 {
		size := max(sqSize, cqSize)
		sqMap, err = syscall.Mmap(int(fd), ioringOffSqRing, size,
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE)
		if err != nil {
			syscall.Close(int(fd))
			return nil
		}
		cqMap = sqMap
	} else {
		sqMap, err = syscall.Mmap(int(fd), ioringOffSqRing, sqSize,
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE)
		if err != nil {
			syscall.Close(int(fd))
			return nil
		}
		cqMap, err = syscall.Mmap(int(fd), ioringOffCqRing, cqSize,
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE)
		if err != nil {
			syscall.Munmap(sqMap)
			syscall.Close(int(fd))
			return nil
		}
	}
	sqesMap, err := syscall.Mmap(int(fd), ioringOffSqes,
		int(p.sqEntries)*int(unsafe.Sizeof(uringSqe{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE)
	if err != nil {
		syscall.Munmap(sqMap)
		if p.features&ioringFeatSingleMmap == 0 {
			syscall.Munmap(cqMap)
		}
		syscall.Close(int(fd))
		return nil
	}
	r.sqHead = (*uint32)(unsafe.Pointer(&sqMap[p.sqOff.head]))
	r.sqTail = (*uint32)(unsafe.Pointer(&sqMap[p.sqOff.tail]))
	r.sqMask = (*uint32)(unsafe.Pointer(&sqMap[p.sqOff.ringMask]))
	r.sqArray = unsafe.Slice((*uint32)(unsafe.Pointer(&sqMap[p.sqOff.array])), p.sqEntries)
	r.sqes = unsafe.Slice((*uringSqe)(unsafe.Pointer(&sqesMap[0])), p.sqEntries)
	r.cqHead = (*uint32)(unsafe.Pointer(&cqMap[p.cqOff.head]))
	r.cqTail = (*uint32)(unsafe.Pointer(&cqMap[p.cqOff.tail]))
	r.cqMask = (*uint32)(unsafe.Pointer(&cqMap[p.cqOff.ringMask]))
	r.cqes = unsafe.Slice((*uringCqe)(unsafe.Pointer(&cqMap[p.cqOff.cqes])), p.cqEntries)
	// Smoke-test one no-op enter so a seccomp filter that allows setup but
	// blocks enter is caught at probe time, not per batch.
	if _, errno := uringEnter(int(fd), 0, 0, 0); errno != 0 {
		syscall.Munmap(sqesMap)
		syscall.Munmap(sqMap)
		if p.features&ioringFeatSingleMmap == 0 {
			syscall.Munmap(cqMap)
		}
		syscall.Close(int(fd))
		return nil
	}
	return r
}

// UringAvailable reports whether batched reads go through io_uring in this
// process (build not tagged nouring, kernel support present, probe passed).
func UringAvailable() bool {
	ringOnce.Do(func() { ring = setupRing() })
	return ring != nil
}

// uringEnter invokes io_uring_enter, retrying EINTR (liburing behavior: a
// signal — SIGPROF, SIGURG from the Go runtime — landing during submit or
// wait is not a failure of the batch).
func uringEnter(fd int, toSubmit, minComplete uint32, flags uintptr) (int, syscall.Errno) {
	for {
		got, _, errno := syscall.Syscall6(sysIoUringEnter,
			uintptr(fd), uintptr(toSubmit), uintptr(minComplete), flags, 0, 0)
		if errno != syscall.EINTR {
			return int(got), errno
		}
	}
}

// reap consumes exactly want completions from the CQ ring, recording
// per-run errors through the CQE userData (a global index into runs).
// It never returns with completions outstanding: an in-flight read owns its
// scratch buffer, and returning early would let the kernel write into
// memory the next batch (or the GC) reuses. If the blocking wait itself
// fails, the loop degrades to polling the ring — the reads are already
// submitted I/O and complete on their own.
func (r *uring) reap(want int, runs []ioRun) {
	for reaped := 0; reaped < want; {
		head := atomic.LoadUint32(r.cqHead)
		cqTail := atomic.LoadUint32(r.cqTail)
		for head != cqTail && reaped < want {
			cqe := r.cqes[head&*r.cqMask]
			i := int(cqe.userData)
			switch {
			case cqe.res < 0:
				runs[i].err = syscall.Errno(-cqe.res)
			case int(cqe.res) != len(runs[i].buf):
				runs[i].err = io.ErrUnexpectedEOF
			}
			head++
			reaped++
		}
		atomic.StoreUint32(r.cqHead, head)
		if reaped < want {
			if _, errno := uringEnter(r.fd, 0, uint32(want-reaped), ioringEnterGetevents); errno != 0 {
				runtime.Gosched()
			}
		}
	}
}

// uringReadRuns reads every run through the shared ring, setting each run's
// err, and reports false (leaving the runs untouched) when the ring is
// unavailable so the caller can fall back to the portable path. On every
// path the ring is left quiescent: all submitted reads are reaped before
// returning, and unconsumed SQEs are rewound so a later call can never
// resubmit entries whose buffers died with this one.
func uringReadRuns(fd uintptr, runs []ioRun) bool {
	if !UringAvailable() {
		return false
	}
	r := ring
	r.mu.Lock()
	defer r.mu.Unlock()
	defer runtime.KeepAlive(runs)
	for submitted := 0; submitted < len(runs); {
		n := min(len(runs)-submitted, int(r.entries))
		tail := atomic.LoadUint32(r.sqTail)
		for i := 0; i < n; i++ {
			run := &runs[submitted+i]
			idx := (tail + uint32(i)) & *r.sqMask
			r.sqes[idx] = uringSqe{
				opcode:   ioringOpRead,
				fd:       int32(fd),
				off:      uint64(run.off),
				addr:     uint64(uintptr(unsafe.Pointer(&run.buf[0]))),
				len:      uint32(len(run.buf)),
				userData: uint64(submitted + i),
			}
			r.sqArray[idx] = idx
		}
		atomic.StoreUint32(r.sqTail, tail+uint32(n))
		accepted, errno := uringEnter(r.fd, uint32(n), uint32(n), ioringEnterGetevents)
		if errno != 0 {
			// enter reports an errno only when it consumed no SQEs (once
			// anything was submitted it returns the count instead), but
			// trust the ring head over that contract: reap whatever was
			// consumed, rewind the tail over the rest so the kernel never
			// sees those stale entries, and fail the unsubmitted runs.
			consumed := int(atomic.LoadUint32(r.sqHead) - tail)
			if consumed > 0 {
				r.reap(consumed, runs)
			}
			atomic.StoreUint32(r.sqTail, atomic.LoadUint32(r.sqHead))
			for i := submitted + consumed; i < len(runs); i++ {
				runs[i].err = errno
			}
			return true
		}
		// The wait half of enter can be cut short by a signal even when
		// submission succeeded (the syscall then reports the submit count);
		// reap blocks until every accepted read has actually completed.
		r.reap(accepted, runs)
		if accepted < n {
			// Short submit: rewind the tail over the unconsumed SQEs and
			// fail their runs — the caller's per-page retry recovers them.
			atomic.StoreUint32(r.sqTail, atomic.LoadUint32(r.sqHead))
			for i := submitted + accepted; i < len(runs); i++ {
				runs[i].err = io.ErrShortBuffer
			}
			return true
		}
		submitted += n
	}
	return true
}
