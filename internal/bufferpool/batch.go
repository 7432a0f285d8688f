package bufferpool

import "repro/internal/pager"

// batchChunk bounds how many pages one batched admission brings in at once.
// The chunk is the pipelining grain of the prefetch path: frames for one
// chunk are reclaimed under the pool mutex, the chunk's batched read runs
// with the mutex released (hits on resident pages and unpins proceed
// unblocked), and decode of chunk N overlaps the I/O of chunk N+1.
const batchChunk = 16

// Prefetch loads the given pages into frames without pinning them — a
// speculative hint from a scan that knows its next-level frontier. Resident
// pages are skipped, misses are read with one ReadBatch per chunk (issued
// with the pool mutex released, so prefetch I/O never stalls foreground
// readers of resident pages), and failures are swallowed (the scan's own
// synchronous read will surface them). It returns the number of pages
// actually loaded. Prefetched frames are immediately evictable and are
// tracked by the PrefetchPages / PrefetchHits / PrefetchWasted counters.
func (p *Pool) Prefetch(ids []pager.PageID) int {
	loaded := 0
	for start := 0; start < len(ids); start += batchChunk {
		end := min(start+batchChunk, len(ids))
		loaded += p.admitChunk(ids[start:end])
	}
	return loaded
}

// admitChunk prefetches one chunk of pages (len(ids) <= batchChunk): frames
// are installed unpinned and evictable, and the return value counts the
// pages loaded.
//
// The batched backing read runs with the pool mutex released, so prefetch
// I/O never blocks concurrent hits on resident pages. The frames receiving
// the read are private — reclaimed but not yet published in the table, hence
// invisible to every other pool user — and the install pass reconciles them
// against whatever happened during the I/O window: a page that raced in
// through a concurrent reader keeps that reader's frame (ours is discarded
// unused), and a page whose backing bytes changed while the read was in
// flight (freed, re-allocated, written through, or written back — tracked in
// p.stale by noteStoreLocked) is never installed from the now-stale read.
// Failed and discarded positions are simply dropped.
func (p *Pool) admitChunk(ids []pager.PageID) int {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return 0
	}

	// Pass 1: skip resident pages and reclaim a private frame for every
	// distinct non-resident page.
	var readIDs []pager.PageID
	var readBufs [][]byte
	var readFrames []int
outer:
	for _, id := range ids {
		if _, ok := p.table[id]; ok {
			continue
		}
		for _, m := range readIDs {
			if m == id {
				continue outer
			}
		}
		fi, err := p.reclaimLocked()
		if err != nil {
			continue
		}
		if readIDs == nil { // first miss: size for the whole chunk
			readIDs = make([]pager.PageID, 0, len(ids))
			readBufs = make([][]byte, 0, len(ids))
			readFrames = make([]int, 0, len(ids))
		}
		readIDs = append(readIDs, id)
		readBufs = append(readBufs, p.frames[fi].buf)
		readFrames = append(readFrames, fi)
	}
	if len(readIDs) == 0 {
		p.mu.Unlock()
		return 0
	}

	// Pass 2: one batched read straight into the private frame buffers, with
	// the mutex released. p.inflight makes noteStoreLocked record every page
	// whose backing contents change during the window.
	p.inflight++
	p.mu.Unlock()
	p.stats.batchReads.Add(1)
	rerrs := pager.ReadPages(p.inner, readIDs, readBufs)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inflight--
	if p.closed {
		p.free = append(p.free, readFrames...)
		if p.inflight == 0 {
			clear(p.stale)
		}
		return 0
	}

	// Pass 3: install the loaded frames, reconciling against the window.
	loaded := 0
	for j, id := range readIDs {
		fi := readFrames[j]
		discard := false
		if rerrs != nil && rerrs[j] != nil {
			discard = true
		} else if _, resident := p.table[id]; resident {
			discard = true // raced in through a concurrent reader: its frame wins
		} else if _, changed := p.stale[id]; changed {
			discard = true // backing bytes changed mid-read: our copy is stale
		}
		if discard {
			p.free = append(p.free, fi)
			continue
		}
		p.stats.physicalReads.Add(1)
		p.stats.prefetchPages.Add(1)
		f := &p.frames[fi]
		f.id = id
		f.pins = 0
		f.dirty = false
		f.prefetched = true
		p.table[id] = fi
		p.rep.noteAccess(fi)
		p.rep.setEvictable(fi, true)
		loaded++
	}
	if p.inflight == 0 {
		clear(p.stale)
	}
	return loaded
}

// Reset writes dirty frames back and drops every unpinned frame — resident
// pages must be re-read from the backing file afterwards. Cold-cache
// benchmarks call this between iterations (paired with the disk files'
// DropOSCache); pinned frames survive untouched. Still-unused prefetched
// frames count as wasted. Like eviction, Reset does not sync the backing
// file: a sync is a durability point (FlushAll, Close), and a disk file
// publishes a new checkpoint generation on every one.
func (p *Pool) Reset() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if err := p.writeBackLocked(); err != nil {
		return err
	}
	for id, fi := range p.table {
		f := &p.frames[fi]
		if f.pins > 0 {
			continue
		}
		if f.prefetched {
			f.prefetched = false
			p.stats.prefetchWasted.Add(1)
		}
		delete(p.table, id)
		p.rep.remove(fi)
		f.dirty = false
		p.free = append(p.free, fi)
	}
	return nil
}
