package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// DiskFile is a crash-safe File backed by a BlockFile (normally an
// operating-system file). It combines three mechanisms:
//
//   - Checksummed pages. Every page slot on disk is the page payload
//     followed by a 12-byte sidecar trailer: a CRC32C of the payload and a
//     pair of free-list links alternating by generation parity. Read
//     verifies the checksum and returns
//     ErrCorruptPage instead of garbage. Because the checksum lives in the
//     sidecar, the page payload bytes are identical to an unchecksummed
//     file and the logical page counts reported by the experiments are
//     unchanged.
//
//   - Shadow-paged atomic checkpoints. Write and Alloc never overwrite a
//     page that is reachable from the last checkpoint (callers — the
//     copy-on-write B+-tree — write only freshly allocated pages), and
//     Free only lists a page in memory. Sync (a
//     checkpoint) fsyncs the data, then publishes the new file state by
//     committing the next generation of the header pair, a CommitSlots
//     record. A crash at any instant therefore recovers to exactly the
//     previous or the new checkpoint, never a mix.
//
//   - Recovery on open. OpenDiskFile elects the newest valid header slot
//     (or a pinned generation; see OpenDiskFileOnAt), adopts pages past
//     the checkpointed page count (orphaned shadow pages) into the pending
//     free list, and rebuilds the allocable free list by walking the
//     on-disk free chain. Structural damage — short or garbage headers, a
//     page count pointing past EOF, a broken free chain — reports
//     ErrCorruptFile.
//
// The header also carries a small application payload (SetPayload/Payload),
// published atomically with each checkpoint; the index layers store their
// root (meta page id) there so that a recovered file is self-describing.
type DiskFile struct {
	mu       sync.Mutex
	b        BlockFile
	pageSize int
	slotSize int64
	numPages int    // page slots in the checkpointed prefix, incl. slot 0
	gen      uint64 // generation of the last published header
	payload  []byte // application payload for the next checkpoint

	// Free pages fall in three lists. allocable pages are free in the last
	// two published generations, so reusing one damages neither the newest
	// checkpoint nor the one a manifest may roll back to (OpenDiskFileOnAt).
	// pending pages were freed (or found orphaned) since the last Sync and
	// waiting ones in the interval before it: the newest generation or its
	// predecessor still references them. Sync publishes the chain allocable,
	// waiting, pending, then moves waiting into allocable and pending into
	// waiting — a page freed after Sync g is reused only after Sync g+2.
	// fresh holds the pages allocated since the last Sync: no published
	// generation references them, so freeing one makes it allocable at once.
	allocable []PageID
	waiting   []PageID
	pending   []PageID
	free      map[PageID]struct{} // membership for all three lists
	fresh     map[PageID]struct{}

	stats Stats
	rbuf  []byte // payload+CRC scratch, guarded by mu

	// ReadBatch scratch, guarded by mu: the slot bytes, the caller
	// positions sorted by id and the coalesced runs.
	batchBuf []byte
	bvalid   []int
	bruns    []ioRun
}

// BlockFile is the byte-addressed device a DiskFile stores its page slots
// on. *os.File satisfies it via CreateDiskFile/OpenDiskFile;
// internal/faultfs provides an in-memory implementation with fault
// injection and power-cut simulation for crash testing.
type BlockFile interface {
	io.ReaderAt
	io.WriterAt
	// Sync forces previous writes to stable storage.
	Sync() error
	// Size reports the current length of the device in bytes.
	Size() (int64, error)
	Close() error
}

// ErrCorruptFile reports a page file whose structure cannot be trusted:
// truncated or garbage headers, geometry pointing past EOF, or a broken
// free-page chain. Errors from OpenDiskFile match it with errors.Is.
var ErrCorruptFile = errors.New("pager: corrupt page file")

// ErrCorruptPage reports a page whose stored checksum does not match its
// payload. Match with errors.As (or errors.Is against a value with the
// same ID).
type ErrCorruptPage struct{ ID PageID }

func (e ErrCorruptPage) Error() string {
	return fmt.Sprintf("pager: page %d failed checksum verification", e.ID)
}

const (
	diskMagic   = 0x55494458 // "UIDX"
	diskVersion = 2

	// Each header slot is 64 bytes, a 60-byte body and its CRC; the two
	// slots alternate by generation parity and both fit in page slot 0, so
	// the minimum page size is 128.
	headerSlotSize = 64
	headerBodySize = headerSlotSize - 4
	headerPairSize = 2 * headerSlotSize

	// Per-page sidecar trailer: 4-byte CRC32C of the payload, then TWO
	// 4-byte free-list links selected by generation parity (like the header
	// pair). A checkpoint threads its free chain through the links of the
	// incoming generation's parity only, so the chain of the still-committed
	// generation is never modified in place — a crash mid-checkpoint cannot
	// damage it, even when a page was recycled and freed again in between.
	slotTrailerSize = 12
	crcOff          = 0 // within the trailer

	// MaxPayload is the size limit for the application payload carried in
	// the checkpoint header.
	MaxPayload = 24

	// MinDiskPageSize is the smallest page size a DiskFile supports (the
	// header pair must fit in page slot 0).
	MinDiskPageSize = headerPairSize

	maxDiskPageSize = 1 << 24
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// linkOff returns the trailer offset of the free-list link belonging to
// generation gen (the slots alternate by parity).
func linkOff(gen uint64) int64 {
	return 4 + 4*int64(gen%2)
}

// header slot layout (big-endian):
//
//	[0:4)   magic "UIDX"
//	[4:8)   format version (2)
//	[8:16)  generation
//	[16:20) page size
//	[20:24) numPages (checkpointed page slots, incl. slot 0)
//	[24:28) free-list head
//	[28:32) free-list length
//	[32:33) payload length
//	[33:57) payload
//	[57:60) zero padding
//	[60:64) CRC32C of bytes [0:60), written by CommitSlots
type diskHeader struct {
	gen      uint64
	pageSize int
	numPages int
	freeHead PageID
	numFree  int
	payload  []byte
}

// headerSlots is the header pair of a page file as a commit record.
func headerSlots(b BlockFile) CommitSlots {
	return CommitSlots{B: b, Off: 0, Stride: headerSlotSize, GenAt: 8}
}

func encodeHeader(h diskHeader) []byte {
	b := make([]byte, headerBodySize, headerSlotSize)
	binary.BigEndian.PutUint32(b[0:], diskMagic)
	binary.BigEndian.PutUint32(b[4:], diskVersion)
	binary.BigEndian.PutUint64(b[8:], h.gen)
	binary.BigEndian.PutUint32(b[16:], uint32(h.pageSize))
	binary.BigEndian.PutUint32(b[20:], uint32(h.numPages))
	binary.BigEndian.PutUint32(b[24:], uint32(h.freeHead))
	binary.BigEndian.PutUint32(b[28:], uint32(h.numFree))
	b[32] = byte(len(h.payload))
	copy(b[33:33+MaxPayload], h.payload)
	return b
}

// decodeHeader parses an elected header body, returning ok=false when it is
// not a version-2 header (wrong magic or version, or nonsense geometry).
func decodeHeader(b []byte) (diskHeader, bool) {
	var h diskHeader
	if binary.BigEndian.Uint32(b[0:]) != diskMagic ||
		binary.BigEndian.Uint32(b[4:]) != diskVersion {
		return h, false
	}
	h.gen = binary.BigEndian.Uint64(b[8:])
	h.pageSize = int(binary.BigEndian.Uint32(b[16:]))
	h.numPages = int(binary.BigEndian.Uint32(b[20:]))
	h.freeHead = PageID(binary.BigEndian.Uint32(b[24:]))
	h.numFree = int(binary.BigEndian.Uint32(b[28:]))
	n := int(b[32])
	if n > MaxPayload {
		return h, false
	}
	h.payload = append([]byte(nil), b[33:33+n]...)
	if h.pageSize < MinDiskPageSize || h.pageSize > maxDiskPageSize ||
		h.numPages < 1 || h.numFree < 0 || h.numFree >= h.numPages {
		return h, false
	}
	return h, true
}

// CreateDiskFile creates (or truncates) a page file at path. pageSize <= 0
// selects DefaultPageSize; the minimum is MinDiskPageSize.
func CreateDiskFile(path string, pageSize int) (*DiskFile, error) {
	return OpenPath(path, true, func(b BlockFile) (*DiskFile, error) {
		return CreateDiskFileOn(b, pageSize)
	})
}

// CreateDiskFileOn initialises a page file on an arbitrary BlockFile, which
// must be empty (its prior contents are ignored and overwritten). The
// initial empty checkpoint is made durable before returning.
func CreateDiskFileOn(b BlockFile, pageSize int) (*DiskFile, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	if pageSize < MinDiskPageSize {
		return nil, fmt.Errorf("pager: page size %d too small (minimum %d)", pageSize, MinDiskPageSize)
	}
	if pageSize > maxDiskPageSize {
		return nil, fmt.Errorf("pager: page size %d too large", pageSize)
	}
	d := &DiskFile{
		b:        b,
		pageSize: pageSize,
		slotSize: int64(pageSize) + slotTrailerSize,
		numPages: 1,
		free:     make(map[PageID]struct{}),
		fresh:    make(map[PageID]struct{}),
		rbuf:     make([]byte, pageSize+4),
	}
	// Zero the whole of slot 0 first so the file always spans complete
	// slots, then publish generation 1 on top of it.
	if _, err := b.WriteAt(make([]byte, d.slotSize), 0); err != nil {
		return nil, err
	}
	if err := d.checkpointLocked(); err != nil {
		return nil, err
	}
	return d, nil
}

// OpenDiskFile opens an existing page file created by CreateDiskFile,
// recovering to its last durable checkpoint.
func OpenDiskFile(path string) (*DiskFile, error) {
	return OpenPath(path, false, OpenDiskFileOn)
}

// OpenDiskFileAt is OpenDiskFile pinned to an explicit generation; see
// OpenDiskFileOnAt.
func OpenDiskFileAt(path string, gen uint64) (*DiskFile, error) {
	return OpenPath(path, false, func(b BlockFile) (*DiskFile, error) {
		return OpenDiskFileOnAt(b, gen)
	})
}

// OpenDiskFileOn recovers a page file from an arbitrary BlockFile. It
// elects the newest valid header slot, adopts orphaned shadow pages written
// after that checkpoint into the pending free list, and rebuilds the
// allocable free list from the on-disk chain. Structural damage returns an
// error matching ErrCorruptFile.
func OpenDiskFileOn(b BlockFile) (*DiskFile, error) {
	return OpenDiskFileOnAt(b, 0)
}

// OpenDiskFileOnAt recovers a page file at an explicit header generation
// instead of the newest one — the rollback a shard manifest performs when a
// crash separated a shard's checkpoint from the manifest commit recording
// it. Opening at generation g is sound while the file's newest generation is
// at most g+1: Alloc preserves the committed generation's sidecar free
// links, a page freed after g is not reused before g+2 is published, and
// the next checkpoint from the reopened state publishes g+1 over the
// orphaned slot. The missing generation reports ErrCorruptFile. Generation
// 0 is never committed, so gen 0 opens the newest generation.
func OpenDiskFileOnAt(b BlockFile, gen uint64) (*DiskFile, error) {
	size, err := b.Size()
	if err != nil {
		return nil, err
	}
	if size < headerPairSize {
		return nil, fmt.Errorf("%w: file too short for header pair (%d bytes)", ErrCorruptFile, size)
	}
	body, ok := headerSlots(b).Elect(headerBodySize, gen)
	if !ok {
		if gen != 0 {
			return nil, fmt.Errorf("%w: no valid header for generation %d", ErrCorruptFile, gen)
		}
		return nil, fmt.Errorf("%w: no valid header (bad checksum or generation)", ErrCorruptFile)
	}
	hdr, ok := decodeHeader(body)
	if !ok {
		return nil, fmt.Errorf("%w: header generation %d has bad magic, version, or geometry",
			ErrCorruptFile, binary.BigEndian.Uint64(body[8:]))
	}
	d := &DiskFile{
		b:        b,
		pageSize: hdr.pageSize,
		slotSize: int64(hdr.pageSize) + slotTrailerSize,
		numPages: hdr.numPages,
		gen:      hdr.gen,
		payload:  hdr.payload,
		free:     make(map[PageID]struct{}),
		fresh:    make(map[PageID]struct{}),
		rbuf:     make([]byte, hdr.pageSize+4),
	}
	physPages := int(size / d.slotSize) // a torn tail slot is not a page
	if hdr.numPages > physPages {
		return nil, fmt.Errorf("%w: header page count %d exceeds file size (%d whole slots)",
			ErrCorruptFile, hdr.numPages, physPages)
	}
	// Walk the checkpointed free chain through the sidecar links. The
	// chain length is known, so a break, a cycle, or an out-of-range link
	// is detected rather than followed.
	cur := hdr.freeHead
	for i := 0; i < hdr.numFree; i++ {
		if cur == NilPage || int(cur) >= hdr.numPages {
			return nil, fmt.Errorf("%w: free chain link %d out of range at position %d", ErrCorruptFile, cur, i)
		}
		if _, dup := d.free[cur]; dup {
			return nil, fmt.Errorf("%w: cycle in free chain at page %d", ErrCorruptFile, cur)
		}
		d.free[cur] = struct{}{}
		d.allocable = append(d.allocable, cur)
		var link [4]byte
		if err := ReadFull(b, link[:], d.offset(cur)+int64(d.pageSize)+linkOff(hdr.gen)); err != nil {
			return nil, fmt.Errorf("%w: reading free link of page %d: %v", ErrCorruptFile, cur, err)
		}
		cur = PageID(binary.BigEndian.Uint32(link[:]))
	}
	if cur != NilPage {
		return nil, fmt.Errorf("%w: free chain longer than header count %d", ErrCorruptFile, hdr.numFree)
	}
	// Page slots past the checkpointed count are shadow pages from an
	// interrupted checkpoint. Reclaim them — but only through pending, as
	// their sidecar links were never committed.
	for id := hdr.numPages; id < physPages; id++ {
		d.numPages++
		d.pending = append(d.pending, PageID(id))
		d.free[PageID(id)] = struct{}{}
	}
	return d, nil
}

// PageSize implements File.
func (d *DiskFile) PageSize() int { return d.pageSize }

func (d *DiskFile) offset(id PageID) int64 {
	return int64(id) * d.slotSize
}

func (d *DiskFile) checkID(id PageID) error {
	if id == NilPage || int(id) >= d.numPages {
		return fmt.Errorf("%w: %d", ErrPageBounds, id)
	}
	if _, isFree := d.free[id]; isFree {
		return fmt.Errorf("%w: %d", ErrFreed, id)
	}
	return nil
}

// Alloc implements File. Only allocable pages are recycled — free in the
// last two published generations, or allocated and freed since the last
// Sync — so that recovery, or a rollback by one generation, never finds
// them overwritten.
func (d *DiskFile) Alloc() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Allocs++
	zero := d.rbuf[:d.pageSize+4]
	for i := range zero {
		zero[i] = 0
	}
	binary.BigEndian.PutUint32(zero[d.pageSize:], crc32.Checksum(zero[:d.pageSize], castagnoli))
	if len(d.allocable) > 0 {
		id := d.allocable[0]
		// Write payload+CRC only, preserving the sidecar link: the page
		// stays on the durable free chain until the next checkpoint.
		if _, err := d.b.WriteAt(zero, d.offset(id)); err != nil {
			return NilPage, err
		}
		d.allocable = d.allocable[1:]
		delete(d.free, id)
		d.fresh[id] = struct{}{}
		return id, nil
	}
	id := PageID(d.numPages)
	// Appended pages get a full slot (zero link included) so the file
	// always spans complete slots.
	slot := make([]byte, d.slotSize)
	copy(slot, zero)
	if _, err := d.b.WriteAt(slot, d.offset(id)); err != nil {
		return NilPage, err
	}
	d.numPages++
	d.fresh[id] = struct{}{}
	return id, nil
}

// Read implements File. The payload checksum is verified before any byte
// is copied out; a mismatch returns ErrCorruptPage.
func (d *DiskFile) Read(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(buf) != d.pageSize {
		return ErrPageSize
	}
	if err := d.checkID(id); err != nil {
		return err
	}
	d.stats.Reads++
	if err := ReadFull(d.b, d.rbuf, d.offset(id)); err != nil {
		return fmt.Errorf("pager: reading page %d: %w", id, err)
	}
	sum := binary.BigEndian.Uint32(d.rbuf[d.pageSize:])
	if sum != crc32.Checksum(d.rbuf[:d.pageSize], castagnoli) {
		return ErrCorruptPage{ID: id}
	}
	copy(buf, d.rbuf[:d.pageSize])
	return nil
}

// Write implements File. The payload and its checksum are written together;
// the sidecar link bytes are left untouched.
func (d *DiskFile) Write(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(buf) != d.pageSize {
		return ErrPageSize
	}
	if err := d.checkID(id); err != nil {
		return err
	}
	d.stats.Writes++
	copy(d.rbuf, buf)
	binary.BigEndian.PutUint32(d.rbuf[d.pageSize:], crc32.Checksum(buf, castagnoli))
	_, err := d.b.WriteAt(d.rbuf, d.offset(id))
	return err
}

// Free implements File. The page is only listed in memory; nothing is
// written until the next Sync publishes the extended free list, so freeing
// can never damage the state a crash would recover to. A page allocated
// since the last Sync is allocable again at once; any other waits two Syncs.
func (d *DiskFile) Free(id PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id == NilPage || int(id) >= d.numPages {
		return fmt.Errorf("%w: %d", ErrPageBounds, id)
	}
	if _, isFree := d.free[id]; isFree {
		return fmt.Errorf("%w: %d", ErrFreed, id)
	}
	d.stats.Frees++
	d.free[id] = struct{}{}
	if _, ok := d.fresh[id]; ok {
		delete(d.fresh, id)
		d.allocable = append(d.allocable, id)
		return nil
	}
	d.pending = append(d.pending, id)
	return nil
}

// NumPages implements File.
func (d *DiskFile) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.numPages - 1 - len(d.free)
}

// Stats implements File.
func (d *DiskFile) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// SetPayload stages up to MaxPayload bytes of application state to be
// published atomically with the next checkpoint. The index layers store
// their root (meta page id) here so a recovered file is self-describing.
func (d *DiskFile) SetPayload(p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(p) > MaxPayload {
		return fmt.Errorf("pager: payload %d bytes exceeds maximum %d", len(p), MaxPayload)
	}
	d.payload = append(d.payload[:0], p...)
	return nil
}

// Payload returns a copy of the application payload recovered from (or
// staged for) the current checkpoint.
func (d *DiskFile) Payload() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]byte(nil), d.payload...)
}

// Generation returns the generation number of the last published
// checkpoint header. It increases by one per successful Sync.
func (d *DiskFile) Generation() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gen
}

// Sync checkpoints the file: it links the free pages into one on-disk chain,
// fsyncs all data written so far, and commits a new header generation
// (geometry, free list, payload) into the inactive slot of the header pair. After Sync returns
// nil the current state survives a crash; if it returns an error the
// previous checkpoint remains intact and recoverable.
func (d *DiskFile) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.checkpointLocked()
}

// Checkpoint is SetPayload followed by Sync under one lock.
func (d *DiskFile) Checkpoint(payload []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(payload) > MaxPayload {
		return fmt.Errorf("pager: payload %d bytes exceeds maximum %d", len(payload), MaxPayload)
	}
	d.payload = append(d.payload[:0], payload...)
	return d.checkpointLocked()
}

func (d *DiskFile) checkpointLocked() error {
	// The new free chain is allocable, then waiting, then pending, so a
	// reopened file allocates in the order this one will. It is threaded
	// through the link slots of the NEW generation's parity, leaving the
	// committed generation's chain untouched on disk — so these writes are
	// safe at any crash point, even for a page that sat on the committed
	// chain, was recycled, and was freed again since.
	chain := make([]PageID, 0, len(d.allocable)+len(d.waiting)+len(d.pending))
	chain = append(chain, d.allocable...)
	chain = append(chain, d.waiting...)
	chain = append(chain, d.pending...)
	var link [4]byte
	for i, id := range chain {
		next := NilPage
		if i+1 < len(chain) {
			next = chain[i+1]
		}
		binary.BigEndian.PutUint32(link[:], uint32(next))
		if _, err := d.b.WriteAt(link[:], d.offset(id)+int64(d.pageSize)+linkOff(d.gen+1)); err != nil {
			return fmt.Errorf("pager: writing free link of page %d: %w", id, err)
		}
	}
	// First barrier: all page payloads, checksums and links are durable
	// before any header points at them.
	if err := d.b.Sync(); err != nil {
		return err
	}
	hdr := diskHeader{
		gen:      d.gen + 1,
		pageSize: d.pageSize,
		numPages: d.numPages,
		numFree:  len(chain),
		freeHead: NilPage,
		payload:  d.payload,
	}
	if len(chain) > 0 {
		hdr.freeHead = chain[0]
	}
	// Second barrier: the header commit makes the new generation durable.
	// Only now do the waiting pages become allocable, the pending ones
	// waiting.
	if err := headerSlots(d.b).Commit(encodeHeader(hdr)); err != nil {
		return fmt.Errorf("pager: committing header: %w", err)
	}
	d.gen = hdr.gen
	n := len(d.allocable) + len(d.waiting)
	d.allocable = chain[:n:n]
	d.waiting = chain[n:]
	d.pending = nil
	clear(d.fresh)
	return nil
}

// CloseDiscard closes the backing file without checkpointing: work since
// the last Sync is discarded, and the file keeps its last durable
// checkpoint. Callers that stage a payload but fail mid-protocol use this
// to avoid publishing a header whose payload no longer matches the pages.
func (d *DiskFile) CloseDiscard() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.b.Close()
}

// Close implements File. It checkpoints before closing, so a nil return
// means the current state is durable on disk.
func (d *DiskFile) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkpointLocked(); err != nil {
		d.b.Close()
		return err
	}
	return d.b.Close()
}
