package pager

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
)

// Manifest is the commit record that roots an on-disk index (and, with one
// slot for the store snapshot, a WAL database): a tiny BlockFile that
// atomically publishes one generation number per shard file, plus the
// immutable shard routing bounds. It turns K independently shadow-paged
// DiskFiles — K may be 1, with no bounds — into one crash-consistent unit:
//
//   - Each shard file checkpoints on its own (Sync), which bumps that file's
//     header generation. A crash between two shards' checkpoints would
//     otherwise recover the shards at different logical points.
//
//   - After every group of shard checkpoints, Commit writes the vector of
//     shard generations as the next generation of a CommitSlots record.
//     Recovery elects the newest valid slot and reopens every shard file
//     pinned AT its recorded generation (OpenDiskFileOnAt), rolling back any
//     shard whose checkpoint made it to disk without the manifest commit
//     that would have published it.
//
//   - This is sound because checkpoints are serialized and each syncs a
//     shard file at most once before the Commit that records it: a shard
//     file's newest generation leads its manifest-recorded generation by at
//     most one, which is exactly the rollback window OpenDiskFileOnAt
//     supports. Writers may run between a shard's checkpoint and the Commit
//     (the WAL checkpointer releases each shard's lock in between); they
//     cannot damage the recorded generation, because a DiskFile reuses a
//     freed page only once two later generations are published.
//
// The file layout is fault-injection friendly (no rename tricks, works on a
// raw BlockFile): a checksummed preamble at offset 0 carrying the shard
// count and routing bounds, then the two commit cells at offsets 512 and
// 1024, selected by generation parity. Torn writes hit only the cell being
// written; the other cell stays valid.
type Manifest struct {
	mu     sync.Mutex
	b      BlockFile
	shards int
	bounds [][]byte
	gen    uint64   // generation of the last durable slot
	gens   []uint64 // shard generations of that slot
	walLSN uint64   // checkpoint LSN of that slot
}

const (
	manifestMagic = 0x5549584d // "UIXM"
	// manifestVersion is the one format this package reads and writes: each
	// commit slot carries the 8-byte checkpoint LSN (the WAL handshake). Any
	// other value in a preamble is corruption.
	manifestVersion = 2

	// MaxShards bounds the shard count so a slot (8-byte slot generation,
	// 8-byte checkpoint LSN, 8 bytes per shard generation, 4-byte CRC) fits
	// in its 512-byte cell.
	MaxShards = 61

	manifestSlot0Off = 512
	manifestSlotSize = 512
)

// slotBodyLen is the byte length of one commit slot's body: slot
// generation, checkpoint LSN, one generation per shard. CommitSlots appends
// the CRC.
func slotBodyLen(shards int) int { return 8 + 8 + 8*shards }

func manifestSlots(b BlockFile) CommitSlots {
	return CommitSlots{B: b, Off: manifestSlot0Off, Stride: manifestSlotSize}
}

// CreateManifestOn initializes a manifest on an empty BlockFile: it writes
// the preamble for len(gens) shards with the given routing bounds
// (len(bounds) must be len(gens)-1), commits the initial shard-generation
// vector as slot generation 1, and syncs. Bounds longer than the preamble
// cell (512 bytes total) are rejected.
func CreateManifestOn(b BlockFile, bounds [][]byte, gens []uint64) (*Manifest, error) {
	shards := len(gens)
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("pager: manifest shard count %d out of range [1,%d]", shards, MaxShards)
	}
	if len(bounds) != shards-1 {
		return nil, fmt.Errorf("pager: manifest has %d bounds for %d shards (want %d)",
			len(bounds), shards, shards-1)
	}
	pre := make([]byte, 0, manifestSlot0Off)
	pre = binary.BigEndian.AppendUint32(pre, manifestMagic)
	pre = binary.BigEndian.AppendUint32(pre, manifestVersion)
	pre = binary.BigEndian.AppendUint32(pre, uint32(shards))
	pre = binary.BigEndian.AppendUint32(pre, uint32(len(bounds)))
	for _, bd := range bounds {
		if len(bd) > 0xffff {
			return nil, fmt.Errorf("pager: manifest bound of %d bytes too long", len(bd))
		}
		pre = binary.BigEndian.AppendUint16(pre, uint16(len(bd)))
		pre = append(pre, bd...)
	}
	pre = binary.BigEndian.AppendUint32(pre, crc32.Checksum(pre, castagnoli))
	if len(pre) > manifestSlot0Off {
		return nil, fmt.Errorf("pager: manifest preamble %d bytes exceeds %d (bounds too long)",
			len(pre), manifestSlot0Off)
	}
	// Zero the whole fixed region first so the file spans complete cells
	// and a stale slot from a recycled file can never decode as valid.
	if _, err := b.WriteAt(make([]byte, manifestSlot0Off+2*manifestSlotSize), 0); err != nil {
		return nil, err
	}
	if _, err := b.WriteAt(pre, 0); err != nil {
		return nil, err
	}
	m := &Manifest{b: b, shards: shards, bounds: cloneBounds(bounds)}
	if err := m.Commit(gens); err != nil {
		return nil, err
	}
	return m, nil
}

// OpenManifestOn recovers a manifest: it validates the preamble and elects
// the newest valid commit slot. A damaged preamble or no valid slot reports
// an error matching ErrCorruptFile.
func OpenManifestOn(b BlockFile) (*Manifest, error) {
	size, err := b.Size()
	if err != nil {
		return nil, err
	}
	if size < manifestSlot0Off+2*manifestSlotSize {
		return nil, fmt.Errorf("%w: manifest too short (%d bytes)", ErrCorruptFile, size)
	}
	var pre [manifestSlot0Off]byte
	if err := ReadFull(b, pre[:], 0); err != nil {
		return nil, fmt.Errorf("%w: reading manifest preamble: %v", ErrCorruptFile, err)
	}
	if binary.BigEndian.Uint32(pre[0:]) != manifestMagic {
		return nil, fmt.Errorf("%w: bad manifest magic", ErrCorruptFile)
	}
	if v := binary.BigEndian.Uint32(pre[4:]); v != manifestVersion {
		return nil, fmt.Errorf("%w: manifest format %d, want %d", ErrCorruptFile, v, manifestVersion)
	}
	shards := int(binary.BigEndian.Uint32(pre[8:]))
	nbounds := int(binary.BigEndian.Uint32(pre[12:]))
	if shards < 1 || shards > MaxShards || nbounds != shards-1 {
		return nil, fmt.Errorf("%w: manifest geometry %d shards / %d bounds", ErrCorruptFile, shards, nbounds)
	}
	off := 16
	bounds := make([][]byte, 0, nbounds)
	for i := 0; i < nbounds; i++ {
		if off+2 > len(pre) {
			return nil, fmt.Errorf("%w: manifest bound %d past preamble cell", ErrCorruptFile, i)
		}
		n := int(binary.BigEndian.Uint16(pre[off:]))
		off += 2
		if off+n > len(pre) {
			return nil, fmt.Errorf("%w: manifest bound %d past preamble cell", ErrCorruptFile, i)
		}
		bounds = append(bounds, append([]byte(nil), pre[off:off+n]...))
		off += n
	}
	if off+4 > len(pre) {
		return nil, fmt.Errorf("%w: manifest preamble overflows its cell", ErrCorruptFile)
	}
	if binary.BigEndian.Uint32(pre[off:]) != crc32.Checksum(pre[:off], castagnoli) {
		return nil, fmt.Errorf("%w: manifest preamble failed checksum verification", ErrCorruptFile)
	}
	m := &Manifest{b: b, shards: shards, bounds: bounds}
	body, ok := manifestSlots(b).Elect(slotBodyLen(shards), 0)
	if !ok {
		return nil, fmt.Errorf("%w: manifest has no valid commit slot", ErrCorruptFile)
	}
	m.gen = binary.BigEndian.Uint64(body)
	m.walLSN = binary.BigEndian.Uint64(body[8:])
	m.gens = make([]uint64, shards)
	for i := range m.gens {
		m.gens[i] = binary.BigEndian.Uint64(body[16+8*i:])
	}
	return m, nil
}

// CreateManifestFile creates path (truncating any previous contents) and
// initializes a manifest on it.
func CreateManifestFile(path string, bounds [][]byte, gens []uint64) (*Manifest, error) {
	return OpenPath(path, true, func(b BlockFile) (*Manifest, error) {
		return CreateManifestOn(b, bounds, gens)
	})
}

// OpenManifestFile opens an existing manifest file.
func OpenManifestFile(path string) (*Manifest, error) {
	return OpenPath(path, false, OpenManifestOn)
}

// Commit atomically publishes a new shard-generation vector: it commits the
// next slot generation, and only then advances the in-memory generation.
// A crash anywhere in between leaves the previous commit intact. The
// checkpoint LSN carried by the slot is preserved from the last commit.
func (m *Manifest) Commit(gens []uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.commitLocked(gens, m.walLSN)
}

// CommitWAL publishes a new shard-generation vector together with a new
// checkpoint LSN: every WAL record with an LSN at or below it is fully
// reflected in the committed shard generations, so recovery replays the
// log strictly after it.
func (m *Manifest) CommitWAL(gens []uint64, walLSN uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.commitLocked(gens, walLSN)
}

func (m *Manifest) commitLocked(gens []uint64, walLSN uint64) error {
	if len(gens) != m.shards {
		return fmt.Errorf("pager: manifest commit with %d generations for %d shards", len(gens), m.shards)
	}
	next := m.gen + 1
	buf := make([]byte, 0, slotBodyLen(m.shards)+4)
	buf = binary.BigEndian.AppendUint64(buf, next)
	buf = binary.BigEndian.AppendUint64(buf, walLSN)
	for _, g := range gens {
		buf = binary.BigEndian.AppendUint64(buf, g)
	}
	if err := manifestSlots(m.b).Commit(buf); err != nil {
		return err
	}
	m.gen = next
	m.walLSN = walLSN
	m.gens = append(m.gens[:0], gens...)
	return nil
}

// WALLSN returns the checkpoint LSN of the last durable commit: zero for
// databases that have never checkpointed against a WAL.
func (m *Manifest) WALLSN() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.walLSN
}

// Shards returns the shard count the manifest was created with.
func (m *Manifest) Shards() int { return m.shards }

// Bounds returns the routing bounds (len = Shards()-1) recorded at creation;
// like the shard count they never change, so no lock is taken.
func (m *Manifest) Bounds() [][]byte { return cloneBounds(m.bounds) }

// Gen returns the manifest's own commit generation.
func (m *Manifest) Gen() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gen
}

// Gens returns the last committed per-shard generation vector — the
// generations recovery must reopen the shard files at.
func (m *Manifest) Gens() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]uint64(nil), m.gens...)
}

// Close closes the underlying BlockFile.
func (m *Manifest) Close() error {
	return m.b.Close()
}

func cloneBounds(bounds [][]byte) [][]byte {
	out := make([][]byte, len(bounds))
	for i, bd := range bounds {
		out[i] = append([]byte(nil), bd...)
	}
	return out
}
