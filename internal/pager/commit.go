package pager

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// CommitSlots is the one commit record of the engine: two cells of a
// BlockFile that alternate by generation parity. Commit writes generation g's
// body followed by its CRC32C into cell g%2 and syncs, so a torn or lost
// write can only damage the cell being written and the previous commit stays
// readable. Elect recovers the newest valid cell, or the one at a pinned
// generation. The page file's header pair, the manifest's commit slots and
// the write-ahead log's truncation slots are all CommitSlots; each keeps its
// own body layout, with the generation as a big-endian uint64 at GenAt.
type CommitSlots struct {
	B      BlockFile
	Off    int64 // offset of cell 0
	Stride int64 // distance from cell 0 to cell 1
	GenAt  int   // offset of the 8-byte generation within a body
}

// Commit publishes body as the generation it carries: body‖CRC32C(body) is
// written into that generation's cell, then the file is synced. A nil return
// means the commit is durable; body may be appended to.
func (s CommitSlots) Commit(body []byte) error {
	gen := binary.BigEndian.Uint64(body[s.GenAt:])
	cell := binary.BigEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
	if _, err := s.B.WriteAt(cell, s.Off+int64(gen%2)*s.Stride); err != nil {
		return err
	}
	return s.B.Sync()
}

// Elect reads both cells, each n body bytes plus the CRC, and returns the
// body of the cell to recover: the one at generation pin, or the newest when
// pin is 0. A cell counts only if it can be read, its CRC holds, and its
// generation is nonzero and has the cell's parity — commits never write a
// generation anywhere else, so a cell that breaks any of these is damage.
// ok is false when no cell qualifies.
func (s CommitSlots) Elect(n int, pin uint64) (body []byte, ok bool) {
	var best uint64
	for parity := uint64(0); parity < 2; parity++ {
		cell := make([]byte, n+4)
		if ReadFull(s.B, cell, s.Off+int64(parity)*s.Stride) != nil {
			continue
		}
		if binary.BigEndian.Uint32(cell[n:]) != crc32.Checksum(cell[:n], castagnoli) {
			continue
		}
		gen := binary.BigEndian.Uint64(cell[s.GenAt:])
		if gen == 0 || gen%2 != parity || (pin != 0 && gen != pin) || gen <= best {
			continue
		}
		best, body = gen, cell[:n]
	}
	return body, body != nil
}

// ReadFull reads exactly len(buf) bytes at off; a short read is an error.
func ReadFull(b io.ReaderAt, buf []byte, off int64) error {
	n, err := b.ReadAt(buf, off)
	if n == len(buf) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// osBlock adapts *os.File to BlockFile.
type osBlock struct{ *os.File }

func (b osBlock) Size() (int64, error) {
	st, err := b.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// OpenPath is the one way a durable file is opened by path: it opens path —
// created, or truncated, when create is set — and hands it to open as a
// BlockFile. An error from opening the path is returned as is (so
// errors.Is(err, fs.ErrNotExist) works); when open fails the file is closed,
// a created one removed, and the error names path.
func OpenPath[T any](path string, create bool, open func(BlockFile) (T, error)) (T, error) {
	flag := os.O_RDWR
	if create {
		flag |= os.O_CREATE | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		var zero T
		return zero, err
	}
	v, err := open(osBlock{f})
	if err != nil {
		f.Close()
		if create {
			os.Remove(path)
		}
		return v, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}
