package btree

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/pager"
)

// Node page layout
//
//	byte  0      flags (bit 0: leaf)
//	bytes 1..2   number of keys n (big-endian uint16)
//	bytes 3..6   leaf: reserved (zero); internal: children[0]
//	bytes 7..    n entries
//
// Leaves carry no sibling link: pages are copy-on-write, and a next pointer
// would force every leaf update to shadow its left neighbor too. Range scans
// walk down from the root instead (scan.go).
//
// Leaf entry (front-compressed):
//
//	uvarint prefixLen   bytes shared with the previous key in this node
//	uvarint suffixLen
//	suffix bytes
//	uvarint valueLen
//	value bytes         stored value (see value tags in overflow.go)
//
// Internal entry:
//
//	uvarint prefixLen
//	uvarint suffixLen
//	suffix bytes
//	uint32 child        children[i+1]
//
// Every page is written in this one format. Bit 1 of the flags byte
// (flagAnchors) is reserved and never written: older builds set it on pages
// that carried a seek-anchor trailer in the tail slack (the zeroed space
// after the last entry). decodeNode reads by entry count and ignores both
// that bit and whatever the tail holds, so such pages decode exactly like
// pages written now — the entry area was always the same bytes.
//
// Front compression is the paper's load-bearing optimization (Section 3.2:
// "because of the key-compression, the existence of the class-code in the
// key takes very little space"): clustered keys share long prefixes, so a
// page holds many more entries, which is exactly why the U-index competes
// with directory-based schemes.

const (
	flagLeaf    = 0x01
	flagAnchors = 0x02 // reserved: set by older builds, never written, ignored on read
	headerSize  = 1 + 2 + 4
)

// node is the in-memory form of a page. Keys are held fully decompressed;
// compression is applied on encode and undone on decode. A decoded node is
// immutable once committed — mutations operate on private shadow copies
// (Tx.shadow) and commit them as new pages.
type node struct {
	id       pager.PageID
	leaf     bool
	keys     [][]byte
	vals     [][]byte       // leaf only: stored values (tagged, see overflow.go)
	children []pager.PageID // internal only: len(keys)+1
	// decodedBytes is the size of the entry area this node was decoded
	// from (stats only: the tracker's bytes-decoded counter).
	decodedBytes int
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// commonPrefix returns the length of the longest common prefix of a and b.
// It compares eight bytes at a time: clustered keys share prefixes of
// dozens of bytes and the writer sizes every node through this loop, whose
// byte-at-a-time form was both slower and sensitive to where the linker
// placed it.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// encodedSize returns the number of bytes the node occupies when
// serialized; noCompress computes the size without front compression.
func (n *node) encodedSize(noCompress bool) int {
	size := headerSize
	var prev []byte
	for i, k := range n.keys {
		p := 0
		if !noCompress {
			p = commonPrefix(prev, k)
		}
		s := len(k) - p
		size += uvarintLen(uint64(p)) + uvarintLen(uint64(s)) + s
		if n.leaf {
			size += uvarintLen(uint64(len(n.vals[i]))) + len(n.vals[i])
		} else {
			size += 4
		}
		prev = k
	}
	return size
}

// encode serializes the node into buf (one full page). It fails if the node
// does not fit, which callers prevent by splitting first.
func (n *node) encode(buf []byte, noCompress bool) error {
	need := n.encodedSize(noCompress)
	if need > len(buf) {
		return fmt.Errorf("btree: node %d overflows page: %d > %d bytes", n.id, need, len(buf))
	}
	for i := range buf {
		buf[i] = 0
	}
	if n.leaf {
		buf[0] = flagLeaf
	}
	binary.BigEndian.PutUint16(buf[1:], uint16(len(n.keys)))
	if !n.leaf && len(n.children) > 0 {
		binary.BigEndian.PutUint32(buf[3:], uint32(n.children[0]))
	}
	off := headerSize
	var prev []byte
	for i, k := range n.keys {
		p := 0
		if !noCompress {
			p = commonPrefix(prev, k)
		}
		off += binary.PutUvarint(buf[off:], uint64(p))
		off += binary.PutUvarint(buf[off:], uint64(len(k)-p))
		off += copy(buf[off:], k[p:])
		if n.leaf {
			off += binary.PutUvarint(buf[off:], uint64(len(n.vals[i])))
			off += copy(buf[off:], n.vals[i])
		} else {
			binary.BigEndian.PutUint32(buf[off:], uint32(n.children[i+1]))
			off += 4
		}
		prev = k
	}
	return nil
}

// decode deserializes a page into a node. Key and value bytes are packed
// into two shared arenas (one allocation each instead of one per entry);
// the arenas may grow while decoding, which is safe because slices handed
// out before a growth keep their old backing array and the arena is only
// ever appended to.
func decodeNode(id pager.PageID, buf []byte) (*node, error) {
	if len(buf) < headerSize {
		return nil, fmt.Errorf("btree: page %d too short", id)
	}
	n := &node{id: id, leaf: buf[0]&flagLeaf != 0}
	count := int(binary.BigEndian.Uint16(buf[1:]))
	n.keys = make([][]byte, 0, count)
	// Uncompressed keys can exceed the page size (prefix re-expansion), so
	// the key arena starts at twice the page and grows when needed; values
	// are stored verbatim and always fit one page.
	karena := make([]byte, 0, 2*len(buf))
	var varena []byte
	if n.leaf {
		n.vals = make([][]byte, 0, count)
		varena = make([]byte, 0, len(buf))
	} else {
		n.children = make([]pager.PageID, 0, count+1)
		n.children = append(n.children, pager.PageID(binary.BigEndian.Uint32(buf[3:])))
	}
	off := headerSize
	var prev []byte
	readUvarint := func() (uint64, error) {
		v, sz := binary.Uvarint(buf[off:])
		if sz <= 0 {
			return 0, fmt.Errorf("btree: page %d corrupt at offset %d", id, off)
		}
		off += sz
		return v, nil
	}
	for i := 0; i < count; i++ {
		p, err := readUvarint()
		if err != nil {
			return nil, err
		}
		s, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if int(p) > len(prev) || off+int(s) > len(buf) {
			return nil, fmt.Errorf("btree: page %d corrupt entry %d", id, i)
		}
		start := len(karena)
		karena = append(karena, prev[:p]...)
		karena = append(karena, buf[off:off+int(s)]...)
		key := karena[start:len(karena):len(karena)]
		off += int(s)
		n.keys = append(n.keys, key)
		if n.leaf {
			vl, err := readUvarint()
			if err != nil {
				return nil, err
			}
			if off+int(vl) > len(buf) {
				return nil, fmt.Errorf("btree: page %d corrupt value %d", id, i)
			}
			vstart := len(varena)
			varena = append(varena, buf[off:off+int(vl)]...)
			n.vals = append(n.vals, varena[vstart:len(varena):len(varena)])
			off += int(vl)
		} else {
			if off+4 > len(buf) {
				return nil, fmt.Errorf("btree: page %d corrupt child %d", id, i)
			}
			n.children = append(n.children, pager.PageID(binary.BigEndian.Uint32(buf[off:])))
			off += 4
		}
		prev = key
	}
	n.decodedBytes = off - headerSize
	return n, nil
}

// insertAt inserts key (and, for leaves, val) at index i.
func (n *node) insertAt(i int, key, val []byte) {
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = key
	if n.leaf {
		n.vals = append(n.vals, nil)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = val
	}
}

// removeAt removes the key (and value) at index i.
func (n *node) removeAt(i int) {
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	if n.leaf {
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
	}
}

// insertChildAt inserts a child page id at index i of an internal node.
func (n *node) insertChildAt(i int, id pager.PageID) {
	n.children = append(n.children, 0)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = id
}

// removeChildAt removes the child at index i of an internal node.
func (n *node) removeChildAt(i int) {
	n.children = append(n.children[:i], n.children[i+1:]...)
}
