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

// decodeNode deserializes a page into a node. A first pass walks the
// entries, validates every length against the page and sums the bytes the
// expanded keys and the values need; a second pass copies them into one
// byte arena of exactly that size. A leaf's keys and values share one header
// array (keys first, then values), an internal node gets its keys and
// children at their exact sizes: a decode costs three allocations for a leaf
// and four for an internal node, however far the keys re-expand. Every key
// and value is a capped window of the arena, so an append to one never
// reaches its neighbour; decoded nodes are never edited in place (Tx.shadow
// copies the headers before an edit).
func decodeNode(id pager.PageID, buf []byte) (*node, error) {
	if len(buf) < headerSize {
		return nil, fmt.Errorf("btree: page %d too short", id)
	}
	n := &node{id: id, leaf: buf[0]&flagLeaf != 0}
	count := int(binary.BigEndian.Uint16(buf[1:]))
	size, err := n.decodeEntries(buf, count, nil)
	if err != nil {
		return nil, err
	}
	if n.leaf {
		hdr := make([][]byte, 2*count)
		n.keys, n.vals = hdr[:count:count], hdr[count:]
	} else {
		n.keys = make([][]byte, count)
		n.children = make([]pager.PageID, count+1)
		n.children[0] = pager.PageID(binary.BigEndian.Uint32(buf[3:]))
	}
	_, err = n.decodeEntries(buf, count, make([]byte, size))
	return n, err
}

// decodeEntries walks the count entries of page image buf. With a nil arena
// it only validates them and returns the arena size the node needs; with an
// arena of that size it fills n's keys, values and children from it. It sets
// n.decodedBytes either way.
func (n *node) decodeEntries(buf []byte, count int, arena []byte) (int, error) {
	off := headerSize
	readUvarint := func() (uint64, error) {
		v, sz := binary.Uvarint(buf[off:])
		if sz <= 0 {
			return 0, fmt.Errorf("btree: page %d corrupt at offset %d", n.id, off)
		}
		off += sz
		return v, nil
	}
	size := 0
	var prev []byte // the previous key, filled in only with an arena
	prevLen := 0
	for i := 0; i < count; i++ {
		p, err := readUvarint()
		if err != nil {
			return 0, err
		}
		s, err := readUvarint()
		if err != nil {
			return 0, err
		}
		if p > uint64(prevLen) || s > uint64(len(buf)-off) {
			return 0, fmt.Errorf("btree: page %d corrupt entry %d", n.id, i)
		}
		klen := int(p) + int(s)
		if arena != nil {
			key := arena[size : size+klen : size+klen]
			copy(key, prev[:p])
			copy(key[p:], buf[off:off+int(s)])
			n.keys[i] = key
			prev = key
		}
		size += klen
		prevLen = klen
		off += int(s)
		if n.leaf {
			vl, err := readUvarint()
			if err != nil {
				return 0, err
			}
			if vl > uint64(len(buf)-off) {
				return 0, fmt.Errorf("btree: page %d corrupt value %d", n.id, i)
			}
			if arena != nil {
				n.vals[i] = arena[size : size+int(vl) : size+int(vl)]
				copy(n.vals[i], buf[off:off+int(vl)])
			}
			size += int(vl)
			off += int(vl)
		} else {
			if off+4 > len(buf) {
				return 0, fmt.Errorf("btree: page %d corrupt child %d", n.id, i)
			}
			if arena != nil {
				n.children[i+1] = pager.PageID(binary.BigEndian.Uint32(buf[off:]))
			}
			off += 4
		}
	}
	n.decodedBytes = off - headerSize
	return size, nil
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
