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
// Format v2 (flag bit 1, this PR) additionally packs a seek-anchor trailer
// into the page's tail slack — the zeroed space between the last entry and
// the end of the page. Reading from the page end backwards:
//
//	last 2 bytes        anchor count r (big-endian uint16)
//	8*r bytes           anchor records, ascending entry order
//	...                 key blob (uncompressed anchor keys), grown downward
//
// Anchor record (8 bytes): entry index, entry offset, key offset, key length
// (all big-endian uint16; the key offset points either into the blob or, for
// entries whose stored prefixLen is zero, straight at the entry's suffix
// bytes, which then are the full key). Every anchorStride-th key gets an
// anchor, LevelDB restart-point style: a point lookup binary-searches the
// anchors and decodes only the one run of entries between two anchors
// instead of materializing the whole page (view.go).
//
// The trailer lives entirely in slack: the entry area is byte-identical to
// v1, encodedSize/fits/splitPoint ignore the trailer, so node fanout, split
// decisions, and the page counts of the paper's experiments are unchanged.
// v1 pages (flag bit clear) remain readable, and v2 pages degrade gracefully
// for v1 readers, which ignore unknown flag bits and decode by entry count.
// A node whose slack cannot hold at least two anchors is written as v1.
// Front compression is the paper's load-bearing optimization (Section 3.2:
// "because of the key-compression, the existence of the class-code in the
// key takes very little space"): clustered keys share long prefixes, so a
// page holds many more entries, which is exactly why the U-index competes
// with directory-based schemes.

const (
	flagLeaf    = 0x01
	flagAnchors = 0x02
	headerSize  = 1 + 2 + 4

	anchorRecSize = 8
)

// DefaultAnchorStride is the anchor spacing used when Tuning.AnchorStride
// is zero: one uncompressed seek anchor per 16 entries bounds a lazy point
// lookup to decoding at most 16 entries per page.
const DefaultAnchorStride = 16

// node is the in-memory form of a page. Keys are held fully decompressed;
// compression is applied on encode and undone on decode. A decoded node is
// immutable once committed — mutations operate on private shadow copies
// (writeOp.shadow) and commit them as new pages.
type node struct {
	id       pager.PageID
	leaf     bool
	keys     [][]byte
	vals     [][]byte       // leaf only: stored values (tagged, see overflow.go)
	children []pager.PageID // internal only: len(keys)+1
	// decodedBytes is the size of the entry area this node was decoded
	// from (stats only: the bytes-decoded counter a full rematerialization
	// charges, against which the lazy view's per-run cost is compared).
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

// encodePage is the full serialization of a node: the v1 entry area, then —
// when stride enables anchors and the tail slack has room — the v2 anchor
// trailer.
func encodePage(n *node, buf []byte, noCompress bool, stride int) error {
	if err := n.encode(buf, noCompress); err != nil {
		return err
	}
	if stride > 0 {
		writeAnchors(n, buf, noCompress, stride)
	}
	return nil
}

// writeAnchors packs the seek-anchor trailer into the tail slack of an
// already-encoded page and sets flagAnchors. Every stride-th entry becomes
// an anchor; if the trailer does not fit the slack the stride doubles until
// it does or fewer than two anchors remain (then the page stays v1 — a lazy
// reader falls back to an allocation-free sequential walk).
func writeAnchors(n *node, buf []byte, noCompress bool, stride int) {
	if len(buf) > 0xFFFF || len(n.keys) == 0 {
		return // u16 offsets cannot address the page; keep v1
	}
	// One pass over the entries mirrors encode's layout arithmetic to
	// learn each candidate's entry offset and, when its stored prefixLen
	// is zero, where its full key already sits inside the entry.
	type candidate struct {
		idx      int
		entryOff int
		keyOff   int // absolute offset of the full key in the entry, or -1
	}
	var cands []candidate
	off := headerSize
	var prev []byte
	for i, k := range n.keys {
		p := 0
		if !noCompress {
			p = commonPrefix(prev, k)
		}
		s := len(k) - p
		if i%stride == 0 {
			koff := -1
			if p == 0 {
				koff = off + uvarintLen(uint64(p)) + uvarintLen(uint64(s))
			}
			cands = append(cands, candidate{idx: i, entryOff: off, keyOff: koff})
		}
		off += uvarintLen(uint64(p)) + uvarintLen(uint64(s)) + s
		if n.leaf {
			off += uvarintLen(uint64(len(n.vals[i]))) + len(n.vals[i])
		} else {
			off += 4
		}
		prev = k
	}
	slack := len(buf) - off
	// Thin the candidate set (every m-th, always keeping entry 0) until
	// the trailer fits the slack.
	for m := 1; ; m *= 2 {
		var picked []candidate
		blob := 0
		for j := 0; j < len(cands); j += m {
			picked = append(picked, cands[j])
			if cands[j].keyOff < 0 {
				blob += len(n.keys[cands[j].idx])
			}
		}
		if len(picked) < 2 {
			return
		}
		if 2+anchorRecSize*len(picked)+blob > slack {
			continue
		}
		r := len(picked)
		recStart := len(buf) - 2 - anchorRecSize*r
		blobOff := recStart - blob
		for j, c := range picked {
			key := n.keys[c.idx]
			koff := c.keyOff
			if koff < 0 {
				koff = blobOff
				copy(buf[blobOff:], key)
				blobOff += len(key)
			}
			rec := buf[recStart+anchorRecSize*j:]
			binary.BigEndian.PutUint16(rec[0:], uint16(c.idx))
			binary.BigEndian.PutUint16(rec[2:], uint16(c.entryOff))
			binary.BigEndian.PutUint16(rec[4:], uint16(koff))
			binary.BigEndian.PutUint16(rec[6:], uint16(len(key)))
		}
		binary.BigEndian.PutUint16(buf[len(buf)-2:], uint16(r))
		buf[0] |= flagAnchors
		return
	}
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
