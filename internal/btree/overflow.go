package btree

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/pager"
)

// Stored-value encoding. Leaf entries store values in a tagged form:
//
//	0x00 ‖ bytes             inline value
//	0x01 ‖ head(4) ‖ len(4)  value continues in an overflow chain
//
// Overflow chains hold values too large to inline (longer than a quarter
// page): each overflow page is [next(4) ‖ data]. Reading an overflow chain
// touches its pages through the query Tracker, so index structures that keep
// long object-id lists as values (CH-tree, NIX directories) pay an honest
// page-read cost for them — which is precisely the cost the U-index design
// avoids by keeping entries small and clustered.

const (
	valInline   = 0x00
	valOverflow = 0x01
)

// overflowThreshold returns the largest value stored inline.
func (t *Tree) overflowThreshold() int {
	return t.f.PageSize() / 4
}

// storeValue converts a logical value into its stored form, spilling to an
// overflow chain when large. Chain pages are allocated through the Tx, so an
// aborted mutation frees them and nothing leaks; they are written
// immediately but stay unreachable until the op commits.
func (w *Tx) storeValue(val []byte) ([]byte, error) {
	t := w.t
	if len(val) <= t.overflowThreshold() {
		return append([]byte{valInline}, val...), nil
	}
	chunk := t.f.PageSize() - 4
	var head pager.PageID
	var prevBuf []byte
	var prevID pager.PageID
	buf := make([]byte, t.f.PageSize())
	for off := 0; off < len(val); off += chunk {
		id, err := w.alloc()
		if err != nil {
			return nil, err
		}
		if head == pager.NilPage {
			head = id
		}
		if prevBuf != nil {
			binary.BigEndian.PutUint32(prevBuf[:4], uint32(id))
			if err := t.f.Write(prevID, prevBuf); err != nil {
				return nil, err
			}
		}
		for i := range buf {
			buf[i] = 0
		}
		copy(buf[4:], val[off:min(off+chunk, len(val))])
		prevBuf, prevID = buf, id
		buf = make([]byte, t.f.PageSize())
	}
	if err := t.f.Write(prevID, prevBuf); err != nil {
		return nil, err
	}
	stored := make([]byte, 9)
	stored[0] = valOverflow
	binary.BigEndian.PutUint32(stored[1:], uint32(head))
	binary.BigEndian.PutUint32(stored[5:], uint32(len(val)))
	return stored, nil
}

// loadValue materializes a stored value, following (and accounting for) the
// overflow chain when present.
func (t *Tree) loadValue(stored []byte, tr *pager.Tracker) ([]byte, error) {
	if len(stored) == 0 {
		return nil, fmt.Errorf("btree: empty stored value")
	}
	switch stored[0] {
	case valInline:
		return stored[1:], nil
	case valOverflow:
		if len(stored) != 9 {
			return nil, fmt.Errorf("btree: corrupt overflow reference")
		}
		id := pager.PageID(binary.BigEndian.Uint32(stored[1:]))
		total := int(binary.BigEndian.Uint32(stored[5:]))
		out := make([]byte, 0, total)
		buf := make([]byte, t.f.PageSize())
		chunk := t.f.PageSize() - 4
		for id != pager.NilPage && len(out) < total {
			tr.Touch(id)
			if err := t.f.Read(id, buf); err != nil {
				return nil, err
			}
			take := min(chunk, total-len(out))
			out = append(out, buf[4:4+take]...)
			id = pager.PageID(binary.BigEndian.Uint32(buf[:4]))
		}
		if len(out) != total {
			return nil, fmt.Errorf("btree: overflow chain truncated: have %d of %d bytes", len(out), total)
		}
		return out, nil
	}
	return nil, fmt.Errorf("btree: unknown value tag 0x%02x", stored[0])
}

// retireValue releases the overflow chain of a stored value (if any): a
// committed chain goes to the op's retired set, where its pages stay
// readable for pinned snapshots until the reclaimer frees them; a chain this
// op allocated was never visible and is discarded.
func (w *Tx) retireValue(stored []byte) error {
	if len(stored) == 0 || stored[0] != valOverflow {
		return nil
	}
	if len(stored) != 9 {
		return fmt.Errorf("btree: corrupt overflow reference")
	}
	id := pager.PageID(binary.BigEndian.Uint32(stored[1:]))
	buf := make([]byte, w.t.f.PageSize())
	for id != pager.NilPage {
		if err := w.t.f.Read(id, buf); err != nil {
			return err
		}
		if slices.Contains(w.allocated, id) {
			w.discarded = append(w.discarded, id)
		} else {
			w.retired = append(w.retired, id)
		}
		id = pager.PageID(binary.BigEndian.Uint32(buf[:4]))
	}
	return nil
}

// overflowPages returns how many pages the stored value occupies beyond the
// leaf entry itself.
func (t *Tree) overflowPages(stored []byte) int {
	if len(stored) != 9 || stored[0] != valOverflow {
		return 0
	}
	total := int(binary.BigEndian.Uint32(stored[5:]))
	chunk := t.f.PageSize() - 4
	return (total + chunk - 1) / chunk
}
