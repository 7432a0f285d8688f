package btree

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/pager"
)

// fullNode fills a node with keys that share a long prefix until one more
// entry would overflow a page: front compression stores each key in a few
// bytes, so the decoded keys are many times the page.
func fullNode(leaf bool) *node {
	prefix := bytes.Repeat([]byte("v/Vehicle/Color=Red/"), 10)
	n := &node{leaf: leaf}
	if !leaf {
		n.children = []pager.PageID{2}
	}
	for i := 0; ; i++ {
		n.keys = append(n.keys, fmt.Appendf(append([]byte(nil), prefix...), "%04d", i))
		if leaf {
			n.vals = append(n.vals, []byte{valInline, byte(i)})
		} else {
			n.children = append(n.children, pager.PageID(3+i))
		}
		if n.encodedSize(false) > pager.DefaultPageSize {
			n.keys = n.keys[:len(n.keys)-1]
			if leaf {
				n.vals = n.vals[:len(n.vals)-1]
			} else {
				n.children = n.children[:len(n.children)-1]
			}
			return n
		}
	}
}

// TestDecodeNodeAllocs pins the cost of a node-cache miss: a full leaf
// decodes in three allocations (the node, one header array for keys and
// values, one byte arena) and a full internal page in four (the node, keys,
// children, arena), however far front compression lets the keys re-expand.
func TestDecodeNodeAllocs(t *testing.T) {
	for _, tc := range []struct {
		leaf bool
		want float64
	}{{true, 3}, {false, 4}} {
		n := fullNode(tc.leaf)
		buf := make([]byte, pager.DefaultPageSize)
		if err := n.encode(buf, false); err != nil {
			t.Fatal(err)
		}
		expanded := 0
		for _, k := range n.keys {
			expanded += len(k)
		}
		if expanded <= 2*len(buf) {
			t.Fatalf("leaf=%v: keys expand to %d bytes, want more than twice the %d-byte page", tc.leaf, expanded, len(buf))
		}
		got := testing.AllocsPerRun(50, func() {
			if _, err := decodeNode(1, buf); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.want {
			t.Errorf("leaf=%v: decodeNode of %d entries allocates %v objects, want %v", tc.leaf, len(n.keys), got, tc.want)
		}
	}
}

// FuzzDecodeNode feeds arbitrary page images to decodeNode. It must return
// an error or a node, never panic; a node it returns has the header's entry
// count, an internal one a child per key plus one, and encoding it again
// decodes to the same keys, values and children.
func FuzzDecodeNode(f *testing.F) {
	pages, _ := filepath.Glob(filepath.Join("testdata", "*.page"))
	for _, p := range pages {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	mf := pager.NewMemFile(512)
	tr, err := Create(mf, Config{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := tr.Insert(fmt.Appendf(nil, "cluster-%02d/key-%06d", i%7, i), val(i)); err != nil {
			f.Fatal(err)
		}
	}
	buf := make([]byte, mf.PageSize())
	for id := pager.PageID(1); ; id++ {
		err := mf.Read(id, buf)
		if errors.Is(err, pager.ErrPageBounds) {
			break
		}
		if err == nil {
			f.Add(slices.Clone(buf))
		}
	}
	// A suffix length of 2^64-1: it must fail the bounds check, not wrap
	// negative and slip past it.
	f.Add([]byte{flagLeaf, 0, 1, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, page []byte) {
		n, err := decodeNode(1, page)
		if err != nil {
			return
		}
		if count := int(page[1])<<8 | int(page[2]); len(n.keys) != count {
			t.Fatalf("%d keys decoded, header says %d", len(n.keys), count)
		}
		if n.leaf && len(n.vals) != len(n.keys) || !n.leaf && len(n.children) != len(n.keys)+1 {
			t.Fatalf("leaf=%v: %d keys, %d values, %d children", n.leaf, len(n.keys), len(n.vals), len(n.children))
		}
		again := make([]byte, len(page))
		if err := n.encode(again, false); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		m, err := decodeNode(1, again)
		if err != nil {
			t.Fatalf("decode of re-encoded node: %v", err)
		}
		eq := func(a, b []byte) bool { return bytes.Equal(a, b) }
		if m.leaf != n.leaf || !slices.EqualFunc(m.keys, n.keys, eq) ||
			!slices.EqualFunc(m.vals, n.vals, eq) || !slices.Equal(m.children, n.children) {
			t.Fatalf("re-encoded node decodes differently")
		}
	})
}
