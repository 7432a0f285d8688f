package btree

import (
	"fmt"
	"testing"

	"repro/internal/pager"
)

// BenchmarkDecodeNode measures the full decode of one leaf page at a
// realistic ~75% fill (split pages settle near that): the cost every
// node-cache miss pays. The decode is two passes over the page and three
// allocations — the node, one key/value header array and one exact-size
// byte arena (TestDecodeNodeAllocs pins the count).
func BenchmarkDecodeNode(b *testing.B) {
	n := &node{leaf: true}
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("bench/cluster-%02d/key-%06d", i/16, i))
		n.keys = append(n.keys, k)
		n.vals = append(n.vals, []byte{valInline})
		if n.encodedSize(false) > 3*pager.DefaultPageSize/4 {
			n.keys = n.keys[:len(n.keys)-1]
			n.vals = n.vals[:len(n.vals)-1]
			break
		}
	}
	buf := make([]byte, pager.DefaultPageSize)
	if err := n.encode(buf, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeNode(1, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeGet measures a whole point lookup through the tree: with the
// cache on it hits the nodes a prior scan installed; with it off every
// level decodes its page.
func BenchmarkTreeGet(b *testing.B) {
	for _, tc := range []struct {
		name  string
		cache bool
	}{
		{"cache=on", true},
		{"cache=off", false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			f := pager.NewMemFile(0)
			tree, err := Create(f, Config{})
			if err != nil {
				b.Fatal(err)
			}
			if !tc.cache {
				withoutNodeCache(tree)
			}
			for i := 0; i < 3000; i++ {
				k := []byte(fmt.Sprintf("key-%06d", i))
				if err := tree.Insert(k, []byte("v")); err != nil {
					b.Fatal(err)
				}
			}
			tree.DropCache()
			// Warm the shared cache the way a real workload would: one scan.
			err = tree.Scan(nil, nil, nil, nil, func(_, _ []byte) ([]byte, bool, error) {
				return nil, false, nil
			})
			if err != nil {
				b.Fatal(err)
			}
			key := []byte("key-002345")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, ok, err := tree.Get(key, nil)
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					b.Fatal("key not found")
				}
			}
		})
	}
}
