// Diskpool: a U-index on disk behind a buffer pool. The index is built into
// a page file on disk through a fixed-capacity CLOCK cache, flushed to a
// durability point, closed, and reopened — the second process-lifetime query
// works straight off the disk pages. Every Close error is checked: with
// write-back caching, Close is where dirty pages and fsync failures surface.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/pager"
)

func main() {
	// 1. A small database of objects (the store itself stays in memory;
	// the paper's index structures are what live in page files).
	s := uindex.NewSchema()
	check(s.AddClass("Vehicle", "", uindex.Attr{Name: "Color", Type: uindex.String}))
	check(s.AddClass("Automobile", "Vehicle"))
	check(s.AddClass("Truck", "Vehicle"))
	db, err := uindex.NewDatabase(s)
	check(err)
	for i := 0; i < 500; i++ {
		class := []string{"Vehicle", "Automobile", "Truck"}[i%3]
		color := []string{"Red", "Blue", "White", "Green", "Black"}[i%5]
		_, err := db.Insert(class, uindex.Attrs{"Color": color})
		check(err)
	}

	// 2. Create the index in a disk page file, with a 32-frame buffer
	// pool in front. The pool implements pager.File, so the index code is
	// identical to the in-memory case.
	path := filepath.Join(os.TempDir(), "diskpool-color.uidx")
	defer os.Remove(path)
	df, err := pager.CreateDiskFile(path, 1024)
	check(err)
	pool, err := bufferpool.New(df, bufferpool.Config{Pages: 32})
	check(err)
	spec := core.Spec{Name: "color", Root: "Vehicle", Attr: "Color"}
	ix, err := core.NewSharded(db.Store(), spec, nil, []pager.File{pool}, nil)
	check(err)

	query := uindex.Query{
		Value:     uindex.Exact("Red"),
		Positions: []uindex.Position{uindex.On("Automobile")},
	}
	ms, stats, err := ix.Execute(query, uindex.Parallel, nil)
	check(err)
	fmt.Printf("red automobiles: %d matches, %d pages read\n", len(ms), stats.PagesRead)

	// 3. Durability point (the atomic-commit protocol): push the tree's
	// dirty nodes into the pool, stage the meta page id as the file's
	// checkpoint payload, then flush — the pool writes its dirty frames
	// back and the file's Sync publishes a new checksummed header
	// generation. A crash anywhere before that publish leaves the previous
	// checkpoint intact.
	shard := ix.Shard(0) // the whole index: a group of one shard
	check(shard.Flush())
	var root [4]byte
	binary.BigEndian.PutUint32(root[:], uint32(shard.MetaPage()))
	check(df.SetPayload(root[:]))
	check(pool.FlushAll())
	st := pool.PoolStats()
	fmt.Printf("pool after build+query: %d hits, %d misses (hit ratio %.1f%%), %d evictions\n",
		st.Hits, st.Misses, 100*st.HitRate(), st.Evictions)

	// 4. Close releases the pool and the file underneath it. The error
	// matters: a failed write-back here is data loss.
	check(pool.Close())

	// 5. Reopen the page file. Recovery picks the newest valid header,
	// and its payload tells us where the tree's meta page lives — no
	// state has to survive in process memory.
	df2, err := pager.OpenDiskFile(path)
	check(err)
	pl := df2.Payload()
	if len(pl) != 4 {
		log.Fatalf("recovered payload is %d bytes, want 4", len(pl))
	}
	meta := pager.PageID(binary.BigEndian.Uint32(pl))
	pool2, err := bufferpool.New(df2, bufferpool.Config{Pages: 32})
	check(err)
	ix2, err := core.NewSharded(db.Store(), spec, nil, []pager.File{pool2}, []pager.PageID{meta})
	check(err)
	ms2, _, err := ix2.Execute(query, uindex.Parallel, nil)
	check(err)
	fmt.Printf("after reopen: %d matches (%d pages on disk)\n", len(ms2), pool2.NumPages())
	if len(ms2) != len(ms) {
		log.Fatalf("reopened index disagrees: %d vs %d matches", len(ms2), len(ms))
	}
	check(pool2.Close())
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
