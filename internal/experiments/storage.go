package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/pager"
	"repro/internal/workload"
)

// StorageRow reports the footprint of one index structure over the same
// database.
type StorageRow struct {
	Structure string
	Pages     int
	Height    int
}

// StorageResult quantifies the paper's Section-4.2 storage argument: the
// class-encoded composite keys look expensive, but front compression makes
// them competitive with (or smaller than) directory-based layouts.
type StorageResult struct {
	Config workload.LargeConfig
	Rows   []StorageRow
}

// RunStorage builds the large database once per configuration and reports
// the page footprint of every structure, including a U-index with
// compression disabled (the ablation isolating the paper's claim).
func RunStorage(objects, sets, keys int, seed int64) (*StorageResult, error) {
	cfg := workload.LargeConfig{Objects: objects, Sets: sets, Keys: keys, Seed: seed}
	db, err := cachedDB(cfg)
	if err != nil {
		return nil, err
	}
	res := &StorageResult{Config: cfg}
	add := func(name string, pages int, height int) {
		res.Rows = append(res.Rows, StorageRow{Structure: name, Pages: pages, Height: height})
	}
	u := db.UIndex.Shard(0)
	p, err := u.PageCount()
	if err != nil {
		return nil, err
	}
	add("U-index (compressed)", p, u.Tree().Height())

	// The ablation: identical entries, no front compression.
	raw, err := core.NewSharded(db.Store, core.Spec{Name: "raw", Root: "Obj", Attr: "Key", NoCompression: true},
		nil, []pager.File{pager.NewMemFile(1024)}, nil)
	if err != nil {
		return nil, err
	}
	if p, err = raw.Shard(0).PageCount(); err != nil {
		return nil, err
	}
	add("U-index (no compression)", p, raw.Shard(0).Tree().Height())

	if p, err = db.CG.PageCount(); err != nil {
		return nil, err
	}
	add("CG-tree", p, db.CG.Height())
	if p, err = db.CH.PageCount(); err != nil {
		return nil, err
	}
	add("CH-tree (incl. overflow)", p, db.CH.Height())
	if p, err = db.H.PageCount(); err != nil {
		return nil, err
	}
	add("H-tree forest", p, 0)
	return res, nil
}

// RenderStorage writes the storage comparison.
func RenderStorage(w io.Writer, r *StorageResult) {
	keys := fmt.Sprint(r.Config.Keys)
	if r.Config.Keys == 0 {
		keys = "unique"
	}
	fmt.Fprintf(w, "Storage footprint: %d objects, %d sets, %s keys, %d-byte pages\n",
		r.Config.Objects, r.Config.Sets, keys, 1024)
	fmt.Fprintf(w, "  %-28s %8s %8s\n", "structure", "pages", "height")
	for _, row := range r.Rows {
		h := fmt.Sprint(row.Height)
		if row.Height == 0 {
			h = "-"
		}
		fmt.Fprintf(w, "  %-28s %8d %8s\n", row.Structure, row.Pages, h)
	}
	fmt.Fprintln(w)
}
