package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/nix"
	"repro/internal/pager"
	"repro/internal/store"
	"repro/internal/workload"
)

// UpdateCostRow measures one update operation on one structure.
type UpdateCostRow struct {
	Operation  string
	Structure  string
	PagesWrite float64 // physical page writes per operation (flushed)
	Micros     float64 // wall time per operation
}

// UpdateCostResult is the Section-4.2/4.4 update-cost comparison between
// the U-index and the NIX structure on the Figure-1 database:
//
//   - end-of-path object insert/delete (a vehicle): the paper predicts NIX
//     "to have a worse update performance for end of path objects" because
//     of its auxiliary structure;
//   - mid-path reference change (a president switch): both restructure,
//     the U-index as a clustered batch of plain B-tree updates.
type UpdateCostResult struct {
	Rows []UpdateCostRow
}

// RunUpdateCost measures the update operations, averaging over reps.
func RunUpdateCost(seed int64, reps int) (*UpdateCostResult, error) {
	db, err := workload.NewFigure1DB(seed)
	if err != nil {
		return nil, err
	}
	uFile := pager.NewMemFile(1024)
	uIx, err := core.NewSharded(db.Store, core.Spec{
		Name: "age", Root: "Vehicle", Refs: []string{"ManufacturedBy", "President"}, Attr: "Age"},
		nil, []pager.File{uFile}, nil)
	if err != nil {
		return nil, err
	}

	nFile := pager.NewMemFile(1024)
	nIx, err := nix.New(nFile, db.Store, nix.Spec{
		Name: "nix-age", Root: "Vehicle", Refs: []string{"ManufacturedBy", "President"}, Attr: "Age"})
	if err != nil {
		return nil, err
	}
	if err := nIx.Build(); err != nil {
		return nil, err
	}

	res := &UpdateCostResult{}
	measure := func(op, structure string, f pager.File, flush func() error, body func() error) error {
		start := time.Now()
		before := f.Stats().Writes
		for i := 0; i < reps; i++ {
			if err := body(); err != nil {
				return fmt.Errorf("%s/%s: %w", op, structure, err)
			}
			// Dirty pages only reach the file on flush; flushing per
			// operation makes the write counter meaningful.
			if err := flush(); err != nil {
				return err
			}
		}
		writes := float64(f.Stats().Writes-before) / float64(reps)
		res.Rows = append(res.Rows, UpdateCostRow{
			Operation: op, Structure: structure,
			PagesWrite: writes,
			Micros:     float64(time.Since(start).Microseconds()) / float64(reps),
		})
		return nil
	}

	// The U-index is updated the way the engine's write path does it: the
	// object's entries before the store edit, its entries after it, and
	// ApplyKeys of their DiffKeys into one transaction, committed once
	// (EntriesFor → DiffKeys → ApplyKeys → Commit).
	update := func(olds, news [][]byte) error {
		txs := uIx.Begin(uIx.AllShards()) // the one shard's
		dels, ins := core.DiffKeys(olds, news)
		if err := uIx.ApplyKeys(txs, dels, ins); err != nil {
			return txs[0].Abort(err)
		}
		return txs[0].Commit()
	}
	company := db.Companies[0]
	// End-of-path insert + delete (one vehicle round trip).
	if err := measure("vehicle insert+delete", "U-index", uFile, uIx.Shard(0).Flush, func() error {
		oid, err := db.Store.Insert("Automobile", store.Attrs{
			"Name": "upd", "Color": "Grey", "ManufacturedBy": company})
		if err != nil {
			return err
		}
		news, err := uIx.EntriesFor(oid)
		if err != nil {
			return err
		}
		if err := update(nil, news); err != nil {
			return err
		}
		olds, err := uIx.EntriesFor(oid)
		if err != nil {
			return err
		}
		if err := db.Store.Delete(oid); err != nil {
			return err
		}
		return update(olds, nil)
	}); err != nil {
		return nil, err
	}
	if err := measure("vehicle insert+delete", "NIX", nFile, nIx.Flush, func() error {
		oid, err := db.Store.Insert("Automobile", store.Attrs{
			"Name": "upd", "Color": "Grey", "ManufacturedBy": company})
		if err != nil {
			return err
		}
		vals, err := nIx.ValuesThrough(oid)
		if err != nil {
			return err
		}
		if err := nIx.Refresh(vals); err != nil {
			return err
		}
		rvals, err := nIx.RemoveObject(oid)
		if err != nil {
			return err
		}
		if err := db.Store.Delete(oid); err != nil {
			return err
		}
		return nIx.Refresh(rvals)
	}); err != nil {
		return nil, err
	}

	// Mid-path reference change: a president switch, back and forth.
	e1 := db.Employees[0]
	e2 := db.Employees[1]
	flip := e1
	if err := measure("president switch", "U-index", uFile, uIx.Shard(0).Flush, func() error {
		old, err := uIx.EntriesFor(company)
		if err != nil {
			return err
		}
		if flip == e1 {
			flip = e2
		} else {
			flip = e1
		}
		if _, err := db.Store.SetAttr(company, "President", flip); err != nil {
			return err
		}
		newKeys, err := uIx.EntriesFor(company)
		if err != nil {
			return err
		}
		return update(old, newKeys)
	}); err != nil {
		return nil, err
	}
	if err := measure("president switch", "NIX", nFile, nIx.Flush, func() error {
		before, err := nIx.ValuesThrough(company)
		if err != nil {
			return err
		}
		if flip == e1 {
			flip = e2
		} else {
			flip = e1
		}
		if _, err := db.Store.SetAttr(company, "President", flip); err != nil {
			return err
		}
		after, err := nIx.ValuesThrough(company)
		if err != nil {
			return err
		}
		for k := range after {
			before[k] = true
		}
		return nIx.Refresh(before)
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// RenderUpdateCost writes the update-cost comparison.
func RenderUpdateCost(w io.Writer, r *UpdateCostResult) {
	fmt.Fprintln(w, "Update cost (Section 4.2/4.4): U-index vs NIX, Figure-1 database")
	fmt.Fprintf(w, "  %-24s %-10s %14s %12s\n", "operation", "structure", "page writes/op", "µs/op")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-24s %-10s %14.1f %12.1f\n", row.Operation, row.Structure, row.PagesWrite, row.Micros)
	}
	fmt.Fprintln(w)
}
