package experiments

import (
	"testing"
)

// TestTable1PoolInvariance is the acceptance check for the buffer pool: the
// Table-1 logical node counts must be byte-for-byte identical with and
// without a pool between the indexes and their page files, while the pooled
// run shows real cache traffic with a non-trivial hit rate.
func TestTable1PoolInvariance(t *testing.T) {
	plain, err := RunTable1(42)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := RunTable1With(42, Table1Options{PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(pooled.Rows) != len(plain.Rows) {
		t.Fatalf("%d rows pooled vs %d plain", len(pooled.Rows), len(plain.Rows))
	}
	for i, p := range plain.Rows {
		q := pooled.Rows[i]
		if q.ID != p.ID || q.Parallel != p.Parallel || q.Forward != p.Forward || q.Matches != p.Matches {
			t.Errorf("row %s diverged with pool: parallel %d/%d forward %d/%d matches %d/%d",
				p.ID, q.Parallel, p.Parallel, q.Forward, p.Forward, q.Matches, p.Matches)
		}
	}
	if pooled.TotalNodes != plain.TotalNodes {
		t.Errorf("total nodes %d pooled vs %d plain", pooled.TotalNodes, plain.TotalNodes)
	}
	if pooled.Pool == nil {
		t.Fatalf("pooled run reported no pool stats")
	}
	if pooled.Pool.Hits == 0 || pooled.Pool.HitRate() <= 0 {
		t.Errorf("pool saw no hits: %+v", *pooled.Pool)
	}
	if pooled.Pool.PhysicalReads == 0 {
		t.Errorf("pool reported no physical reads: %+v", *pooled.Pool)
	}
	// The per-row physical column must have content: a 128-frame pool
	// cannot hold the whole 1562-node color index, so at least the
	// large scans fault pages in.
	var phys int
	for _, r := range pooled.Rows {
		phys += r.Physical
	}
	if phys == 0 {
		t.Errorf("no row recorded physical reads")
	}
	if plain.Pool != nil {
		t.Error("plain run unexpectedly reported pool stats")
	}
	for _, r := range plain.Rows {
		if r.Physical != 0 {
			t.Errorf("plain run row %s has physical reads %d", r.ID, r.Physical)
		}
	}
}

// TestFigurePoolInvariance checks the same property on the figure grid: the
// logical page-read curves of Figure 5 (and by construction 6-8, which share
// runGroup) are identical with the pool enabled.
func TestFigurePoolInvariance(t *testing.T) {
	defer ResetDBCache()
	cfg := GridConfig{Objects: 4000, Reps: 3, Seed: 1996}
	plain, err := RunFigure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pooledCfg := cfg
	pooledCfg.PoolPages = 64
	pooled, err := RunFigure5(pooledCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pooled.Groups) != len(plain.Groups) {
		t.Fatalf("%d groups pooled vs %d plain", len(pooled.Groups), len(plain.Groups))
	}
	sawTraffic := false
	for i, pg := range plain.Groups {
		qg := pooled.Groups[i]
		if qg.Sets != pg.Sets || qg.Keys != pg.Keys {
			t.Fatalf("group %d mismatch: (%d,%d) vs (%d,%d)", i, qg.Sets, qg.Keys, pg.Sets, pg.Keys)
		}
		for j, pc := range pg.Curves {
			if qc := qg.Curves[j]; qc != pc {
				t.Errorf("group (%d sets, %d keys) x=%d: curves diverged with pool: %+v vs %+v",
					pg.Sets, pg.Keys, pg.XSets[j], qc, pc)
			}
		}
		if pg.Pool != nil {
			t.Errorf("plain group (%d,%d) has pool stats", pg.Sets, pg.Keys)
		}
		if qg.Pool == nil {
			t.Errorf("pooled group (%d,%d) missing pool stats", qg.Sets, qg.Keys)
		} else if qg.Pool.Hits+qg.Pool.Misses > 0 {
			sawTraffic = true
		}
	}
	if !sawTraffic {
		t.Error("no pooled group recorded any cache traffic")
	}
}
