package experiments

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/bufferpool"
	"repro/internal/cgtree"
	"repro/internal/chtree"
	"repro/internal/core"
	"repro/internal/htree"
	"repro/internal/workload"
)

// Curve names the measured series of the figures. UNear/UFar are the
// paper's "B-tree (near sets)" / "B-tree (non-near sets)".
type Curve struct {
	UNear, UFar, CG float64
	// Extension curves (not in the paper's figures, used by the ablation
	// benches): the CH-tree and H-tree baselines on the same query.
	CH, H float64
}

// Group is one sub-graph of a figure: page reads per number of queried
// sets, for one (total sets, distinct keys) configuration.
type Group struct {
	Sets   int // total sets in the database (8 or 40)
	Keys   int // distinct keys (0 = unique)
	XSets  []int
	Curves []Curve
	// Pool holds the buffer-pool counter deltas incurred by this group
	// when GridConfig.PoolPages > 0, nil otherwise. The curves themselves
	// are logical page reads and never depend on the pool.
	Pool *bufferpool.Stats
}

// FigureResult is one full figure: groups over the experiment grid.
type FigureResult struct {
	Title     string
	RangeFrac float64 // 0 for exact match
	Groups    []Group
}

// xAxis reproduces the paper's x-axes: 1,10,20,30,40 for 40 sets and
// 1,2,4,6,8 for 8 sets.
func xAxis(sets int) []int {
	if sets >= 40 {
		return []int{1, 10, 20, 30, 40}
	}
	return []int{1, 2, 4, 6, 8}
}

// GridConfig scales the experiment grid; Full matches the paper.
type GridConfig struct {
	Objects  int
	Reps     int
	Seed     int64
	Extended bool // also measure CH-tree and H-tree curves
	// PoolPages routes the four structures' page files through buffer
	// pools of that many frames (0 = no pool). With a pool the node caches
	// are dropped before each repetition so traffic reaches it; neither
	// step changes the figures' logical page-read curves.
	PoolPages int
}

// FullGrid is the paper's configuration: 150,000 objects, 100 repetitions.
func FullGrid() GridConfig { return GridConfig{Objects: 150000, Reps: 100, Seed: 1996} }

// QuickGrid is a scaled-down grid for tests and smoke runs.
func QuickGrid() GridConfig { return GridConfig{Objects: 12000, Reps: 15, Seed: 1996} }

// keyConfigs are the distinct-key configurations of Section 5.1: unique
// keys, 100 keys, 1000 keys.
var keyConfigs = []int{0, 100, 1000}

// RunFigure5 reproduces Figure 5 (exact-match queries).
func RunFigure5(cfg GridConfig) (*FigureResult, error) {
	return runFigure(cfg, "Figure 5: Exact Match Query", 0)
}

// RunFigure6 reproduces Figure 6 (range query, 10% of keyspace).
func RunFigure6(cfg GridConfig) (*FigureResult, error) {
	return runFigure(cfg, "Figure 6: Range Query (10% of Keyspace)", 0.10)
}

// RunFigure7 reproduces Figure 7 (range query, 2% of keyspace).
func RunFigure7(cfg GridConfig) (*FigureResult, error) {
	return runFigure(cfg, "Figure 7: Range Query (2% of Keyspace)", 0.02)
}

// Figure8Result holds Figure 8: the small-range graphs (0.5% and 0.2% of
// the keyspace, 1000 distinct keys) plus the near/non-near delta graph
// (10% range, 1000 keys).
type Figure8Result struct {
	Small []FigureResult // 0.5% and 0.2%, 1000 keys only
	Delta FigureResult   // 10% range, 1000 keys, near vs non-near
}

// RunFigure8 reproduces Figure 8.
func RunFigure8(cfg GridConfig) (*Figure8Result, error) {
	out := &Figure8Result{}
	for _, frac := range []float64{0.005, 0.002} {
		fig := &FigureResult{
			Title:     fmt.Sprintf("Figure 8: Range Query (%g%% of Keyspace), 1000 keys", frac*100),
			RangeFrac: frac,
		}
		for _, sets := range []int{40, 8} {
			g, err := runGroup(cfg, sets, 1000, frac)
			if err != nil {
				return nil, err
			}
			fig.Groups = append(fig.Groups, *g)
		}
		out.Small = append(out.Small, *fig)
	}
	delta := FigureResult{
		Title:     "Figure 8: near vs non-near sets (10% range, 1000 keys)",
		RangeFrac: 0.10,
	}
	for _, sets := range []int{40, 8} {
		g, err := runGroup(cfg, sets, 1000, 0.10)
		if err != nil {
			return nil, err
		}
		delta.Groups = append(delta.Groups, *g)
	}
	out.Delta = delta
	return out, nil
}

func runFigure(cfg GridConfig, title string, frac float64) (*FigureResult, error) {
	fig := &FigureResult{Title: title, RangeFrac: frac}
	for _, sets := range []int{40, 8} {
		for _, k := range keyConfigs {
			g, err := runGroup(cfg, sets, k, frac)
			if err != nil {
				return nil, err
			}
			fig.Groups = append(fig.Groups, *g)
		}
	}
	return fig, nil
}

// dbCache memoizes the generated databases across figures: the same
// (objects, sets, keys, seed) database backs every range fraction.
var dbCache = struct {
	sync.Mutex
	m map[workload.LargeConfig]*workload.LargeDB
}{m: map[workload.LargeConfig]*workload.LargeDB{}}

func cachedDB(cfg workload.LargeConfig) (*workload.LargeDB, error) {
	dbCache.Lock()
	defer dbCache.Unlock()
	if db, ok := dbCache.m[cfg]; ok {
		return db, nil
	}
	db, err := workload.NewLargeDB(cfg)
	if err != nil {
		return nil, err
	}
	dbCache.m[cfg] = db
	return db, nil
}

// ResetDBCache drops the memoized databases (tests use it to bound memory).
func ResetDBCache() {
	dbCache.Lock()
	defer dbCache.Unlock()
	dbCache.m = map[workload.LargeConfig]*workload.LargeDB{}
}

// runGroup measures one sub-graph.
func runGroup(cfg GridConfig, sets, keys int, frac float64) (*Group, error) {
	large, err := cachedDB(workload.LargeConfig{
		Objects: cfg.Objects, Sets: sets, Keys: keys, Seed: cfg.Seed,
		PoolPages: cfg.PoolPages,
	})
	if err != nil {
		return nil, err
	}
	g := &Group{Sets: sets, Keys: keys, XSets: xAxis(sets)}
	before := large.PoolStats()
	rng := rand.New(rand.NewSource(cfg.Seed + int64(sets)*7 + int64(keys)*13 + int64(frac*1e6)))
	for _, n := range g.XSets {
		c, err := measurePoint(large, n, frac, cfg.Reps, cfg.Extended, rng)
		if err != nil {
			return nil, err
		}
		g.Curves = append(g.Curves, *c)
	}
	if cfg.PoolPages > 0 {
		// The cached database's pools accumulate across groups and
		// figures; report this group's delta.
		after := large.PoolStats()
		after.Sub(before)
		g.Pool = &after
	}
	return g, nil
}

// measurePoint averages page reads over reps repetitions for one x value.
func measurePoint(db *workload.LargeDB, nSets int, frac float64, reps int, extended bool, rng *rand.Rand) (*Curve, error) {
	domain := db.KeyDomain()
	var cur Curve
	for rep := 0; rep < reps; rep++ {
		// With pools in play, start each repetition cold at the tree
		// layer so node fetches reach the pools. Dropping the caches
		// consumes no randomness and the logical counters are accounted
		// before any cache, so the measured curves are unchanged.
		if len(db.Pools) > 0 {
			db.DropCaches()
		}
		// Pick the queried key (exact) or range.
		var lo, hi uint64
		if frac == 0 {
			lo = uint64(rng.Intn(domain))
			hi = lo
		} else {
			width := max(1, int(frac*float64(domain)))
			start := rng.Intn(max(1, domain-width+1))
			lo, hi = uint64(start), uint64(start+width-1)
		}

		near := workload.QueriedSets(db.Config.Sets, nSets, true, rng)
		far := workload.QueriedSets(db.Config.Sets, nSets, false, rng)
		// The paper generates the CG-tree's sets randomly ("set
		// adjacency does not influence its performance").
		cgSets := workload.QueriedSets(db.Config.Sets, nSets, false, rng)

		uq := func(setIdx []int) (int, error) {
			pos := core.Position{}
			for _, s := range setIdx {
				pos.Alts = append(pos.Alts, core.ClassPattern{Class: db.Sets[s]})
			}
			var vp core.ValuePred
			switch {
			case frac == 0:
				vp = core.Exact(lo)
			case db.Config.Keys > 0:
				vp = core.Uint64Range(lo, hi) // enumerable range
			default:
				vp = core.Range(lo, hi) // unique keys: continuous
			}
			_, stats, err := db.UIndex.Execute(core.Query{Value: vp, Positions: []core.Position{pos}}, core.Parallel, nil)
			return stats.PagesRead, err
		}
		pNear, err := uq(near)
		if err != nil {
			return nil, err
		}
		pFar, err := uq(far)
		if err != nil {
			return nil, err
		}
		cgIDs := make([]cgtree.SetID, len(cgSets))
		for i, s := range cgSets {
			cgIDs[i] = cgtree.SetID(s)
		}
		var cgStats cgtree.Stats
		if frac == 0 {
			_, cgStats, err = db.CG.ExactMatch(workload.Key8(lo), cgIDs, nil)
		} else {
			_, cgStats, err = db.CG.RangeQuery(workload.Key8(lo), workload.Key8(hi), cgIDs, nil)
		}
		if err != nil {
			return nil, err
		}
		cur.UNear += float64(pNear)
		cur.UFar += float64(pFar)
		cur.CG += float64(cgStats.PagesRead)

		if extended {
			chIDs := make([]chtree.SetID, len(cgSets))
			hIDs := make([]htree.SetID, len(cgSets))
			for i, s := range cgSets {
				chIDs[i] = chtree.SetID(s)
				hIDs[i] = htree.SetID(s)
			}
			var chStats chtree.Stats
			var hStats htree.Stats
			if frac == 0 {
				_, chStats, err = db.CH.ExactMatch(workload.Key8(lo), chIDs, nil)
				if err != nil {
					return nil, err
				}
				_, hStats, err = db.H.ExactMatch(workload.Key8(lo), hIDs, nil)
			} else {
				_, chStats, err = db.CH.RangeQuery(workload.Key8(lo), workload.Key8(hi), chIDs, nil)
				if err != nil {
					return nil, err
				}
				_, hStats, err = db.H.RangeQuery(workload.Key8(lo), workload.Key8(hi), hIDs, nil)
			}
			if err != nil {
				return nil, err
			}
			cur.CH += float64(chStats.PagesRead)
			cur.H += float64(hStats.PagesRead)
		}
	}
	n := float64(reps)
	cur.UNear /= n
	cur.UFar /= n
	cur.CG /= n
	cur.CH /= n
	cur.H /= n
	return &cur, nil
}
