// Command uindexbench regenerates the tables and figures of Gudes, "A
// Uniform Indexing Scheme for Object-Oriented Databases": Table 1 (node
// counts on the 12,000-record Figure-1 database) and Figures 5–8 (page
// reads of the U-index vs the CG-tree on the 150,000-object database).
//
// Usage:
//
//	uindexbench -exp all                 # everything at paper scale
//	uindexbench -exp fig5 -quick         # one figure, scaled down
//	uindexbench -exp fig6 -extended      # add CH-tree and H-tree curves
//	uindexbench -exp table1 -seed 7
//	uindexbench -exp fig5 -cpuprofile cpu.out -memprofile mem.out
//
// Experiments: table1, fig5, fig6, fig7, fig8, storage, updates, all. The
// engine's performance benchmark is `bash bench/run.sh` (see bench/README.md).
//
// Any run accepts -cpuprofile/-memprofile; inspect the output with
// `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run())
}

// fail reports an error; profiles still flush because run() returns
// normally instead of calling os.Exit directly.
func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	return 1
}

func run() int {
	var (
		exp       = flag.String("exp", "all", "experiment: table1|fig5|fig6|fig7|fig8|storage|updates|all")
		objects   = flag.Int("objects", 150000, "objects in the large database")
		reps      = flag.Int("reps", 100, "repetitions per measured point")
		seed      = flag.Int64("seed", 1996, "random seed")
		quick     = flag.Bool("quick", false, "scaled-down grid (12,000 objects, 15 reps)")
		extended  = flag.Bool("extended", false, "also measure CH-tree and H-tree curves")
		poolPages = flag.Int("poolpages", 0, "run page files through a buffer pool with this many frames (0 = off); adds a physical-I/O column, logical counts are unchanged")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fail("uindexbench: cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail("uindexbench: cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintf(os.Stderr, "uindexbench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live allocations, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "uindexbench: memprofile: %v\n", err)
			}
		}()
	}

	cfg := experiments.GridConfig{Objects: *objects, Reps: *reps, Seed: *seed, Extended: *extended}
	if *quick {
		cfg = experiments.QuickGrid()
		cfg.Extended = *extended
		cfg.Seed = *seed
	}
	cfg.PoolPages = *poolPages

	runExp := func(name string, f func() error) error {
		start := time.Now()
		fmt.Printf("== %s ==\n", name)
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("(%s took %s)\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	any := false
	if want("table1") {
		any = true
		if err := runExp("table1", func() error {
			r, err := experiments.RunTable1With(*seed, experiments.Table1Options{PoolPages: *poolPages})
			if err != nil {
				return err
			}
			experiments.RenderTable1(os.Stdout, r)
			return nil
		}); err != nil {
			return fail("uindexbench: %v", err)
		}
	}
	figs := []struct {
		name string
		f    func(experiments.GridConfig) (*experiments.FigureResult, error)
	}{
		{"fig5", experiments.RunFigure5},
		{"fig6", experiments.RunFigure6},
		{"fig7", experiments.RunFigure7},
	}
	for _, fig := range figs {
		if !want(fig.name) {
			continue
		}
		any = true
		fig := fig
		if err := runExp(fig.name, func() error {
			r, err := fig.f(cfg)
			if err != nil {
				return err
			}
			experiments.RenderFigure(os.Stdout, r)
			return nil
		}); err != nil {
			return fail("uindexbench: %v", err)
		}
	}
	if want("storage") {
		any = true
		if err := runExp("storage", func() error {
			for _, keys := range []int{0, 100, 1000} {
				r, err := experiments.RunStorage(cfg.Objects, 40, keys, *seed)
				if err != nil {
					return err
				}
				experiments.RenderStorage(os.Stdout, r)
			}
			return nil
		}); err != nil {
			return fail("uindexbench: %v", err)
		}
	}
	if want("updates") {
		any = true
		if err := runExp("updates", func() error {
			r, err := experiments.RunUpdateCost(*seed, max(1, *reps/5))
			if err != nil {
				return err
			}
			experiments.RenderUpdateCost(os.Stdout, r)
			return nil
		}); err != nil {
			return fail("uindexbench: %v", err)
		}
	}
	if want("fig8") {
		any = true
		if err := runExp("fig8", func() error {
			r, err := experiments.RunFigure8(cfg)
			if err != nil {
				return err
			}
			experiments.RenderFigure8(os.Stdout, r)
			return nil
		}); err != nil {
			return fail("uindexbench: %v", err)
		}
	}
	if !any {
		fmt.Fprintf(os.Stderr, "uindexbench: unknown experiment %q (want %s)\n",
			*exp, strings.Join([]string{"table1", "fig5", "fig6", "fig7", "fig8", "storage", "updates", "all"}, "|"))
		return 2
	}
	return 0
}
