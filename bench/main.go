// Command bench is the one benchmark of the U-index engine: four workloads,
// eleven bounded end-to-end metrics plus a failure count, and per-layer
// attribution from a separate traced pass. See README.md in this directory
// and BENCHMARK.json at the root of the repository.
//
//	bash bench/run.sh                                  every workload, untraced + traced
//	bash bench/run.sh -workload NAME -trace 0|1        one run
//	bash bench/run.sh -compare old.json new.json       regression table
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// setups is how often a run sets its database up; setup_s is the median.
const setups = 5

// declarationPath is where -compare finds the bounds; run.sh runs the
// benchmark from the root of the repository.
const declarationPath = "BENCHMARK.json"

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all four, each in its own process)")
		seed         = flag.Int64("seed", workingSeed, "seed of the data, the query values and the op streams")
		seconds      = flag.Float64("seconds", 24, "length of the timed phase, split into 3 slices")
		trace        = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		dir          = flag.String("dir", "", "data directory (default: a fresh one under -outdir), removed on exit")
		outDir       = flag.String("outdir", filepath.Join("bench", "out"), "where results, traces and the default data directory go")
		out          = flag.String("out", "", "also write the full result as JSON to this file")
		compare      = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("usage: -compare old.json new.json")
		} else {
			err = compareFiles(os.Stdout, declarationPath, flag.Arg(0), flag.Arg(1))
		}
	case *workloadName == "":
		err = runAll(*outDir, *out, flag.CommandLine)
	default:
		sp, ok := specByName(*workloadName)
		if !ok {
			err = fmt.Errorf("unknown workload %q", *workloadName)
			break
		}
		err = runOne(config{spec: sp, seed: *seed, seconds: *seconds, trace: *trace != 0, dir: *dir, setups: setups}, *outDir, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect makes the process exit non-zero after the result is printed.
var errIncorrect = errors.New("failed_ratio is not 0")

// runOne runs cfg, prints every metric, and ends standard output with the
// one-line result. An empty cfg.dir selects a fresh directory under outDir.
func runOne(cfg config, outDir, out string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if cfg.dir == "" {
		var err error
		if cfg.dir, err = os.MkdirTemp(outDir, "data-"); err != nil {
			return err
		}
	} else if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.dir)
	if cfg.trace {
		cfg.traceOut = filepath.Join(outDir, "trace-"+cfg.spec.name+".json")
	}
	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return err
		}
	}
	line, err := res.driverLine()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runAll runs every workload, untraced then traced, each in a process of its
// own so that peak_rss_mb and allocs_per_op belong to that workload alone,
// and merges the results into one file.
func runAll(outDir, out string, flags *flag.FlagSet) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if out == "" {
		out = filepath.Join(outDir, "result.json")
	}
	var pass []string // every flag the user set goes to the children unchanged
	flags.Visit(func(f *flag.Flag) {
		if f.Name != "out" {
			pass = append(pass, "-"+f.Name+"="+f.Value.String())
		}
	})
	var all []*result
	var failed error
	for i := range specs {
		for _, trace := range []string{"0", "1"} {
			part := filepath.Join(outDir, fmt.Sprintf("part-%s-%s.json", specs[i].name, trace))
			cmd := exec.Command(self, append(pass, "-workload="+specs[i].name, "-trace="+trace, "-out="+part)...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = fmt.Errorf("%s trace=%s: %w", specs[i].name, trace, err)
			}
			var r result
			if err := readJSON(part, &r); err != nil {
				return err
			}
			os.Remove(part)
			all = append(all, &r)
		}
	}
	if err := writeJSON(out, all); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return failed
}
