package main

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// result is what one run of one workload reports.
type result struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Header    header            `json:"header"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload is one run: set-up, calibration, then either the untraced
// timed phase that yields the end-to-end metrics or the traced pass that
// yields the per-layer ones. The two never share a run, so tracing cannot
// touch an end-to-end number.
func runWorkload(ctx context.Context, cfg config) (*result, error) {
	vehicles := cfg.spec.vehicles
	if cfg.vehicles > 0 {
		vehicles = cfg.vehicles
	}
	d := genData(cfg.seed, vehicles)
	in, setups, err := buildInstance(cfg, d)
	if err != nil {
		return nil, err
	}
	defer in.close()
	rn := &run{cfg: cfg, in: in, data: d}
	if err := rn.connect(); err != nil {
		return nil, err
	}
	defer rn.disconnect()
	rn.calibrate(ctx)
	// Collect the garbage of the set-ups now, not inside the first slice, and
	// write their dirty pages back now, not under the window's fsyncs: a
	// commit that waits behind the writeback of the load takes twice as long.
	debug.FreeOSMemory() // a full collection, then the freed pages go back
	syscall.Sync()

	res := &result{Workload: cfg.spec.name, Trace: cfg.trace, Metrics: map[string]metric{}}
	if cfg.trace {
		err = rn.tracedPass(ctx, res.Metrics)
	} else {
		err = rn.timedPass(ctx, setups, res.Metrics)
	}
	if err != nil {
		return nil, err
	}
	res.Header = newHeader(cfg, in, d)
	res.Attempted, res.Failed = rn.attempted.Load(), rn.failures.Load()
	res.Correct = res.Failed == 0
	res.Failures = rn.messages
	return res, nil
}

// timedPass measures the end-to-end metrics with tracing off.
func (rn *run) timedPass(ctx context.Context, setups []float64, out map[string]metric) error {
	sp := rn.cfg.spec
	win := rn.window(ctx, rn.cfg.seconds, false)
	commits := win
	if sp.writes == 0 {
		commits = rn.writeProbe(ctx)
	} else {
		rn.checkQuiesced(ctx)
	}
	rn.disconnect()
	spaceAmp, reopenS, err := rn.restart(ctx)
	if err != nil {
		return err
	}

	var ops, allocs, p50, p95, w50, w95, pages []float64
	reads, writes := 0, 0
	for _, sl := range win {
		ops = append(ops, sl.opsPerSec)
		allocs = append(allocs, ratio(float64(sl.mallocs), float64(sl.ops)))
		p50 = append(p50, percentile(sl.readUs, 0.50))
		p95 = append(p95, percentile(sl.readUs, 0.95))
		pages = append(pages, ratio(float64(sl.stats.PagesRead), float64(len(sl.readUs))))
		reads += len(sl.readUs)
	}
	for _, sl := range commits {
		w50 = append(w50, percentile(sl.writeUs, 0.50))
		w95 = append(w95, percentile(sl.writeUs, 0.95))
		writes += len(sl.writeUs)
	}
	n := len(win)
	out["setup_s"] = ofMedian("s", setups, len(setups))
	out["ops_per_s"] = ofMedian("1/s", ops, (reads+writes)/n)
	out["read_p50_us"] = ofMedian("us", p50, reads/n)
	out["read_p95_us"] = ofMedian("us", p95, reads/n)
	out["write_p50_us"] = ofMedian("us", w50, writes/len(commits))
	out["write_p95_us"] = ofMedian("us", w95, writes/len(commits))
	out["allocs_per_op"] = ofMedian("count", allocs, (reads+writes)/n)
	if sp.writes == 0 {
		// Read-only data: the calibration cycle is the same set of queries on
		// every machine, so this number repeats exactly for a seed.
		out["pages_per_query"] = metric{Value: rn.calibratedPages, Unit: "pages", Samples: rn.cycle * sp.clients}
	} else {
		out["pages_per_query"] = ofMedian("pages", pages, reads/n)
	}
	out["space_amp"] = metric{Value: spaceAmp, Unit: "ratio"}
	out["reopen_s"] = metric{Value: reopenS, Unit: "s", Samples: reopens}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	out["peak_rss_mb"] = metric{Value: rss, Unit: "MiB"}
	return nil
}

// checkQuiesced checks answers on data the window has changed. Inside the
// window a brute-force scan cannot be compared with an answer that other
// writers are changing, so it happens here, with every client idle: each
// refreshes its session and re-sends every 64th query of its cycle.
func (rn *run) checkQuiesced(ctx context.Context) {
	for _, c := range rn.clients {
		if nc, ok := c.conn.(netConn); ok {
			if err := nc.c.Refresh(ctx); err != nil {
				rn.fail(err)
			}
		}
		for i := 0; i < len(c.reads); i += checkEvery {
			rn.attempted.Add(1)
			ms, _, err := c.conn.query(ctx, &c.reads[i], c.parsed[i])
			if err != nil {
				rn.fail(err)
			} else if err := checkAnswer(rn.in.db, &c.reads[i], ms); err != nil {
				rn.fail(err)
			}
		}
	}
}

// peakRSSMiB reads VmHWM, the process's peak resident set.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}
