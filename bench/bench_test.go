package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at smoke scale. It
// keeps the benchmark from rotting: every metric BENCHMARK.json declares must
// be emitted under its declared unit and no other, nothing may fail, and on
// read-only data pages_per_query must repeat exactly for a seed.
func TestSmoke(t *testing.T) {
	decl, err := readDeclaration(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(specs))
	}
	run := func(t *testing.T, sp *spec, trace bool) *result {
		t.Helper()
		cfg := config{spec: sp, seed: workingSeed, seconds: 0.6, trace: trace,
			dir: t.TempDir(), vehicles: 1000, setups: 1}
		if trace {
			cfg.traceOut = filepath.Join(t.TempDir(), "trace.json")
		}
		res, err := runWorkload(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || !res.Correct {
			t.Fatalf("%d of %d failed: %v", res.Failed, res.Attempted, res.Failures)
		}
		return res
	}
	for _, wl := range decl.Workloads {
		sp, ok := specByName(wl.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", wl.Name)
		}
		t.Run(wl.Name, func(t *testing.T) {
			for _, pass := range []struct {
				trace bool
				want  []declared
			}{{false, decl.EndToEnd}, {true, decl.PerLayer}} {
				res := run(t, sp, pass.trace)
				if len(res.Metrics) != len(pass.want) {
					t.Errorf("trace=%v: %d metrics emitted, %d declared", pass.trace, len(res.Metrics), len(pass.want))
				}
				for _, d := range pass.want {
					if m, ok := res.Metrics[d.Name]; !ok {
						t.Errorf("trace=%v: %s not emitted", pass.trace, d.Name)
					} else if m.Unit != d.Unit {
						t.Errorf("%s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
					}
				}
				if pass.trace || sp.writes > 0 {
					continue
				}
				again := run(t, sp, false)
				if a, b := res.Metrics["pages_per_query"].Value, again.Metrics["pages_per_query"].Value; a != b {
					t.Errorf("pages_per_query %v, then %v with the same seed", a, b)
				}
			}
		})
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	decl := filepath.Join(dir, "BENCHMARK.json")
	if err := writeJSON(decl, map[string]any{
		"workloads": []map[string]string{{"name": "w"}},
		"end_to_end": []declared{
			{Name: "lat", Unit: "us", Better: "lower", Bound: 0.1},
			{Name: "tput", Unit: "1/s", Better: "higher", Bound: 0.1},
			{Name: "noisy", Unit: "us", Better: "lower", Bound: 0.1},
		},
	}); err != nil {
		t.Fatal(err)
	}
	write := func(name string, lat, tput, noisy float64, failed int64) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, []*result{{Workload: "w", Attempted: 100, Failed: failed, Metrics: map[string]metric{
			"lat": {Value: lat}, "tput": {Value: tput}, "noisy": {Value: noisy, Spread: 0.3},
		}}}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("old.json", 100, 1000, 100, 0)
	for _, tc := range []struct {
		name             string
		lat, tput, noisy float64
		failed           int64
		want             []string // verdicts of lat, tput, noisy, failed_ratio
		regressed        bool
	}{
		{"same", 100, 1000, 100, 0, []string{"within bound", "within bound", "unresolved", "within bound"}, false},
		{"faster", 80, 1200, 100, 0, []string{"better", "better", "unresolved", "within bound"}, false},
		{"slower", 120, 1000, 300, 0, []string{"worse", "within bound", "unresolved", "within bound"}, true},
		{"lower-tput", 100, 800, 100, 0, []string{"within bound", "worse", "unresolved", "within bound"}, true},
		{"failing", 100, 1000, 100, 1, []string{"within bound", "within bound", "unresolved", "worse"}, true},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, decl, base, write(tc.name+".json", tc.lat, tc.tput, tc.noisy, tc.failed))
		if (err != nil) != tc.regressed {
			t.Errorf("%s: err = %v, want regression %v", tc.name, err, tc.regressed)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")[1:]
		if len(lines) != len(tc.want) {
			t.Fatalf("%s: %d rows, want %d:\n%s", tc.name, len(lines), len(tc.want), out.String())
		}
		for i, want := range tc.want {
			if !strings.HasSuffix(lines[i], "  "+want) {
				t.Errorf("%s: row %q, want verdict %q", tc.name, lines[i], want)
			}
		}
	}
}
