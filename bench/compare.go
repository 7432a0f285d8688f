package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// declared is one metric of BENCHMARK.json.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// declaration is the part of BENCHMARK.json this program reads: the metric
// names, units, directions and regression bounds are declared there and
// nowhere else.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func readDeclaration(path string) (*declaration, error) {
	var d declaration
	if err := readJSON(path, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// readResults reads a file written by a run of every workload (a list) or by
// one run (a single result), keeping the untraced results by workload.
func readResults(path string) (map[string]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var all []*result
	if err := json.Unmarshal(b, &all); err != nil {
		var one result
		if err := json.Unmarshal(b, &one); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		all = []*result{&one}
	}
	out := map[string]*result{}
	for _, r := range all {
		if !r.Trace {
			out[r.Workload] = r
		}
	}
	return out, nil
}

// errRegression makes -compare exit 1.
var errRegression = errors.New("at least one metric is worse than its bound allows, or failed_ratio rose")

// compareFiles prints one row per (workload, end-to-end metric):
//
//	better        improved by more than the bound
//	within bound  moved by less than the bound, either way
//	worse         worsened by more than the bound
//	unresolved    the spread across slices of either side exceeds the bound,
//	              so the two medians cannot be told apart
func compareFiles(w io.Writer, declPath, oldPath, newPath string) error {
	decl, err := readDeclaration(declPath)
	if err != nil {
		return err
	}
	olds, err := readResults(oldPath)
	if err != nil {
		return err
	}
	news, err := readResults(newPath)
	if err != nil {
		return err
	}
	bad := false
	fmt.Fprintf(w, "%-18s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "worse by", "bound", "verdict")
	for _, wl := range decl.Workloads {
		o, n := olds[wl.Name], news[wl.Name]
		if o == nil || n == nil {
			fmt.Fprintf(w, "%-18s missing from one side\n", wl.Name)
			bad = true
			continue
		}
		for _, d := range decl.EndToEnd {
			om, nm := o.Metrics[d.Name], n.Metrics[d.Name]
			worse := ratio(nm.Value-om.Value, om.Value)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "within bound"
			switch {
			case max(om.Spread, nm.Spread) > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "worse"
				bad = true
			case worse < -d.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-18s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				wl.Name, d.Name, om.Value, nm.Value, 100*worse, 100*d.Bound, verdict)
		}
		of, nf := ratio(float64(o.Failed), float64(o.Attempted)), ratio(float64(n.Failed), float64(n.Attempted))
		verdict := "within bound"
		if nf > of {
			verdict = "worse"
			bad = true
		}
		fmt.Fprintf(w, "%-18s %-16s %14.6f %14.6f %9s %7s  %s\n", wl.Name, "failed_ratio", of, nf, "", "0", verdict)
	}
	if bad {
		return errRegression
	}
	return nil
}
