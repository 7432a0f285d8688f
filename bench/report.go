package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"syscall"

	"repro/internal/pager"
)

// header says where and on what a result was measured.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Uring      bool    `json:"io_uring"`
	Filesystem string  `json:"filesystem"` // of the data directory
	PageSize   int     `json:"page_size"`
	Vehicles   int     `json:"vehicles"`
	Companies  int     `json:"companies"`
	Employees  int     `json:"employees"`
	Seed       int64   `json:"seed"`
	SliceSecs  float64 `json:"slice_seconds"`
	Slices     int     `json:"slices"`
	Setups     int     `json:"setups"`
}

func newHeader(cfg config, in *instance, d *dataset) header {
	return header{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Uring:      pager.UringAvailable(),
		Filesystem: filesystem(cfg.dir),
		PageSize:   pager.NewMemFile(0).PageSize(),
		Vehicles:   len(d.vehicles),
		Companies:  len(d.companies),
		Employees:  len(d.ages),
		Seed:       cfg.seed,
		SliceSecs:  cfg.seconds / windowSlices,
		Slices:     windowSlices,
		Setups:     cfg.setups,
	}
}

// commit is the checked-out revision, or "unknown" outside a git work tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

var fsNames = map[int64]string{
	0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
	0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
}

func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// print writes every metric by name with its unit, and beside it the spread
// across the slices it is the median of.
func (r *result) print(w io.Writer) {
	h := r.Header
	fmt.Fprintf(w, "%s trace=%v: commit %s, %s, nproc %d, GOMAXPROCS %d, io_uring %v, %s, %d-byte pages\n",
		r.Workload, r.Trace, h.Commit, h.GoVersion, h.NumCPU, h.GoMaxProcs, h.Uring, h.Filesystem, h.PageSize)
	fmt.Fprintf(w, "  %d vehicles, %d companies, %d employees, seed %d, %d slices of %.2f s, %d set-ups\n",
		h.Vehicles, h.Companies, h.Employees, h.Seed, h.Slices, h.SliceSecs, h.Setups)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-42s %14.4f %-6s", name, m.Value, m.Unit)
		if m.Spread != 0 {
			fmt.Fprintf(w, " spread %5.1f%%", 100*m.Spread)
		}
		if m.Samples != 0 {
			fmt.Fprintf(w, " n=%d", m.Samples)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-42s %14.6f %-6s (%d of %d)\n", "failed_ratio",
		ratio(float64(r.Failed), float64(r.Attempted)), "ratio", r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// driverLine is the one-line summary the benchmark contract asks for as the
// last line of standard output.
func (r *result) driverLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	return json.Marshal(line)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
