package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"

	"trusthmd/pkg/linalg/kernel"
)

// metric is one reported value in the form the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is everything one run of one workload reports.
type outcome struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Valid     bool              `json:"valid"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Detail    map[string]detail `json:"detail,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	order     []string          // metric names in print order
	err       error             // why Correct is false
}

// detail is what stands beside an end-to-end metric in the table: for a
// load metric the same figure over the whole window, for set-up time the
// extremes, and the number of samples behind the value either way.
type detail struct {
	Whole   float64 `json:"whole_window,omitempty"`
	Min     float64 `json:"min,omitempty"`
	Max     float64 `json:"max,omitempty"`
	Samples int     `json:"samples"`
}

func newOutcome(name string, win window) *outcome {
	return &outcome{
		Workload: name, Valid: true,
		Attempted: win.attempted, Failed: win.failed,
		Metrics: map[string]metric{}, Detail: map[string]detail{},
	}
}

// load records a load metric: its value over the calm slices, and the
// whole-window figure for the table.
func (o *outcome) load(name, unit string, calm, whole float64, ops int) {
	o.set(name, unit, calm)
	o.Detail[name] = detail{Whole: whole, Samples: ops}
}

// set records a single-valued metric.
func (o *outcome) set(name, unit string, v float64) {
	if _, seen := o.Metrics[name]; !seen {
		o.order = append(o.order, name)
	}
	o.Metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable table.
func (o *outcome) print(w io.Writer) {
	mode := "untraced"
	if o.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): %d ops attempted, %d failed\n", o.Workload, mode, o.Attempted, o.Failed)
	for _, name := range o.order {
		m := o.Metrics[name]
		fmt.Fprintf(w, "  %-32s %14.4f %-6s", name, m.Value, m.Unit)
		if d, ok := o.Detail[name]; ok && d.Whole != 0 {
			fmt.Fprintf(w, "  calm slices, n=%d; whole window %.4f", d.Samples, d.Whole)
		} else if ok {
			fmt.Fprintf(w, "  median of %d, %.4f..%.4f", d.Samples, d.Min, d.Max)
		}
		fmt.Fprintln(w)
	}
	for _, n := range o.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if o.err != nil {
		fmt.Fprintf(w, "  WRONG: %v\n", o.err)
	}
}

// line is the one-object summary the driver parses: exactly these keys.
func (o *outcome) line() string {
	b, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, o.Metrics})
	return string(b)
}

// runMeta identifies what was measured and on what, so results from
// different commits, toolchains, core counts or kernel dispatch arms are
// never compared by accident.
type runMeta struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func meta(seed int64, seconds int) runMeta {
	m := runMeta{
		Commit: "unknown", Go: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel: kernel.Active(), Seed: seed, Seconds: seconds,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// report is the result file -out writes and -compare reads.
type report struct {
	Meta     runMeta    `json:"meta"`
	Outcomes []*outcome `json:"outcomes"`
}

func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
