package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// definition is the part of BENCHMARK.json the benchmark itself reads:
// the names it must report and the bound of each end-to-end metric. The
// file is the single home of those numbers.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDefinition(path string) (*definition, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d definition
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// compareFiles prints, for every workload two untraced result files
// share, how far each end-to-end metric of B lies from A's, and reports
// whether all of them are within their bounds and free of failed ops. It
// answers "do two runs of one commit agree" and "did a change move
// anything" alike, so a difference in either direction is a difference;
// the printed direction says which it was.
func compareFiles(w io.Writer, boundsPath, pathA, pathB string) (bool, error) {
	def, err := readDefinition(boundsPath)
	if err != nil {
		return false, err
	}
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	if ka, kb := a.Meta.comparable(), b.Meta.comparable(); ka != kb {
		return false, fmt.Errorf("results are from different set-ups and cannot be compared: %s vs %s", ka, kb)
	}
	return compareReports(w, def, a, b), nil
}

// comparable renders the fields that must match between two result files.
func (m runMeta) comparable() string {
	return fmt.Sprintf("%s nproc=%d GOMAXPROCS=%d kernel=%s seconds=%d", m.Go, m.NProc, m.GOMAXPROCS, m.Kernel, m.Seconds)
}

func compareReports(w io.Writer, def *definition, a, b *report) bool {
	byName := map[string]*outcome{}
	for _, o := range b.Outcomes {
		if !o.Traced {
			byName[o.Workload] = o
		}
	}
	ok, shared := true, 0
	for _, oa := range a.Outcomes {
		ob := byName[oa.Workload]
		if oa.Traced || ob == nil {
			continue
		}
		shared++
		fmt.Fprintf(w, "== %s\n", oa.Workload)
		for _, o := range []*outcome{oa, ob} {
			if !o.Correct || o.Failed > 0 {
				fmt.Fprintf(w, "  FAILED OPS: %d of %d attempted, correct=%v\n", o.Failed, o.Attempted, o.Correct)
				ok = false
			}
		}
		for _, m := range def.EndToEnd {
			va, vb := oa.Metrics[m.Name].Value, ob.Metrics[m.Name].Value
			if va == 0 {
				fmt.Fprintf(w, "  %-18s missing from the first file\n", m.Name)
				ok = false
				continue
			}
			change := (vb - va) / va
			verdict := "same"
			if change > m.Bound || -change > m.Bound {
				verdict = "WORSE"
				if (change < 0) == (m.Better == "lower") {
					verdict = "BETTER"
				}
				ok = false
			}
			fmt.Fprintf(w, "  %-18s %14.4f -> %14.4f %-4s %+7.2f%% (bound %.0f%%) %s\n",
				m.Name, va, vb, m.Unit, 100*change, 100*m.Bound, verdict)
		}
	}
	if shared == 0 {
		fmt.Fprintln(w, "the two files share no untraced workload")
		return false
	}
	return ok
}
