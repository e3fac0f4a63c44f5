// Command hmdbench regenerates every table and figure of the paper's
// evaluation, one experiment per entry of internal/exp's Experiments.
//
// Usage:
//
//	hmdbench [-exp all|ID[,ID...]] [-scale 1.0] [-seed 1] [-m 25] [-tsne-csv dir]
//
// `hmdbench -h` lists the experiment IDs; -exp all runs every one of them
// in table order.
//
// -scale 1.0 reproduces the paper's full Table I sizes (the HPC dataset has
// 63k samples; the full run takes about 35 s on a 2-vCPU machine, and
// `make paper` holds its output to testdata/golden/scale1.txt). Smaller
// scales give quick qualitative runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"trusthmd/internal/exp"
)

func experimentIDs() []string {
	ids := make([]string, len(exp.Experiments))
	for i, e := range exp.Experiments {
		ids[i] = e.ID
	}
	return ids
}

// tsneDir is -tsne-csv: the directory F8 dumps its embedding coordinates
// into, or "" for no dump.
var tsneDir string

func main() {
	var (
		which = flag.String("exp", "all", "experiment id ("+strings.Join(experimentIDs(), ",")+"), a comma-separated list of them, or 'all'")
		scale = flag.Float64("scale", 1.0, "fraction of the paper's Table I split sizes")
		seed  = flag.Int64("seed", 1, "random seed")
		m     = flag.Int("m", 25, "ensemble size")
	)
	flag.StringVar(&tsneDir, "tsne-csv", "", "directory to dump Fig. 8 embedding coordinates as CSV")
	flag.Parse()

	cfg := exp.Config{Seed: *seed, Scale: *scale, M: *m}
	ids := strings.Split(*which, ",")
	if *which == "all" {
		ids = experimentIDs()
	}
	for _, id := range ids {
		if err := run(strings.TrimSpace(id), cfg); err != nil {
			fmt.Fprintf(os.Stderr, "hmdbench: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

// run runs one experiment and prints its rendering.
func run(id string, cfg exp.Config) error {
	for _, e := range exp.Experiments {
		if e.ID != id {
			continue
		}
		res, err := e.Run(cfg)
		if err != nil {
			return err
		}
		out := res.Render()
		if panels, ok := res.(exp.Fig8Panels); ok && tsneDir != "" {
			if out, err = dumpTSNE(panels, tsneDir); err != nil {
				return err
			}
		}
		fmt.Println(out)
		return nil
	}
	return fmt.Errorf("unknown experiment %q (want one of %s)", id, strings.Join(experimentIDs(), ","))
}

// dumpTSNE writes each panel's points to dir/fig8_<dataset>.csv and returns
// F8's rendering with the line naming each dump after its panel.
func dumpTSNE(panels exp.Fig8Panels, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var out []string
	for _, r := range panels {
		var csv strings.Builder
		csv.WriteString("x,y,label,group,app\n")
		for _, p := range r.Points {
			fmt.Fprintf(&csv, "%g,%g,%d,%s,%s\n", p.X, p.Y, p.Label, p.Group, p.App)
		}
		path := filepath.Join(dir, fmt.Sprintf("fig8_%s.csv", strings.ToLower(r.Dataset)))
		if err := os.WriteFile(path, []byte(csv.String()), 0o666); err != nil {
			return "", err
		}
		out = append(out, r.Render(), fmt.Sprintf("wrote %s (%d points)", path, len(r.Points)))
	}
	return strings.Join(out, "\n"), nil
}
