// Command hmdbench regenerates every table and figure of the paper's
// evaluation, one experiment per entry of the experiments table below.
//
// Usage:
//
//	hmdbench [-exp all|ID[,ID...]] [-scale 1.0] [-seed 1] [-m 25] [-tsne-csv dir]
//
// `hmdbench -h` lists the experiment IDs; -exp all runs every one of them
// in table order.
//
// -scale 1.0 reproduces the paper's full Table I sizes (the HPC dataset has
// 63k samples; the full run takes a few minutes). Smaller scales give quick
// qualitative runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"trusthmd/internal/exp"
)

type renderer interface{ Render() string }

// result adapts an experiment runner returning its own result type to the
// table's signature.
func result[R renderer](f func(exp.Config) (R, error)) func(exp.Config) (renderer, error) {
	return func(cfg exp.Config) (renderer, error) { return f(cfg) }
}

// experiments is the index of the paper's artefacts: T = table, F = figure,
// H = the headline numbers, A = ablations, E = extensions beyond the paper.
var experiments = []struct {
	id  string
	run func(exp.Config) (renderer, error)
}{
	{"T1", result(exp.TableI)},
	{"F4", result(exp.Fig4)},
	{"F5", result(exp.Fig5)},
	{"F7a", result(exp.Fig7a)},
	{"F7b", result(exp.Fig7b)},
	{"F8", fig8},
	{"F9a", result(exp.Fig9a)},
	{"F9b", result(exp.Fig9b)},
	{"H", result(exp.Headlines)},
	{"A1", result(exp.AblationPlatt)},
	{"A2", result(exp.AblationPosterior)},
	{"A3", result(exp.AblationDiversity)},
	{"A4", result(exp.AblationFamilies)},
	{"A5", result(exp.AblationSources)},
	{"E1", result(exp.EMGeneralization)},
	{"E2", result(exp.GovernorSensitivity)},
}

func experimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
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
	for _, e := range experiments {
		if e.id != id {
			continue
		}
		res, err := e.run(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		return nil
	}
	return fmt.Errorf("unknown experiment %q (want one of %s)", id, strings.Join(experimentIDs(), ","))
}

// renderedLines is an experiment whose output is already rendered: F8's
// two embeddings, each followed by the line naming its CSV dump.
type renderedLines []string

func (r renderedLines) Render() string { return strings.Join(r, "\n") }

// fig8 embeds the DVFS and then the HPC dataset, dumping each embedding
// under tsneDir when it is set.
func fig8(cfg exp.Config) (renderer, error) {
	var out renderedLines
	for _, which := range []string{"DVFS", "HPC"} {
		r, err := exp.Fig8(cfg, which)
		if err != nil {
			return nil, err
		}
		out = append(out, r.Render())
		if tsneDir != "" {
			line, err := dumpTSNE(r, tsneDir)
			if err != nil {
				return nil, err
			}
			out = append(out, line)
		}
	}
	return out, nil
}

// dumpTSNE writes r's points to dir/fig8_<dataset>.csv and returns the
// line reporting it.
func dumpTSNE(r *exp.TSNEResult, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var csv strings.Builder
	csv.WriteString("x,y,label,group,app\n")
	for _, p := range r.Points {
		fmt.Fprintf(&csv, "%g,%g,%d,%s,%s\n", p.X, p.Y, p.Label, p.Group, p.App)
	}
	path := filepath.Join(dir, fmt.Sprintf("fig8_%s.csv", strings.ToLower(r.Dataset)))
	if err := os.WriteFile(path, []byte(csv.String()), 0o666); err != nil {
		return "", err
	}
	return fmt.Sprintf("wrote %s (%d points)", path, len(r.Points)), nil
}
