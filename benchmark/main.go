// Command benchmark is the repository's benchmark: it boots the real
// serving stack in-process with daemon defaults, drives five named
// workloads at it from the same process, checks every verdict against a
// direct Detector.Assess, and prints end-to-end metrics (untraced) or
// per-layer metrics (traced). README.md has the tables and the limits.
//
//	benchmark -workload batch-closed -seed 1 -seconds 10 -trace 0
//	benchmark -seed 1 -out a.json            # every workload, untraced
//	benchmark -seed 1 -trace 1               # every workload, traced
//	benchmark -compare a.json b.json         # gate two result files
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all of them)")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs: vectors, devices, arrival schedule")
		seconds = flag.Int("seconds", 18, "length of the measured window, per workload")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		out     = flag.String("out", "", "also write the results to this JSON file (input of -compare)")
		work    = flag.String("workdir", ".bench_build", "directory for verdict stores and span dumps; created if missing")
		compare = flag.Bool("compare", false, "compare two result files given as arguments against the bounds in -bounds")
		bounds  = flag.String("bounds", "BENCHMARK.json", "benchmark definition holding the end-to-end metrics' bounds")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fail(errors.New("-compare needs two result files"))
		}
		ok, err := compareFiles(os.Stdout, *bounds, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	// The generator and the program share this process and its cores.
	runtime.GOMAXPROCS(runtime.NumCPU())

	todo := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fail(err)
		}
		todo = []workload{w}
	}
	dir, cleanup, err := workDir(*work)
	if err != nil {
		fail(err)
	}

	m := meta(*seed, *seconds)
	fmt.Printf("commit %s, %s, nproc %d, GOMAXPROCS %d, kernel %s, seed %d, %d s\n",
		m.Commit, m.Go, m.NProc, m.GOMAXPROCS, m.Kernel, m.Seed, m.Seconds)

	rep := report{Meta: m}
	wrong := false
	for _, w := range todo {
		var o *outcome
		sub := filepath.Join(dir, w.name)
		pl := fullPlan(*seconds)
		if *trace == 1 {
			spans := filepath.Join(*work, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed))
			o, err = runTraced(w, *seed, pl, sub, spans, m)
		} else {
			o, err = runUntraced(w, *seed, pl, sub)
		}
		if err != nil {
			cleanup()
			fail(err)
		}
		o.print(os.Stdout)
		rep.Outcomes = append(rep.Outcomes, o)
		wrong = wrong || !o.Correct
	}
	cleanup()

	if *out != "" {
		if err := rep.write(*out); err != nil {
			fail(err)
		}
	}
	// The last line is the machine-readable summary: of the one workload
	// asked for, or of the last one when all ran.
	fmt.Println(rep.Outcomes[len(rep.Outcomes)-1].line())
	if wrong {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
