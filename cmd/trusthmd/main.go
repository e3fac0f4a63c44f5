// Command trusthmd runs the full trusted-HMD demo: it trains (or loads) the
// DVFS detector, then streams live simulated telemetry from a mix of known
// applications and zero-day malware through the online detector, printing
// each decision as it is made (the deployment loop of the paper's Fig. 1).
//
// With -save the trained detector is serialized after training; with -load
// a previously saved detector serves immediately without retraining — the
// train-once-serve-many workflow of a production deployment. A -save
// snapshot is also the handoff to the serving daemon: `trusthmdd -load
// detector.gob` (cmd/trusthmdd) serves the same detector over HTTP.
//
// `trusthmd push` is the daemon's telemetry client: one pass over a
// directory of CSV drops (device,f0,f1,... per line), posting every new
// or changed file to /v1/assess/batch and journaling it once delivered
// (see push.go).
//
// Usage:
//
//	trusthmd [-model rf|lr|svm|nb|knn] [-threshold 0.40] [-windows 40]
//	         [-seed 1] [-save detector.gob] [-load detector.gob]
//	trusthmdd -load detector.gob             # then serve it over HTTP
//	trusthmd push -dir drops -addr http://localhost:8080
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"trusthmd/internal/dvfs"
	"trusthmd/internal/gen"
	"trusthmd/internal/workload"
	"trusthmd/pkg/detector"

	// Registers the gradient-boosted-stumps family so -model gbm trains and
	// -save writes blobs that trusthmdd (which blank-imports it too) serves.
	_ "trusthmd/pkg/model/gbm"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "push" {
		if err := runPush(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "trusthmd push:", err)
			os.Exit(1)
		}
		return
	}
	var (
		model     = flag.String("model", "rf", "base classifier registry name (see pkg/detector)")
		threshold = flag.Float64("threshold", detector.DefaultThreshold, "entropy rejection threshold")
		windows   = flag.Int("windows", 40, "number of telemetry windows to stream")
		seed      = flag.Int64("seed", 1, "random seed")
		savePath  = flag.String("save", "", "write the trained detector to this file")
		loadPath  = flag.String("load", "", "serve a previously saved detector instead of training")
	)
	flag.Parse()
	// A saved detector carries its own threshold; only an explicit
	// -threshold flag overrides it after -load.
	thresholdSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "threshold" {
			thresholdSet = true
		}
	})
	if err := run(*model, *threshold, thresholdSet, *windows, *seed, *savePath, *loadPath); err != nil {
		fmt.Fprintln(os.Stderr, "trusthmd:", err)
		os.Exit(1)
	}
}

func run(model string, threshold float64, thresholdSet bool, windows int, seed int64, savePath, loadPath string) error {
	det, err := obtainDetector(model, threshold, thresholdSet, seed, loadPath)
	if err != nil {
		return err
	}
	if savePath != "" {
		// Atomic (temp file + rename): a daemon loading this path over
		// POST /v1/models must never observe a torn gob mid-write.
		if err := det.SaveFile(savePath); err != nil {
			return err
		}
		fmt.Printf("saved trained detector to %s (serve it: trusthmdd -load %s)\n", savePath, savePath)
	}

	sim, err := dvfs.NewSimulator(dvfs.DefaultConfig())
	if err != nil {
		return err
	}
	online, err := detector.NewOnline(det, detector.StreamConfig{
		Levels: sim.Config().Levels,
		Window: sim.Config().Steps,
	})
	if err != nil {
		return err
	}

	// Stream a mix: known benign, known malware, and zero-day workloads.
	apps := workload.DVFSApps()
	var pool []workload.DVFSBehavior
	for _, a := range apps {
		pool = append(pool, a)
	}
	rng := rand.New(rand.NewSource(seed + 99))
	fmt.Printf("streaming %d windows at threshold %.2f (model %s)\n\n", windows, det.Threshold(), det.Model())
	correctOrRejected := 0
	for w := 0; w < windows; w++ {
		app := pool[rng.Intn(len(pool))]
		trace, err := sim.Trace(app, rng)
		if err != nil {
			return err
		}
		for _, st := range trace {
			res, ok, err := online.Push(st)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			status := "OK"
			switch {
			case res.Decision == detector.Reject:
				status = "-> analyst"
				correctOrRejected++
			case res.Prediction == app.Label:
				correctOrRejected++
			default:
				status = "MISCLASSIFIED"
			}
			kind := "known"
			if !app.Known {
				kind = "ZERO-DAY"
			}
			fmt.Printf("window %3d  app=%-14s (%s, truth=%s)  decision=%-7v entropy=%.3f  %s\n",
				w, app.Name, kind, label(app.Label), res.Decision, res.Entropy, status)
		}
	}
	fmt.Printf("\nstats: %d benign, %d malware, %d rejected (%.1f%% of windows)\n",
		online.Stats.Benign, online.Stats.Malware, online.Stats.Rejected,
		100*online.Stats.RejectedFraction())
	fmt.Printf("safe outcomes (correct or routed to analyst): %d/%d\n",
		correctOrRejected, online.Stats.Total())
	return nil
}

// obtainDetector loads a saved detector or trains a fresh one.
func obtainDetector(model string, threshold float64, thresholdSet bool, seed int64, loadPath string) (*detector.Detector, error) {
	if loadPath != "" {
		f, err := os.Open(loadPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		det, err := detector.Load(f)
		if err != nil {
			return nil, err
		}
		fmt.Printf("loaded trained detector from %s (model %s, %d members)\n",
			loadPath, det.Model(), det.Members())
		if thresholdSet {
			return det.WithOptions(detector.WithThreshold(threshold))
		}
		return det, nil
	}

	fmt.Println("training trusted HMD on DVFS telemetry...")
	splits, err := gen.DVFSWithSizes(seed, gen.Sizes{Train: 2100, Test: 700, Unknown: 284})
	if err != nil {
		return nil, err
	}
	opts := []detector.Option{
		detector.WithModel(model),
		detector.WithEnsembleSize(25),
		detector.WithSeed(seed),
		detector.WithThreshold(threshold),
	}
	switch model {
	case "lr", "nb", "knn":
		opts = append(opts, detector.WithMaxFeatures(0.45))
	case "svm":
		opts = append(opts, detector.WithSVMMaxObjective(0.3))
	}
	return detector.New(splits.Train, opts...)
}

func label(l int) string {
	if l == 1 {
		return "malware"
	}
	return "benign"
}
