// Package integration holds cross-module, end-to-end tests: full pipelines
// from telemetry simulation through feature extraction, training,
// uncertainty estimation, rejection and drift monitoring. Unit behaviour is
// covered in each package; these tests assert the composed system.
package integration

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"trusthmd/internal/core"
	"trusthmd/internal/dvfs"
	"trusthmd/internal/feature"
	"trusthmd/internal/gen"
	"trusthmd/internal/metrics"
	"trusthmd/internal/workload"
	"trusthmd/pkg/dataset"
	"trusthmd/pkg/detector"
)

// TestEndToEndZeroDayScreening runs the paper's core scenario on a reduced
// dataset: train on known apps, verify unknown apps are rejected at a far
// higher rate than known test data, and that the accepted known predictions
// are accurate.
func TestEndToEndZeroDayScreening(t *testing.T) {
	splits, err := gen.DVFSWithSizes(1, gen.Sizes{Train: 700, Test: 280, Unknown: 120})
	if err != nil {
		t.Fatal(err)
	}
	d, err := detector.New(splits.Train,
		detector.WithModel("rf"), detector.WithEnsembleSize(25), detector.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	rKnown, err := d.AssessDataset(splits.Test)
	if err != nil {
		t.Fatal(err)
	}
	rUnknown, err := d.AssessDataset(splits.Unknown)
	if err != nil {
		t.Fatal(err)
	}
	preds := detector.Predictions(rKnown)
	hKnown := detector.Entropies(rKnown)
	hUnknown := detector.Entropies(rUnknown)
	op, err := core.At(0.40, hKnown, hUnknown)
	if err != nil {
		t.Fatal(err)
	}
	if op.UnknownRejectedPct < 55 {
		t.Fatalf("unknown rejection %.1f%% too low", op.UnknownRejectedPct)
	}
	if op.KnownRejectedPct > 20 {
		t.Fatalf("known rejection %.1f%% too high", op.KnownRejectedPct)
	}
	// Accepted known predictions must be near-perfect.
	accepted := make([]bool, len(hKnown))
	r := core.Rejector{Threshold: 0.40}
	for i, h := range hKnown {
		accepted[i] = r.Accept(h)
	}
	rep, _, err := metrics.ScoreAccepted(splits.Test.Y(), preds, accepted)
	if err != nil {
		t.Fatal(err)
	}
	if rep.F1 < 0.97 {
		t.Fatalf("accepted-known F1 %.3f too low", rep.F1)
	}
}

// TestCSVRoundTripPreservesPipelineBehaviour trains on a dataset, writes it
// to CSV, reads it back and retrains: predictions must be identical.
func TestCSVRoundTripPreservesPipelineBehaviour(t *testing.T) {
	splits, err := gen.DVFSWithSizes(2, gen.Sizes{Train: 280, Test: 70, Unknown: 40})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := splits.Train.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := dataset.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rfOpts := []detector.Option{
		detector.WithModel("rf"), detector.WithEnsembleSize(9), detector.WithSeed(9)}
	pa, err := detector.New(splits.Train, rfOpts...)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := detector.New(back, rfOpts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < splits.Test.Len(); i++ {
		x := splits.Test.At(i).Features
		aa, err := pa.Assess(x)
		if err != nil {
			t.Fatal(err)
		}
		ab, err := pb.Assess(x)
		if err != nil {
			t.Fatal(err)
		}
		if aa.Prediction != ab.Prediction || math.Abs(aa.Entropy-ab.Entropy) > 1e-12 {
			t.Fatalf("sample %d: round-tripped training diverged", i)
		}
	}
}

// TestOnlineDetectorWithDriftMonitor composes the streaming detector with
// the drift monitor over a simulated compromise and asserts the alarm fires
// in the compromise phase, not the benign phase.
func TestOnlineDetectorWithDriftMonitor(t *testing.T) {
	splits, err := gen.DVFSWithSizes(3, gen.Sizes{Train: 700, Test: 280, Unknown: 40})
	if err != nil {
		t.Fatal(err)
	}
	d, err := detector.New(splits.Train,
		detector.WithModel("rf"), detector.WithEnsembleSize(15),
		detector.WithSeed(3), detector.WithThreshold(0.40))
	if err != nil {
		t.Fatal(err)
	}

	sim, err := dvfs.NewSimulator(dvfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	online, err := detector.NewOnline(d, detector.StreamConfig{
		Levels: sim.Config().Levels,
		Window: sim.Config().Steps,
	})
	if err != nil {
		t.Fatal(err)
	}

	apps := map[string]workload.DVFSBehavior{}
	for _, a := range workload.DVFSApps() {
		apps[a.Name] = a
	}
	rng := rand.New(rand.NewSource(3))
	benignMix := []string{"idle_launcher", "video_stream", "music_player", "ebook_reader"}

	var monitor *detector.DriftMonitor
	stream := func(names []string, windows int) (alarms int) {
		for w := 0; w < windows; w++ {
			app := apps[names[rng.Intn(len(names))]]
			trace, err := sim.Trace(app, rng)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range trace {
				res, ok, err := online.Push(st)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue
				}
				if monitor == nil {
					continue // baseline collection phase
				}
				status, err := monitor.Observe(res.Entropy)
				if err != nil {
					t.Fatal(err)
				}
				if status.Alarm {
					alarms++
				}
			}
		}
		return alarms
	}

	// Baseline: profile the deployment's own normal traffic through the
	// detector, as an operator would.
	stream(benignMix, 40)
	var baseline []float64
	for i := 0; i < splits.Test.Len(); i++ {
		s := splits.Test.At(i)
		if s.Label != 0 {
			continue
		}
		r, err := d.Assess(s.Features)
		if err != nil {
			t.Fatal(err)
		}
		baseline = append(baseline, r.Entropy)
	}
	monitor, err = detector.NewDriftMonitor(baseline, detector.DriftConfig{Threshold: 0.40, Window: 12, Alpha: 0.001})
	if err != nil {
		t.Fatal(err)
	}

	benignAlarms := stream(benignMix, 25)
	compromiseAlarms := stream([]string{"cryptojack_v2", "wiper_new"}, 25)
	if benignAlarms > 2 {
		t.Fatalf("benign phase raised %d alarms", benignAlarms)
	}
	if compromiseAlarms == 0 {
		t.Fatal("compromise phase raised no alarm")
	}
}

// TestFeatureStabilityAcrossSimulatorRuns asserts that features extracted
// from different traces of the same application are close in scaled space —
// the clustering property every experiment depends on.
func TestFeatureStabilityAcrossSimulatorRuns(t *testing.T) {
	sim, err := dvfs.NewSimulator(dvfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	var miner workload.DVFSBehavior
	for _, a := range workload.DVFSApps() {
		if a.Name == "miner_a" {
			miner = a
		}
	}
	var vecs [][]float64
	for i := 0; i < 20; i++ {
		trace, err := sim.Trace(miner, rng)
		if err != nil {
			t.Fatal(err)
		}
		v, err := feature.DVFSVector(trace, sim.Config().Levels)
		if err != nil {
			t.Fatal(err)
		}
		vecs = append(vecs, v)
	}
	// The normalised mean-state feature must be consistently high for a
	// miner across runs (the two top ladder rungs dominate).
	meanIdx := sim.Config().Levels + 3
	for i, v := range vecs {
		if v[meanIdx] < 0.7 {
			t.Fatalf("run %d: miner mean state %.3f, want high", i, v[meanIdx])
		}
	}
}

// TestHPCPipelineOverlapBehaviour is the HPC counterpart end to end:
// moderate accuracy, entropy high for knowns, SVM non-convergent.
func TestHPCPipelineOverlapBehaviour(t *testing.T) {
	splits, err := gen.HPCWithSizes(5, gen.Sizes{Train: 2800, Test: 700, Unknown: 500})
	if err != nil {
		t.Fatal(err)
	}
	_, err = detector.New(splits.Train,
		detector.WithModel("svm"), detector.WithEnsembleSize(3),
		detector.WithSeed(5), detector.WithSVMMaxObjective(0.3))
	if err == nil {
		t.Fatal("SVM should fail to converge on HPC data")
	}
	if !detector.IsNoConvergence(err) {
		t.Fatalf("error %v should be non-convergence", err)
	}
	d, err := detector.New(splits.Train,
		detector.WithModel("rf"), detector.WithEnsembleSize(15), detector.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	rKnown, err := d.AssessDataset(splits.Test)
	if err != nil {
		t.Fatal(err)
	}
	preds := detector.Predictions(rKnown)
	hKnown := detector.Entropies(rKnown)
	rep, err := metrics.Score(splits.Test.Y(), preds)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy < 0.6 || rep.Accuracy > 0.95 {
		t.Fatalf("HPC accuracy %.3f outside overlap regime", rep.Accuracy)
	}
	var mean float64
	for _, h := range hKnown {
		mean += h
	}
	mean /= float64(len(hKnown))
	if mean < 0.3 {
		t.Fatalf("HPC known entropy %.3f should be high (overlap)", mean)
	}
}
