package detector

import (
	"os"
	"sync"
	"testing"
	"time"

	"trusthmd/internal/gen"
)

// TestBatchHelpersAndEmptyInputs covers what the batch API adds around the
// assess core (whose results TestEntryPointsMatchReference pins): the
// extraction helpers and the empty-input errors.
func TestBatchHelpersAndEmptyInputs(t *testing.T) {
	d, s := trainRF(t)
	rs, err := d.AssessDataset(s.Test)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != s.Test.Len() || len(Predictions(rs)) != len(rs) || len(Entropies(rs)) != len(rs) {
		t.Fatal("helper length mismatch")
	}
	var sc BatchScratch
	if _, err := d.AssessBatch(nil); err == nil {
		t.Fatal("expected empty batch error")
	}
	if _, err := d.AssessBatchInto(&sc, nil); err == nil {
		t.Fatal("expected empty batch error")
	}
	if _, err := d.AssessDataset(nil); err == nil {
		t.Fatal("expected empty dataset error")
	}
}

// TestConcurrentAssess exercises one shared Detector from many goroutines;
// run under -race it proves a trained detector is safe for concurrent
// serving.
func TestConcurrentAssess(t *testing.T) {
	d, s := trainRF(t)
	want := make([]Result, s.Test.Len())
	for i := range want {
		r, err := d.Assess(s.Test.At(i).Features)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < s.Test.Len(); i++ {
				idx := (i + g) % s.Test.Len()
				r, err := d.Assess(s.Test.At(idx).Features)
				if err != nil {
					errCh <- err
					return
				}
				if r.Prediction != want[idx].Prediction || r.Entropy != want[idx].Entropy {
					errCh <- &mismatchError{idx}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Batched assessment from multiple goroutines must also be clean.
	var wg2 sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			if _, err := d.AssessDataset(s.Test); err != nil {
				t.Error(err)
			}
		}()
	}
	wg2.Wait()
}

type mismatchError struct{ idx int }

func (e *mismatchError) Error() string { return "concurrent assess diverged" }

// TestAssessBatchSpeedup exercises the acceptance workload — a 1k-sample
// split through both the batched and the per-sample sequential path — and
// always requires identical outputs. Both run on one goroutine, so the
// gain is the batched walks' alone. The >=2x wall-clock assertion is
// opt-in (TRUSTHMD_TIMING=1) because timing assertions flake on contended
// CI machines; BenchmarkAssessBatch at the repository root is the
// canonical measurement.
func TestAssessBatchSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	s, err := gen.DVFSWithSizes(2, gen.Sizes{Train: 700, Test: 1000, Unknown: 40})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(s.Train, WithModel("rf"), WithEnsembleSize(25), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	X := make([][]float64, s.Test.Len())
	for i := range X {
		X[i] = s.Test.At(i).Features
	}

	// Warm up both paths, then time the better of three runs each.
	if _, err := d.AssessBatch(X); err != nil {
		t.Fatal(err)
	}
	seqTime, batchTime := time.Duration(1<<62), time.Duration(1<<62)
	var seq []Result
	for run := 0; run < 3; run++ {
		start := time.Now()
		seq = make([]Result, len(X))
		for i, x := range X {
			r, err := d.Assess(x)
			if err != nil {
				t.Fatal(err)
			}
			seq[i] = r
		}
		if el := time.Since(start); el < seqTime {
			seqTime = el
		}
	}
	var batch []Result
	for run := 0; run < 3; run++ {
		start := time.Now()
		var err error
		batch, err = d.AssessBatch(X)
		if err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el < batchTime {
			batchTime = el
		}
	}
	for i := range seq {
		if seq[i].Prediction != batch[i].Prediction || seq[i].Entropy != batch[i].Entropy {
			t.Fatalf("sample %d: outputs diverged", i)
		}
	}
	speedup := float64(seqTime) / float64(batchTime)
	t.Logf("batch speedup %.2fx (sequential %v, batch %v)", speedup, seqTime, batchTime)
	if os.Getenv("TRUSTHMD_TIMING") == "" {
		return
	}
	if speedup < 2 {
		t.Fatalf("batch speedup %.2fx (sequential %v, batch %v), want >= 2x", speedup, seqTime, batchTime)
	}
}

// TestBatchResultsIndependentVoteDist pins the ownership contract of the
// allocating batch API: results share one VoteDist arena internally, but
// each slice is capacity-capped to its own window, so growing one result's
// distribution can never overwrite a neighbour's.
func TestBatchResultsIndependentVoteDist(t *testing.T) {
	d, s := trainRF(t)
	X := make([][]float64, 4)
	for i := range X {
		X[i] = s.Test.At(i).Features
	}
	rs, err := d.AssessBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), rs[1].VoteDist...)
	rs[0].VoteDist = append(rs[0].VoteDist, 0.5)
	for j := range want {
		if rs[1].VoteDist[j] != want[j] {
			t.Fatalf("appending to results[0].VoteDist corrupted results[1]: %v != %v", rs[1].VoteDist, want)
		}
	}
}
