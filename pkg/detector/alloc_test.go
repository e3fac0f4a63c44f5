package detector

import (
	"testing"

	"trusthmd/internal/gen"
)

// The zero-allocation contract of the inference hot path (README
// "Performance"): steady-state batched assessment through a reused
// BatchScratch performs no heap allocations at all, single-sample Assess
// allocates only its result's VoteDist, and the streaming window costs
// nothing between assessment boundaries and only that VoteDist at one. CI runs these under
// `-run TestAllocs -count=1` (make test-allocs), so a regression that
// re-introduces garbage into the hot path fails the build even when it is
// too small to move any timing.

// allocDetector trains an 11-member RF detector with no worker cap, so the
// contract is checked at the default configuration.
func allocDetector(t *testing.T) (*Detector, [][]float64) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, err := gen.DVFSWithSizes(5, gen.Sizes{Train: 280, Test: 160, Unknown: 40})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(s.Train, WithModel("rf"), WithEnsembleSize(11), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	X := make([][]float64, s.Test.Len())
	for i := range X {
		X[i] = s.Test.At(i).Features
	}
	return d, X
}

func TestAllocsAssessBatchInto(t *testing.T) {
	d, X := allocDetector(t)
	var sc BatchScratch
	if _, err := d.AssessBatchInto(&sc, X); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := d.AssessBatchInto(&sc, X); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state AssessBatchInto allocates %.1f times per batch, want 0", allocs)
	}
}

func TestAllocsAssess(t *testing.T) {
	d, X := allocDetector(t)
	if _, err := d.Assess(X[0]); err != nil { // warm the pipeline pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := d.Assess(X[0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("steady-state Assess allocates %.1f times per sample, want <= 1 (the VoteDist)", allocs)
	}
}

func TestAllocsOnlinePush(t *testing.T) {
	d, _ := allocDetector(t)

	// Window maintenance between assessment boundaries allocates nothing.
	o, err := NewOnline(d, StreamConfig{Levels: 8, Window: 64, Stride: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	state := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := o.Push(state & 7); err != nil {
			t.Fatal(err)
		}
		state++
	})
	if allocs > 0 {
		t.Fatalf("steady-state Online.Push allocates %.2f times per sample, want 0", allocs)
	}

	// At stride 1 every push ends a window: the stream's own feature
	// scratch leaves only Assess's VoteDist.
	o, err = NewOnline(d, StreamConfig{Levels: 8, Window: 64, Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, _, err := o.Push(i & 7); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(200, func() {
		if _, ok, err := o.Push(state % 7); err != nil || !ok {
			t.Fatalf("push: ok=%v err=%v", ok, err)
		}
		state++
	})
	if allocs > 1 {
		t.Fatalf("Online.Push at a window boundary allocates %.2f times per decision, want <= 1 (the VoteDist)", allocs)
	}
}
