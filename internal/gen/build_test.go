package gen

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"trusthmd/pkg/dataset"
)

type fakeApp struct {
	label int
	name  string
}

// fakeSource draws the running sample index and extracts it as a
// one-feature vector. The draw of index drawFail and the extraction of
// index extractFail fail (-1 for never); draws counts the draws made.
func fakeSource(drawFail, extractFail int, draws *int) source[fakeApp, int] {
	return source[fakeApp, int]{
		name: "fake",
		dim:  1,
		apps: []fakeApp{{dataset.Benign, "a"}, {dataset.Malware, "b"}, {dataset.Benign, "c"}},
		meta: func(a fakeApp) (bool, int, string) { return true, a.label, a.name },
		draw: func(_ fakeApp, rng *rand.Rand) (int, error) {
			i := *draws
			*draws++
			rng.Int63()
			if i == drawFail {
				return 0, fmt.Errorf("draw %d", i)
			}
			return i, nil
		},
		extract: func(i int) ([]float64, error) {
			if i == extractFail {
				return nil, fmt.Errorf("extract %d", i)
			}
			return []float64{float64(i)}, nil
		},
	}
}

// settled waits for the goroutine count to come back to base: a worker
// that has signalled its WaitGroup may not have exited yet.
func settled(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, %d before the build", runtime.NumGoroutine(), base)
		}
	}
}

func TestBuildSplitOrder(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprint("GOMAXPROCS=", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			base := runtime.NumGoroutine()
			var draws int
			src := fakeSource(-1, -1, &draws)
			const total = 327
			d, err := buildSplit(src, src.apps, total, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			settled(t, base)
			if d.Len() != total {
				t.Fatalf("%d samples, want %d", d.Len(), total)
			}
			for i := 0; i < total; i++ {
				s := d.At(i)
				want := src.apps[i/109] // Allocate gives each app 109
				if s.Features[0] != float64(i) || s.Label != want.label || s.App != want.name {
					t.Fatalf("sample %d is {%v %d %s}, want {%d %d %s}", i, s.Features, s.Label, s.App, i, want.label, want.name)
				}
			}
		})
	}
}

func TestBuildSplitLowestErrorWins(t *testing.T) {
	cases := []struct {
		drawFail, extractFail int
		want                  string
	}{
		{200, 70, "extract 70"},   // a chunk before the failed draw's
		{131, 130, "extract 130"}, // the failed draw's own chunk
		{65, 70, "draw 65"},       // sample 70 is never drawn
	}
	for _, procs := range []int{1, 4} {
		for _, c := range cases {
			t.Run(fmt.Sprint("GOMAXPROCS=", procs, "/", c.want), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				base := runtime.NumGoroutine()
				var draws int
				src := fakeSource(c.drawFail, c.extractFail, &draws)
				_, err := buildSplit(src, src.apps, 384, rand.New(rand.NewSource(1)))
				settled(t, base)
				if err == nil || err.Error() != c.want {
					t.Fatalf("got %v, want %s", err, c.want)
				}
			})
		}
	}
}

func TestBuildSplitDrawErrorStopsDrawing(t *testing.T) {
	base := runtime.NumGoroutine()
	var draws int
	src := fakeSource(131, -1, &draws)
	_, err := buildSplit(src, src.apps, 384, rand.New(rand.NewSource(1)))
	settled(t, base)
	if err == nil || err.Error() != "draw 131" {
		t.Fatalf("got %v, want the draw error of sample 131", err)
	}
	if draws != 132 {
		t.Fatalf("%d draws made, want 132: drawing went on after a failed draw", draws)
	}
}

func TestGenerateWrapsSplitErrors(t *testing.T) {
	var draws int
	// Train and test take 10 samples each, so sample 14 is test's fifth.
	_, err := generate(fakeSource(14, -1, &draws), 1, Sizes{Train: 10, Test: 10, Unknown: 1})
	if err == nil || err.Error() != "gen: fake test: draw 14" {
		t.Fatalf("got %v", err)
	}
	if u := errors.Unwrap(err); u == nil || u.Error() != "draw 14" {
		t.Fatalf("split error not wrapped with %%w: unwraps to %v", u)
	}
}
