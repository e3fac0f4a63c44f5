package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEntropyUniformBinary(t *testing.T) {
	h, err := Entropy([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-1) > 1e-12 {
		t.Fatalf("H(0.5,0.5)=%v, want 1 bit", h)
	}
}

func TestEntropyDegenerate(t *testing.T) {
	h, err := Entropy([]float64{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if h != 0 {
		t.Fatalf("H(1,0,0)=%v, want 0", h)
	}
}

func TestEntropyRenormalises(t *testing.T) {
	h1, _ := Entropy([]float64{1, 1})
	h2, _ := Entropy([]float64{10, 10})
	if math.Abs(h1-h2) > 1e-12 {
		t.Fatalf("entropy must be scale invariant: %v vs %v", h1, h2)
	}
}

func TestEntropyErrors(t *testing.T) {
	if _, err := Entropy([]float64{-0.1, 1.1}); err == nil {
		t.Fatal("expected error for negative mass")
	}
	if _, err := Entropy([]float64{0, 0}); err == nil {
		t.Fatal("expected error for zero distribution")
	}
	if _, err := Entropy([]float64{math.NaN()}); err == nil {
		t.Fatal("expected error for NaN")
	}
}

func TestEntropyBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(8)
		p := make([]float64, k)
		for i := range p {
			p[i] = rng.Float64()
		}
		h, err := Entropy(p)
		if err != nil {
			return false
		}
		return h >= 0 && h <= math.Log2(float64(k))+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountEntropy(t *testing.T) {
	h, err := CountEntropy([]int{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-1) > 1e-12 {
		t.Fatalf("got %v", h)
	}
	if _, err := CountEntropy([]int{-1, 2}); err == nil {
		t.Fatal("expected error for negative count")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	med, err := Quantile(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(med-2.5) > 1e-12 {
		t.Fatalf("median=%v, want 2.5", med)
	}
	if xs[0] != 4 {
		t.Fatal("Quantile must not mutate input")
	}
	v, _ := Quantile([]float64{7}, 0.9)
	if v != 7 {
		t.Fatalf("single-element quantile=%v", v)
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := Quantile(xs, -0.1); err == nil {
		t.Fatal("expected range error")
	}
	min, _ := Quantile(xs, 0)
	max, _ := Quantile(xs, 1)
	if min != 1 || max != 4 {
		t.Fatalf("extremes %v %v", min, max)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 || s.N != 5 {
		t.Fatalf("summary %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Fatalf("quartiles %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
	if _, err := Summarize(nil); err == nil {
		t.Fatal("expected empty error")
	}
}

func TestSummarizeOrderingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(50))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		s, err := Summarize(xs)
		if err != nil {
			return false
		}
		return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max &&
			s.Mean >= s.Min && s.Mean <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMoments(t *testing.T) {
	var m Moments
	if m.Mean() != 0 || m.Variance() != 0 || m.N() != 0 {
		t.Fatal("zero value not neutral")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if m.N() != 8 || math.Abs(m.Mean()-5) > 1e-12 {
		t.Fatalf("mean=%v n=%d", m.Mean(), m.N())
	}
	// Population variance is 4; sample variance is 32/7.
	if math.Abs(m.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("variance=%v", m.Variance())
	}
	if math.Abs(m.Std()-math.Sqrt(32.0/7)) > 1e-12 {
		t.Fatalf("std=%v", m.Std())
	}
}

func TestMomentsMatchesBatchProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		xs := make([]float64, n)
		var m Moments
		var sum float64
		for i := range xs {
			xs[i] = rng.NormFloat64() * 5
			sum += xs[i]
			m.Add(xs[i])
		}
		mean := sum / float64(n)
		var ss float64
		for _, x := range xs {
			d := x - mean
			ss += d * d
		}
		return math.Abs(m.Mean()-mean) < 1e-9 && math.Abs(m.Variance()-ss/float64(n-1)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSilhouetteSeparated(t *testing.T) {
	X := [][]float64{{0, 0}, {0.1, 0}, {0, 0.1}, {10, 10}, {10.1, 10}, {10, 10.1}}
	y := []int{0, 0, 0, 1, 1, 1}
	s, err := Silhouette(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.9 {
		t.Fatalf("silhouette=%v, want near 1 for separated clusters", s)
	}
}

func TestSilhouetteOverlapping(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var X [][]float64
	var y []int
	for i := 0; i < 100; i++ {
		X = append(X, []float64{rng.NormFloat64(), rng.NormFloat64()})
		y = append(y, i%2)
	}
	s, err := Silhouette(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s) > 0.15 {
		t.Fatalf("silhouette=%v, want near 0 for identical distributions", s)
	}
}

func TestSilhouetteErrors(t *testing.T) {
	if _, err := Silhouette(nil, nil); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := Silhouette([][]float64{{1}}, []int{0, 1}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := Silhouette([][]float64{{1}, {2}}, []int{0, 0}); err == nil {
		t.Fatal("expected single-cluster error")
	}
}

func TestSilhouetteSingletonCluster(t *testing.T) {
	X := [][]float64{{0, 0}, {0.1, 0}, {10, 10}}
	y := []int{0, 0, 1}
	if _, err := Silhouette(X, y); err != nil {
		t.Fatalf("singleton cluster should be allowed: %v", err)
	}
}

func TestSilhouetteRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		X := make([][]float64, n)
		y := make([]int, n)
		for i := range X {
			X[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			y[i] = rng.Intn(3)
		}
		y[0], y[1] = 0, 1 // guarantee two clusters
		s, err := Silhouette(X, y)
		if err != nil {
			return false
		}
		return s >= -1-1e-9 && s <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
