package feature

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"trusthmd/internal/stats"
)

func TestDVFSVectorDim(t *testing.T) {
	states := []int{0, 1, 2, 3, 3, 2, 1, 0}
	v, err := DVFSVector(states, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != DVFSDim(8) {
		t.Fatalf("dim %d, want %d", len(v), DVFSDim(8))
	}
}

func TestDVFSHistogramSums(t *testing.T) {
	states := []int{0, 0, 1, 1, 2, 2, 3, 3}
	levels := 4
	v, err := DVFSVector(states, levels)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 0; i < levels; i++ {
		sum += v[i]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("histogram sums to %v", sum)
	}
	for i := 0; i < levels; i++ {
		if math.Abs(v[i]-0.25) > 1e-12 {
			t.Fatalf("uniform states should give uniform histogram: %v", v[:levels])
		}
	}
}

func TestDVFSTransitionShares(t *testing.T) {
	// 0,1,2,3 = three up transitions out of three.
	v, err := DVFSVector([]int{0, 1, 2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	up, down, stay := v[4], v[5], v[6]
	if up != 1 || down != 0 || stay != 0 {
		t.Fatalf("transitions up=%v down=%v stay=%v", up, down, stay)
	}
	// Constant series: all stay.
	v, err = DVFSVector([]int{2, 2, 2, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v[4] != 0 || v[5] != 0 || v[6] != 1 {
		t.Fatalf("constant transitions %v %v %v", v[4], v[5], v[6])
	}
}

func TestDVFSMoments(t *testing.T) {
	levels := 5
	v, err := DVFSVector([]int{4, 4, 4, 4}, levels)
	if err != nil {
		t.Fatal(err)
	}
	meanIdx := levels + 3
	if math.Abs(v[meanIdx]-1) > 1e-12 {
		t.Fatalf("normalised mean of top state = %v, want 1", v[meanIdx])
	}
	if v[meanIdx+1] != 0 {
		t.Fatalf("constant series std = %v, want 0", v[meanIdx+1])
	}
}

func TestDVFSPeriodicAutocorr(t *testing.T) {
	// Period-2 alternation: lag-2 autocorrelation near +1, lag-1 near -1.
	states := make([]int, 64)
	for i := range states {
		states[i] = (i % 2) * 3
	}
	levels := 4
	v, err := DVFSVector(states, levels)
	if err != nil {
		t.Fatal(err)
	}
	acBase := levels + 5
	if v[acBase] > -0.8 {
		t.Fatalf("lag-1 autocorr %v, want near -1", v[acBase])
	}
	if v[acBase+1] < 0.8 {
		t.Fatalf("lag-2 autocorr %v, want near +1", v[acBase+1])
	}
}

func TestDVFSErrors(t *testing.T) {
	if _, err := DVFSVector([]int{0, 1}, 1); err == nil {
		t.Fatal("expected levels error")
	}
	if _, err := DVFSVector([]int{0}, 4); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := DVFSVector([]int{0, 9}, 4); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := DVFSVector([]int{0, -1}, 4); err == nil {
		t.Fatal("expected range error")
	}
}

// Property: every DVFS feature is finite and histogram entries lie in [0,1].
func TestDVFSFiniteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		levels := 2 + rng.Intn(8)
		n := 2 + rng.Intn(200)
		states := make([]int, n)
		for i := range states {
			states[i] = rng.Intn(levels)
		}
		v, err := DVFSVector(states, levels)
		if err != nil {
			return false
		}
		if len(v) != DVFSDim(levels) {
			return false
		}
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
			if i < levels && (x < 0 || x > 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHPCVectorDim(t *testing.T) {
	counters := make([]float64, 16)
	for i := range counters {
		counters[i] = float64(1000 * (i + 1))
	}
	v, err := HPCVector(counters)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != HPCDim(16) {
		t.Fatalf("dim %d, want %d", len(v), HPCDim(16))
	}
}

func TestHPCLogScaling(t *testing.T) {
	counters := make([]float64, 16)
	counters[0] = math.E - 1 // log1p == 1
	v, err := HPCVector(counters)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v[0]-1) > 1e-12 {
		t.Fatalf("log1p scaling wrong: %v", v[0])
	}
}

func TestHPCDerivedRates(t *testing.T) {
	counters := make([]float64, 16)
	counters[0] = 1000 // cycles
	counters[1] = 2000 // instructions
	counters[2] = 100  // branches
	counters[3] = 10   // branch misses
	counters[4] = 500  // cache refs
	counters[5] = 50   // cache misses
	counters[7] = 20   // syscalls
	v, err := HPCVector(counters)
	if err != nil {
		t.Fatal(err)
	}
	base := 16
	if math.Abs(v[base]-0.1) > 1e-12 {
		t.Fatalf("branch miss rate %v", v[base])
	}
	if math.Abs(v[base+1]-0.1) > 1e-12 {
		t.Fatalf("cache miss rate %v", v[base+1])
	}
	if math.Abs(v[base+2]-2) > 1e-12 {
		t.Fatalf("IPC %v", v[base+2])
	}
	if math.Abs(v[base+3]-0.01) > 1e-12 {
		t.Fatalf("syscall rate %v", v[base+3])
	}
}

func TestHPCZeroDenominators(t *testing.T) {
	counters := make([]float64, 16) // all zero
	v, err := HPCVector(counters)
	if err != nil {
		t.Fatal(err)
	}
	for i := 16; i < len(v); i++ {
		if v[i] != 0 {
			t.Fatalf("zero denominators must give 0 rates, got %v", v[i])
		}
	}
}

func TestHPCErrors(t *testing.T) {
	if _, err := HPCVector(make([]float64, 3)); err == nil {
		t.Fatal("expected size error")
	}
	bad := make([]float64, 16)
	bad[2] = -1
	if _, err := HPCVector(bad); err == nil {
		t.Fatal("expected negative counter error")
	}
	bad[2] = math.NaN()
	if _, err := HPCVector(bad); err == nil {
		t.Fatal("expected NaN error")
	}
}

// Property: HPC features are finite for any non-negative counters.
func TestHPCFiniteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		counters := make([]float64, 16)
		for i := range counters {
			counters[i] = math.Abs(rng.NormFloat64()) * 1e7
		}
		v, err := HPCVector(counters)
		if err != nil {
			return false
		}
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEMVectorDim(t *testing.T) {
	bands := make([]float64, 32)
	for i := range bands {
		bands[i] = 1 + float64(i)
	}
	v, err := EMVector(bands)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != EMDim(32) {
		t.Fatalf("dim %d, want %d", len(v), EMDim(32))
	}
}

func TestEMVectorSpectralShape(t *testing.T) {
	// All energy in the last band: centroid near 1, low flatness, peak
	// share near 1.
	bands := make([]float64, 8)
	for i := range bands {
		bands[i] = 1e-6
	}
	bands[7] = 100
	v, err := EMVector(bands)
	if err != nil {
		t.Fatal(err)
	}
	centroid, flatness, peak := v[8], v[9], v[10]
	if centroid < 0.9 {
		t.Fatalf("centroid %v, want near 1", centroid)
	}
	if flatness > 0.01 {
		t.Fatalf("flatness %v, want near 0 for tonal spectrum", flatness)
	}
	if peak < 0.99 {
		t.Fatalf("peak share %v, want near 1", peak)
	}
	// Flat spectrum: flatness 1, centroid 0.5.
	flat := []float64{2, 2, 2, 2, 2, 2, 2, 2}
	v, err = EMVector(flat)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v[9]-1) > 1e-9 {
		t.Fatalf("flat spectrum flatness %v", v[9])
	}
	if math.Abs(v[8]-0.5) > 1e-9 {
		t.Fatalf("flat spectrum centroid %v", v[8])
	}
}

func TestEMVectorErrors(t *testing.T) {
	if _, err := EMVector([]float64{1, 2}); err == nil {
		t.Fatal("expected size error")
	}
	if _, err := EMVector([]float64{1, 2, 3, 0}); err == nil {
		t.Fatal("expected non-positive error")
	}
	if _, err := EMVector([]float64{1, 2, 3, math.NaN()}); err == nil {
		t.Fatal("expected NaN error")
	}
}

func TestEMVectorFiniteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bands := make([]float64, 16)
		for i := range bands {
			bands[i] = math.Exp(rng.NormFloat64())
		}
		v, err := EMVector(bands)
		if err != nil {
			return false
		}
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		}
		// Shape features bounded.
		return v[16] >= 0 && v[16] <= 1 && v[17] >= 0 && v[17] <= 1+1e-9 && v[18] >= 0 && v[18] <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// dvfsReference is DVFSVector as it was computed before DVFSInto, kept as
// the oracle: a float copy of the series, a histogram of its own, and the
// textbook autocorrelation at every lag 0..8, each lag's numerator taking
// the deviations from the mean afresh.
func dvfsReference(states []int, levels int) ([]float64, error) {
	if levels < 2 {
		return nil, fmt.Errorf("feature: need >=2 levels, got %d", levels)
	}
	if len(states) < 2 {
		return nil, fmt.Errorf("feature: need >=2 samples, got %d", len(states))
	}
	out := make([]float64, 0, DVFSDim(levels))
	hist := make([]float64, levels)
	series := make([]float64, len(states))
	for i, s := range states {
		if s < 0 || s >= levels {
			return nil, fmt.Errorf("feature: state %d at sample %d outside [0,%d)", s, i, levels)
		}
		hist[s]++
		series[i] = float64(s)
	}
	inv := 1 / float64(len(states))
	for i := range hist {
		hist[i] *= inv
	}
	out = append(out, hist...)
	var up, down, stay float64
	for i := 1; i < len(states); i++ {
		switch {
		case states[i] > states[i-1]:
			up++
		case states[i] < states[i-1]:
			down++
		default:
			stay++
		}
	}
	tInv := 1 / float64(len(states)-1)
	out = append(out, up*tInv, down*tInv, stay*tInv)
	var m stats.Moments
	for _, v := range series {
		m.Add(v)
	}
	out = append(out, m.Mean()/float64(levels-1), m.Std()/float64(levels-1))

	maxLag := min(8, len(series)-1)
	var mean float64
	for _, v := range series {
		mean += v
	}
	mean /= float64(len(series))
	var denom float64
	for _, v := range series {
		d := v - mean
		denom += d * d
	}
	ac := make([]float64, maxLag+1)
	ac[0] = 1
	if denom != 0 {
		for k := 1; k <= maxLag; k++ {
			var num float64
			for i := 0; i+k < len(series); i++ {
				num += (series[i] - mean) * (series[i+k] - mean)
			}
			ac[k] = num / denom
		}
	}
	for _, lag := range []int{1, 2, 4, 8} {
		if lag < len(ac) {
			out = append(out, ac[lag])
		} else {
			out = append(out, 0)
		}
	}
	return out, nil
}

// FuzzDVFSInto holds DVFSInto to the per-lag formula it replaced,
// dvfsReference: the same error, or the same features bit for bit — with
// fresh memory, and again into dst and dev left dirty by another window.
// Byte 0 is the ladder size in [0, 9] (below 2 is an error); every further
// byte is a state, taken mod the ladder size, except 254 (one past the
// top) and 255 (-1).
func FuzzDVFSInto(f *testing.F) {
	f.Add([]byte{8, 0, 1, 2, 3, 3, 2, 1, 0, 0, 1, 2, 3})
	f.Add([]byte{4, 3, 3, 3, 3})
	f.Add([]byte{2, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{5, 1})
	f.Add([]byte{5, 1, 2, 255})
	f.Add([]byte{1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		levels := int(data[0] % 10)
		states := make([]int, len(data)-1)
		for i, b := range data[1:] {
			switch {
			case b == 255:
				states[i] = -1
			case b == 254:
				states[i] = levels
			case levels > 0:
				states[i] = int(b) % levels
			}
		}
		want, wantErr := dvfsReference(states, levels)
		dirty := make([]float64, 64+len(states))
		for i := range dirty {
			dirty[i] = math.NaN()
		}
		for _, mem := range [][2][]float64{{nil, nil}, {dirty[:1:1], dirty[1:1:1]}, {dirty[:64:64], dirty[64:]}} {
			got, err := DVFSInto(mem[0], mem[1], states, levels)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("levels %d states %v: error %v, reference %v", levels, states, err, wantErr)
			}
			if err != nil {
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("levels %d states %v: %d features, reference %d", levels, states, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("levels %d states %v: feature %d is %v, reference %v", levels, states, i, got[i], want[i])
				}
			}
		}
	})
}
