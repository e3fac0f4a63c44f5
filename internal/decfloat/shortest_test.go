package decfloat

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestSchubfachG checks, for every k Shortest can reach, that the g
// schubfachG derives from pow10[-k] is Schubfach's g = ⌊10^-k · 2^-r⌋ + 1
// with 2^125 ≤ g < 2^126, computed here exactly with math/big.
func TestSchubfachG(t *testing.T) {
	ten := big.NewInt(10)
	for k := flog10pow2(qMin); k <= flog10pow2(0x7FE-1+qMin); k++ {
		var want big.Int
		if k <= 0 {
			// 10^-k is an integer; shift it to 126 bits.
			p := new(big.Int).Exp(ten, big.NewInt(int64(-k)), nil)
			if n := p.BitLen(); n <= 126 {
				want.Lsh(p, uint(126-n))
			} else {
				want.Rsh(p, uint(n-126))
			}
		} else {
			// 2^(n-1) < 10^k < 2^n, so 2^(n+125) / 10^k lies in (2^125, 2^126).
			d := new(big.Int).Exp(ten, big.NewInt(int64(k)), nil)
			want.Quo(want.Lsh(big.NewInt(1), uint(d.BitLen()+125)), d)
		}
		want.Add(&want, big.NewInt(1))
		if want.BitLen() != 126 {
			t.Fatalf("k=%d: g has %d bits", k, want.BitLen())
		}

		ghi, glo := schubfachG(k)
		got := new(big.Int).SetUint64(ghi)
		got.Lsh(got, 64).Or(got, new(big.Int).SetUint64(glo))
		if got.Cmp(&want) != 0 {
			t.Errorf("k=%d: g from pow10 is %x, want %x", k, got, &want)
		}
	}
}

// strconvShortest is the oracle: strconv's shortest 'e' digits of |f| as
// a mantissa and an exponent.
func strconvShortest(f float64) (uint64, int) {
	s := strconv.FormatFloat(math.Abs(f), 'e', -1, 64)
	mant, exp, _ := strings.Cut(s, "e")
	e, err := strconv.Atoi(exp)
	if err != nil {
		panic(s)
	}
	digits := strings.Replace(mant, ".", "", 1)
	m, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		panic(s)
	}
	if m == 0 {
		return 0, 0
	}
	return m, e - (len(digits) - 1)
}

func checkShortest(t *testing.T, f float64) {
	t.Helper()
	man, exp10, ok := Shortest(f)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if ok {
			t.Fatalf("Shortest(%v) vouched for %de%d", f, man, exp10)
		}
		return
	}
	wantMan, wantExp := strconvShortest(f)
	if !ok || man != wantMan || exp10 != wantExp {
		t.Fatalf("Shortest(%v) [%016x] = %de%d, %v; strconv %de%d", f, math.Float64bits(f), man, exp10, ok, wantMan, wantExp)
	}
}

// TestShortestMatchesStrconv is the differential test: strconv's shortest
// digits are the oracle, over every binade's edges, every power of ten
// and of two with both neighbours, the subnormals, integers around 2^53,
// and random bit patterns.
func TestShortestMatchesStrconv(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1022 - 0x1p-1074,
		1, 0.1, 0.3, 2.0 / 3, 1e23, 5e-324, 1e-323, 1.5e-323, 2e-323,
		1 << 53, 1<<53 - 1, 1<<53 + 2, 1 << 54, 9007199254740993,
	}
	for e := -1022; e <= 1023; e++ {
		vals = append(vals, math.Ldexp(1, e))
	}
	for e := -1074; e < -1022; e++ {
		vals = append(vals, math.Ldexp(1, e))
	}
	for e := -323; e <= 308; e++ {
		v, _ := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		vals = append(vals, v)
	}
	for _, v := range vals {
		for _, u := range []float64{v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1))} {
			checkShortest(t, u)
			checkShortest(t, -u)
		}
	}
	// The smallest subnormals are where a one-digit answer needs the probe
	// below 100 that Schubfach as published skips.
	for i := uint64(0); i < 1<<16; i++ {
		checkShortest(t, math.Float64frombits(i))
	}
	for i := uint64(0); i < 4096; i++ {
		checkShortest(t, float64(1<<53-2048+i))                      // integers around 2^53
		checkShortest(t, math.Float64frombits(0x7FEFFFFFFFFFFFFF-i)) // the largest finites
	}

	rng := rand.New(rand.NewSource(25))
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	for i := 0; i < n; i++ {
		checkShortest(t, math.Float64frombits(rng.Uint64()))
		if i%16 == 0 {
			checkShortest(t, math.Float64frombits(rng.Uint64()>>12)) // a subnormal
		}
	}
}

func FuzzShortest(f *testing.F) {
	for _, v := range []float64{0, 1, 0.1, 1e23, 5e-324, 1e-323, 0x1p-1022, math.MaxFloat64, 1 << 53, 9007199254740993} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		checkShortest(t, math.Float64frombits(b))
	})
}

var sinkMan uint64

// BenchmarkShortest times the kernel alone on 17-digit values, the shape
// of a jittered feature.
func BenchmarkShortest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := make([]float64, 1024)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkMan, _, _ = Shortest(in[i&1023])
	}
}
