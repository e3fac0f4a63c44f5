package jsonwire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestAppendJSONFloatMatrix sweeps a dense grid of magnitudes across the
// format-switch boundaries to pin the float formatter byte-for-byte.
func TestAppendJSONFloatMatrix(t *testing.T) {
	var vals []float64
	for exp := -320; exp <= 308; exp++ {
		v := math.Pow(10, float64(exp))
		vals = append(vals, v, -v, v*1.5, v*9.999999999)
	}
	vals = append(vals,
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.0/3.0,
		1e-7, -1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, -1e21, 1.5e21,
		math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		1e-300, 2.2250738585072014e-308, 123456.789, 0.1, 3.141592653589793,
	)
	for _, v := range vals {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendFloat(nil, v)
		if !bytes.Equal(want, got) {
			t.Errorf("float %g: encoding/json %q, pooled %q", v, want, got)
		}
	}
}

func checkFloat(t *testing.T, f float64) {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("json.Marshal(%v): %v", f, err)
	}
	if got := AppendFloat(nil, f); !bytes.Equal(got, want) {
		t.Fatalf("float %016x: AppendFloat %q, encoding/json %q", math.Float64bits(f), got, want)
	}
}

// TestAppendFloatMatchesJSON holds AppendFloat to json.Marshal over every
// class of value the serving path writes and every edge of the two
// layouts and of the shortest-digits kernel, then random bit patterns.
func TestAppendFloatMatchesJSON(t *testing.T) {
	var vals []float64
	// Vote shares k/M and the binary vote entropies (bits) of those counts.
	for m := 1; m <= 64; m++ {
		for k := 0; k <= m; k++ {
			q := float64(k) / float64(m)
			h := 0.0
			if k > 0 && k < m {
				h = -q*math.Log2(q) - (1-q)*math.Log2(1-q)
			}
			vals = append(vals, q, h)
		}
	}
	// Every power of ten and of two, both neighbours added below.
	for e := -323; e <= 308; e++ {
		v, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, v)
	}
	for e := -1074; e <= 1023; e++ {
		vals = append(vals, math.Ldexp(1, e))
	}
	// The layout switches, the float64 range's landmarks.
	vals = append(vals, 1e-6, 1e21, 1e-5, 1e20, 1<<53, 1<<54,
		math.MaxFloat64, 0x1p-1022, math.SmallestNonzeroFloat64)
	for _, v := range vals {
		for _, u := range []float64{v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))} {
			if !math.IsInf(u, 0) {
				checkFloat(t, u)
				checkFloat(t, -u)
			}
		}
	}
	for i := uint64(0); i < 4096; i++ {
		checkFloat(t, float64(1<<53-2048+i))       // integers around 2^53
		checkFloat(t, math.Float64frombits(i))     // the smallest subnormals
		checkFloat(t, math.Float64frombits(i<<40)) // subnormals across their range
	}

	rng := rand.New(rand.NewSource(25))
	// Feature-shaped: 17-digit jittered values, near-zero ones in the 'e'
	// layout among them.
	for i := 0; i < 200_000; i++ {
		v := []float64{0, 1, 37.5, 1e4, 3e6}[i%5]
		checkFloat(t, v*(1+1e-3*rng.NormFloat64())+1e-6*rng.NormFloat64())
	}
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	for i := 0; i < n; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		checkFloat(t, f)
	}
}

// FuzzAppendFloat reads 8 bytes as a float64's bits; encoding/json is the
// oracle and NaN and ±Inf, which it refuses, are skipped.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, 0.1, 1e-7, 1e21, 1e-6, 5e-324, 8e-323, math.MaxFloat64, 1 << 53} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		v := math.Float64frombits(b)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		checkFloat(t, v)
	})
}

// FuzzAppendString holds AppendString to a json.Encoder, whose HTML
// escaping is on by default.
func FuzzAppendString(f *testing.F) {
	for _, s := range []string{
		"", "plain", `quote " backslash \`, "<script>&amp;</script>",
		"\x00\x01\b\f\n\r\t\x1f\x7f", "\u2028 line \u2029 para",
		"invalid \xff\xfe utf8", "trunc \xc3", "\ufffd real replacement", "é漢😀",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(s); err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); !bytes.Equal(got, bytes.TrimSuffix(want.Bytes(), []byte("\n"))) {
			t.Fatalf("%q: AppendString %q, encoding/json %q", s, got, want.Bytes())
		}
	})
}

var sink []byte

// BenchmarkAppendFloat times AppendFloat on the shapes the serving path
// writes, per float: vote shares (k/25), the binary entropies of those
// votes, 17-digit jittered features, near-zero features in the 'e'
// layout, and zero, the commonest value of all.
func BenchmarkAppendFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var votes, entropy, features, tiny []float64
	for k := 0; k <= 25; k++ {
		q := float64(k) / 25
		votes = append(votes, q)
		if k > 0 && k < 25 {
			entropy = append(entropy, -q*math.Log2(q)-(1-q)*math.Log2(1-q))
		}
	}
	for i := 0; i < 1024; i++ {
		features = append(features, 37.5*(1+1e-3*rng.NormFloat64())+1e-6*rng.NormFloat64())
		tiny = append(tiny, 1e-7*rng.NormFloat64())
	}
	for _, bc := range []struct {
		name string
		vals []float64
	}{
		{"votes", votes},
		{"entropy", entropy},
		{"features", features},
		{"tiny", tiny},
		{"zero", []float64{0}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = AppendFloat(buf[:0], bc.vals[i%len(bc.vals)])
			}
			sink = buf
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/float")
		})
	}
}
