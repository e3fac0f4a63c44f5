package decfloat

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"testing"
)

// TestTableSpotValues pins entries of the power-of-ten table against the
// values printed in the Eisel–Lemire write-up and in strconv's source, so
// the table is checked even where $GOROOT/src is not installed.
func TestTableSpotValues(t *testing.T) {
	for _, tc := range []struct {
		exp10  int
		hi, lo uint64
	}{
		{-348, 0xFA8FD5A0081C0288, 0x1732C869CD60E453},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x8000000000000000, 0},
		{27, 0xCECB8F27F4200F3A, 0},
		{28, 0x813F3978F8940984, 0x4000000000000000},
		{42, 0xB7ABC627050305AD, 0xF14A3D9E40000000},
		{43, 0xE596B7B0C643C719, 0x6D9CCD05D0000000},
		{347, 0xD13EB46469447567, 0x4B7195F2D2D1A9FB},
	} {
		if got := pow10[tc.exp10-minExp10]; got.hi != tc.hi || got.lo != tc.lo {
			t.Errorf("1e%d: got %016X_%016X, want %016X_%016X", tc.exp10, got.hi, got.lo, tc.hi, tc.lo)
		}
	}
}

// TestTableMatchesStrconv compares all 696 entries with the literal table
// in the Go distribution's strconv/eisel_lemire.go.
func TestTableMatchesStrconv(t *testing.T) {
	path := filepath.Join(runtime.GOROOT(), "src", "strconv", "eisel_lemire.go")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("strconv source not readable: %v", err)
	}
	rows := regexp.MustCompile(`\{0x([0-9A-F]{16}), 0x([0-9A-F]{16})\}, // 1e(-?\d+)`).FindAllSubmatch(src, -1)
	if len(rows) != len(pow10) {
		t.Fatalf("%s: found %d table rows, want %d", path, len(rows), len(pow10))
	}
	for _, r := range rows {
		lo, _ := strconv.ParseUint(string(r[1]), 16, 64)
		hi, _ := strconv.ParseUint(string(r[2]), 16, 64)
		e, _ := strconv.Atoi(string(r[3]))
		if got := pow10[e-minExp10]; got.hi != hi || got.lo != lo {
			t.Errorf("1e%d: got %016X_%016X, strconv has %016X_%016X", e, got.hi, got.lo, hi, lo)
		}
	}
}

// checkAgainstStrconv fails when FromDecimal vouches for a value whose
// bits differ from strconv.ParseFloat's for the same decimal, and reports
// whether it vouched.
func checkAgainstStrconv(t *testing.T, man uint64, exp10 int, neg bool) bool {
	t.Helper()
	got, ok := FromDecimal(man, exp10, neg)
	if !ok {
		return false
	}
	s := strconv.FormatUint(man, 10) + "e" + strconv.Itoa(exp10)
	if neg {
		s = "-" + s
	}
	want, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: FromDecimal vouched for %v, strconv says %v", s, got, err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: FromDecimal %016x (%v), strconv %016x (%v)", s, math.Float64bits(got), got, math.Float64bits(want), want)
	}
	return true
}

// TestFromDecimalMatchesStrconv is the differential test: strconv is the
// oracle, bits are compared, and the kernel must decide nearly always or
// it is not worth calling.
func TestFromDecimalMatchesStrconv(t *testing.T) {
	// Signed zero at any exponent, the table's edges, the float64 range's
	// edges, exact half-way cases, and the write-up's examples.
	for _, tc := range []struct {
		man   uint64
		exp10 int
		ok    bool
	}{
		{0, 0, true}, {0, 99999, true}, {0, -99999, true},
		{1, minExp10 - 1, false}, {1, maxExp10 + 1, false},
		{1, minExp10, false}, {1, maxExp10, false}, // subnormal / overflow
		{49, -325, false},               // 4.9e-324, subnormal
		{22250738585072014, -324, true}, // smallest normal
		{22250738585072011, -324, false},
		{17976931348623157, 292, true},  // MaxFloat64
		{17976931348623159, 292, false}, // rounds to +Inf
		{9007199254740993, 0, false},    // 2^53+1: half-way
		{9007199254740992, 0, true},
		{1, 23, false}, {841, 19, true}, // the write-up's half-way examples
		{1, 22, true}, {9007199254740991, 22, true}, {9007199254740992, 22, true}, // exact path's edge
		{12345678901234567890, 0, true}, {math.MaxUint64, 0, true},
		{1, 0, true}, {1, -22, true}, {1, -23, true}, {5, -1, true}, {225, -2, true}, {1, -1, true},
	} {
		for _, neg := range []bool{false, true} {
			if ok := checkAgainstStrconv(t, tc.man, tc.exp10, neg); ok != tc.ok {
				t.Errorf("FromDecimal(%d, %d, %v): ok = %v, want %v", tc.man, tc.exp10, neg, ok, tc.ok)
			}
		}
	}
	if z, _ := FromDecimal(0, 5, true); !math.Signbit(z) {
		t.Error("FromDecimal(0, 5, true) lost the sign of zero")
	}

	rng := rand.New(rand.NewSource(20))
	n, vouched := 200000, 0
	if testing.Short() {
		n = 20000
	}
	for i := 0; i < n; i++ {
		man := rng.Uint64() >> uint(rng.Intn(64)) // every magnitude, 1 to 20 digits
		exp10 := rng.Intn(700) - 350
		if i%4 == 0 {
			exp10 = rng.Intn(50) - 30 // where real inputs live
		}
		if checkAgainstStrconv(t, man, exp10, i%2 == 0) {
			vouched++
		}
	}
	// Out-of-range exponents (2 of 700) and results beyond float64's
	// normal range are the bulk of the refusals.
	if vouched < n*8/10 {
		t.Errorf("kernel vouched for %d of %d random inputs", vouched, n)
	}
}

func FuzzFromDecimal(f *testing.F) {
	f.Add(uint64(0), 0, true)
	f.Add(uint64(1), 23, false)
	f.Add(uint64(9007199254740993), 0, false)
	f.Add(uint64(17976931348623157), 292, true)
	f.Add(uint64(22250738585072014), -324, false)
	f.Add(uint64(math.MaxUint64), -348, false)
	f.Add(uint64(math.MaxUint64), 347, true)
	f.Fuzz(func(t *testing.T, man uint64, exp10 int, neg bool) {
		checkAgainstStrconv(t, man, exp10, neg)
	})
}

var sink float64

// BenchmarkFromDecimal converts shortest-representation doubles' digits:
// 15–17-digit mantissas, the shape a JSON feature vector carries.
func BenchmarkFromDecimal(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	type dec struct {
		man   uint64
		exp10 int
	}
	in := make([]dec, 1024)
	for i := range in {
		in[i] = dec{1e15 + uint64(rng.Int63n(9e16)), rng.Intn(40) - 30}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := in[i&1023]
		sink, _ = FromDecimal(d.man, d.exp10, false)
	}
}
