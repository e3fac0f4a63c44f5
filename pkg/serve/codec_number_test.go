package serve

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"trusthmd/internal/gen"
)

// parseNumberRef is the decoder's number path as it was before the
// one-pass kernel: walk the JSON number grammar, then hand the bytes to
// strconv.ParseFloat. It is the oracle parseNumber is held to — same
// value bits, same error text, same cursor — on every input.
func (p *jsonParser) parseNumberRef() (float64, error) {
	digits := func() {
		for p.pos < len(p.buf) && p.buf[p.pos] >= '0' && p.buf[p.pos] <= '9' {
			p.pos++
		}
	}
	isDigit := func() bool { return p.pos < len(p.buf) && p.buf[p.pos] >= '0' && p.buf[p.pos] <= '9' }
	start := p.pos
	if p.pos < len(p.buf) && p.buf[p.pos] == '-' {
		p.pos++
	}
	switch {
	case p.pos < len(p.buf) && p.buf[p.pos] == '0':
		p.pos++
	case isDigit():
		digits()
	default:
		return 0, p.errAt("invalid number")
	}
	if p.pos < len(p.buf) && p.buf[p.pos] == '.' {
		p.pos++
		if !isDigit() {
			return 0, p.errAt("invalid number: digits required after '.'")
		}
		digits()
	}
	if p.pos < len(p.buf) && (p.buf[p.pos] == 'e' || p.buf[p.pos] == 'E') {
		p.pos++
		if p.pos < len(p.buf) && (p.buf[p.pos] == '+' || p.buf[p.pos] == '-') {
			p.pos++
		}
		if !isDigit() {
			return 0, p.errAt("invalid number: digits required in exponent")
		}
		digits()
	}
	v, err := strconv.ParseFloat(string(p.buf[start:p.pos]), 64)
	if err != nil {
		return 0, p.errAt("number %q out of range", p.buf[start:p.pos])
	}
	return v, nil
}

// checkParseNumber runs parseNumber and the reference over data from
// offset 0 and fails on any difference in accept/reject, error text
// (offset included), bytes consumed or value bits.
func checkParseNumber(t *testing.T, data []byte) {
	t.Helper()
	got, want := jsonParser{buf: data}, jsonParser{buf: data}
	gv, gerr := got.parseNumber()
	wv, werr := want.parseNumberRef()
	switch {
	case (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()):
		t.Fatalf("%q: error %v, reference %v", data, gerr, werr)
	case got.pos != want.pos:
		t.Fatalf("%q: consumed %d bytes, reference %d", data, got.pos, want.pos)
	case gerr == nil && math.Float64bits(gv) != math.Float64bits(wv):
		t.Fatalf("%q: value %016x (%v), reference %016x (%v)", data, math.Float64bits(gv), gv, math.Float64bits(wv), wv)
	}
}

// hardNumbers are the decimals a decimal→binary conversion gets wrong
// first: the subnormal and overflow edges, exact half-way cases, the
// Eisel–Lemire write-up's fallback examples, mantissas too long to hold
// exactly, and exponents too long to hold at all.
var hardNumbers = []string{
	"0", "-0", "-0.0", "-0e5", "0.0e-2", "0e99999999999", "-0e-99999999999",
	"1e99999999999", "1e-99999999999", "-1e+99999999999",
	"4.9e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "2.2250738585072011e-308",
	"2.2250738585072014e-308", "1.7976931348623157e308", "1.7976931348623158e308",
	"1.7976931348623159e308", "-1.7976931348623159e308", "1e308", "1e309", "1e-323", "1e-400",
	"9007199254740992", "9007199254740993", "9007199254740994", "9007199254740993.0000000000000001",
	"1e23", "8.41e21", "0.5", "2.25", "0.1", "0.3", "1e22", "1e-22", "123456789012345678e-40",
	"1234567890123456789", "12345678901234567890", "18446744073709551615", "18446744073709551616",
	"123456789012345678901234567890", "1.00000000000000000000000000000", "9999999999999999999",
	"0." + strings.Repeat("0", 30) + "1234", "0." + strings.Repeat("0", 30) + "12345678901234567890",
	"1" + strings.Repeat("0", 30), "1" + strings.Repeat("0", 400), "0." + strings.Repeat("0", 400) + "1",
	"1E6", "1e+06", "1e-06", "1e0000000000000000000001", "1.5e-0000000000000000000001",
	// Kept from FuzzParseNumber's corpus: the 19/20-digit boundary with a
	// point in it, and values at the range's edges reached by a long way.
	"1000.000000000000008", "1000.0000000000000008", "100000000000.00000008", "1.000000000000000000800",
	"10000000000000000001111", "18446744073709551001", "70000000073709551601",
	"1.797700000000001e308", "2.0000000e308", "20e307", "7e-320", "700001e-320", "0.70000000001e-328",
	"0.0001e700", "1000e1000", "1e0001000000000000",
	// An exponent too long to hold whose held prefix, cancelled by
	// thousands of fraction zeros, lands back in float64's range. strconv
	// drops exponent digits past 10000 too (go1.24 reads the first as 0.1);
	// whatever it answers is the contract.
	"0." + strings.Repeat("0", 12345) + "1e123450", "0." + strings.Repeat("0", 10000) + "1e100010",
	"1" + strings.Repeat("0", 12345) + "e-123450", "1" + strings.Repeat("0", 10000) + "e-100010",
	"0." + strings.Repeat("0", 9999) + "1e10000", "0." + strings.Repeat("0", 9999) + "1e99999",
	"0." + strings.Repeat("0", 9999) + "1e010000", "1" + strings.Repeat("0", 9999) + "e-9999",
	// Not numbers, or numbers that stop early: the cursor and the error
	// text are the contract here.
	"", "-", "+1", ".5", "01", "00", "-01", "1.", "1.e5", "1e", "1e+", "1E-", "1e+x", "-x", "1.5.5", "1e5e5",
	"1x", "0x10", "1_000", "NaN", "Infinity", "-Infinity", "1,2", "1]", "1 ", "١",
}

// TestParseNumberMatchesStrconv is the differential test of the one-pass
// number path, strconv.ParseFloat behind the old grammar walk as oracle.
func TestParseNumberMatchesStrconv(t *testing.T) {
	for _, s := range hardNumbers {
		checkParseNumber(t, []byte(s))
		checkParseNumber(t, []byte("-"+s))
		checkParseNumber(t, []byte(s+",1]"))
	}

	rng := rand.New(rand.NewSource(20))
	n := 20000
	if testing.Short() {
		n = 2000
	}
	var b []byte
	for i := 0; i < n; i++ {
		// A uniformly random bit pattern: every exponent, subnormals
		// included. Rendered shortest, at every fixed precision up to
		// past the 19 digits the kernel holds, and positionally (up to
		// ~330 digits).
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		checkParseNumber(t, strconv.AppendFloat(b[:0], v, 'g', -1, 64))
		checkParseNumber(t, strconv.AppendFloat(b[:0], v, 'e', rng.Intn(25), 64))
		checkParseNumber(t, strconv.AppendFloat(b[:0], v, 'f', -1, 64))
		// The magnitudes requests carry.
		checkParseNumber(t, strconv.AppendFloat(b[:0], rng.NormFloat64()*math.Pow(10, float64(rng.Intn(12)-4)), 'g', -1, 64))

		// 1–24 random digits, a point anywhere or nowhere, exponent
		// −350…+350 or none.
		b = b[:0]
		if rng.Intn(2) == 0 {
			b = append(b, '-')
		}
		nd, point := 1+rng.Intn(24), rng.Intn(30)
		for j := 0; j < nd; j++ {
			d := byte('0' + rng.Intn(10))
			if j == 0 && nd > 1 && point != 1 {
				d = byte('1' + rng.Intn(9)) // no leading zero on a multi-digit integer part
			}
			b = append(b, d)
			if j+1 == point && j+1 < nd {
				b = append(b, '.')
			}
		}
		if rng.Intn(4) > 0 {
			b = append(b, "eE"[rng.Intn(2)])
			b = strconv.AppendInt(b, int64(rng.Intn(701)-350), 10)
		}
		checkParseNumber(t, b)
	}
}

// FuzzParseNumber holds parseNumber to the reference on arbitrary bytes:
// same accept/reject as the JSON number grammar plus ParseFloat's range
// check, same error text, same bytes consumed, same value bits.
func FuzzParseNumber(f *testing.F) {
	for _, s := range hardNumbers {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParseNumber(t, data)
	})
}

// TestNumberErrorsPinned pins the exact 400 text — message and byte
// offset — of every way a number can be refused, as the decoder produced
// them before parseNumber became one pass. Clients and logs see these.
func TestNumberErrorsPinned(t *testing.T) {
	const (
		afterDot = "invalid number: digits required after '.'"
		inExp    = "invalid number: digits required in exponent"
	)
	sc := getCodecScratch()
	defer putCodecScratch(sc)
	for _, tc := range []struct {
		num    string
		offset int // in {"features":[<num>]}; the batch body below adds 2
		msg    string
	}{
		{"01", 14, "expected ',' or ']' in array"},
		{"1.", 15, afterDot},
		{"1.e5", 15, afterDot},
		{"1e", 15, inExp},
		{"1e+", 16, inExp},
		{"1E-", 16, inExp},
		{"-", 14, "invalid number"},
		{".5", 13, "invalid number"},
		{"+1", 13, "invalid number"},
		{"1e999", 18, `number "1e999" out of range`},
		{"-1e999", 19, `number "-1e999" out of range`},
		{"-1.7976931348623159e308", 36, `number "-1.7976931348623159e308" out of range`},
	} {
		var a AssessRequest
		err := decodeAssessRequest([]byte(`{"features":[`+tc.num+`]}`), sc, &a)
		want := fmt.Sprintf("bad request body: invalid JSON at offset %d: %s", tc.offset, tc.msg)
		if got := fmt.Sprintf("bad request body: %v", err); got != want {
			t.Errorf("assess %s:\n  got  %s\n  want %s", tc.num, got, want)
		}
		var b BatchRequest
		err = decodeBatchRequest([]byte(`{"batch":[[1],[`+tc.num+`]]}`), sc, &b)
		want = fmt.Sprintf("bad request body: invalid JSON at offset %d: %s", tc.offset+2, tc.msg)
		if got := fmt.Sprintf("bad request body: %v", err); got != want {
			t.Errorf("batch %s:\n  got  %s\n  want %s", tc.num, got, want)
		}
	}
}

// appendNumberRow appends a JSON array of cols random doubles around the
// magnitude of a DVFS feature, each rendered through format.
func appendNumberRow(b []byte, rng *rand.Rand, cols int, format func(b []byte, v float64) []byte) []byte {
	b = append(b, '[')
	for j := 0; j < cols; j++ {
		if j > 0 {
			b = append(b, ',')
		}
		b = format(b, rng.NormFloat64()*1000)
	}
	return append(b, ']')
}

// numberBatchBody is a /v1/assess/batch body of rows × cols seeded random
// doubles.
func numberBatchBody(rows, cols int, format func(b []byte, v float64) []byte) []byte {
	rng := rand.New(rand.NewSource(1))
	b := []byte(`{"batch":[`)
	for i := 0; i < rows; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendNumberRow(b, rng, cols, format)
	}
	return append(b, "]}"...)
}

// shortest is the repo benchmark's rendering (benchmark/inputs.go): every
// number takes the kernel. twentyOneDigits has too many digits for an
// exact mantissa: every number takes the strconv fallback.
func shortest(b []byte, v float64) []byte        { return strconv.AppendFloat(b, v, 'g', -1, 64) }
func twentyOneDigits(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'e', 20, 64) }

// TestAllocsDecode pins a warm-scratch decode of the benchmark's body
// shape, 64 rows × 17 numbers, at zero allocations on the kernel path and
// on the fallback path alike.
func TestAllocsDecode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for name, format := range map[string]func([]byte, float64) []byte{"kernel": shortest, "fallback": twentyOneDigits} {
		body := numberBatchBody(64, 17, format)
		sc := new(codecScratch)
		var req BatchRequest
		do := func() {
			if err := decodeBatchRequest(body, sc, &req); err != nil || len(req.Batch) != 64 || len(req.Batch[63]) != 17 {
				t.Fatalf("%s: decoded %d rows, err %v", name, len(req.Batch), err)
			}
		}
		do() // grow the scratch
		if got := testing.AllocsPerRun(100, do); got != 0 {
			t.Errorf("%s path: decodeBatchRequest allocates %.1f/op, want 0", name, got)
		}
	}
}

// benchBatchBody is a /v1/assess/batch body built the way the repo
// benchmark builds one (benchmark/inputs.go): an explicit model, a device
// key, and 64 rows drawn from the DVFS test and unknown splits with every
// feature nudged by a relative 1e-3 and an absolute 1e-6 normal step,
// rendered shortest. About three quarters of the 1088 numbers come out as
// 0.… with 16–17 significant digits and the rest in e-06/e-07 form; digit
// loops read differently on this shape than on numberBatchBody's.
func benchBatchBody(tb testing.TB) []byte {
	tb.Helper()
	s, err := gen.DVFSWithSizes(3, gen.Sizes{Train: 1, Test: 140, Unknown: 40})
	if err != nil {
		tb.Fatal(err)
	}
	var base [][]float64
	for i := 0; i < s.Test.Len(); i++ {
		base = append(base, s.Test.At(i).Features)
	}
	for i := 0; i < s.Unknown.Len(); i++ {
		base = append(base, s.Unknown.At(i).Features)
	}
	rng := rand.New(rand.NewSource(1))
	b := []byte(`{"model":"dvfs-rf","device":"dev-00","batch":[`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range base[rng.Intn(len(base))] {
			if j > 0 {
				b = append(b, ',')
			}
			b = shortest(b, v*(1+1e-3*rng.NormFloat64())+1e-6*rng.NormFloat64())
		}
		b = append(b, ']')
	}
	return append(b, ']', '}')
}

// BenchmarkDecodeBatchRequest decodes the repo benchmark's batch body
// (benchBatchBody, 64 rows × 17 numbers) into a warm scratch: the codec's
// share of a batch-closed op, and of the owner's half of a forward-closed
// one.
func BenchmarkDecodeBatchRequest(b *testing.B) {
	body := benchBatchBody(b)
	sc := new(codecScratch)
	var req BatchRequest
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decodeBatchRequest(body, sc, &req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPeekRoute reads the routing keys of the same body: all the
// entry node of a forward-closed op reads before it forwards.
func BenchmarkPeekRoute(b *testing.B) {
	body := benchBatchBody(b)
	sc := new(codecScratch)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := peekRoute(body, sc, "batch"); !ok {
			b.Fatal("peek declined the benchmark body")
		}
	}
}

// BenchmarkDecodeAssessRequest decodes one 17-feature /v1/assess body.
func BenchmarkDecodeAssessRequest(b *testing.B) {
	body := append(appendNumberRow([]byte(`{"features":`), rand.New(rand.NewSource(1)), 17, shortest), '}')
	sc := new(codecScratch)
	var req AssessRequest
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decodeAssessRequest(body, sc, &req); err != nil {
			b.Fatal(err)
		}
	}
}
