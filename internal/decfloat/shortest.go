package decfloat

import (
	"math"
	"math/bits"
)

const (
	mantBits = 52    // explicit significand bits of a float64
	qMin     = -1074 // exponent of a subnormal's least significant bit
)

// Shortest returns the decimal man × 10^exp10 that strconv's shortest
// formatting (precision -1, which encoding/json uses) prints for |f|: the
// fewest significant digits that read back as f, of those the one closest
// to f, ties to an even last digit. man carries no trailing zeros; ±0 is
// (0, 0). ok is false only for NaN and ±Inf.
//
// It is Schubfach's toDecimal (R. Giulietti, "The Schubfach way to render
// doubles", 2020 — the algorithm behind Java's Double.toString since JDK
// 19) on the table FromDecimal reads: f and both ends of its rounding
// interval are scaled by one product each against
// g = ⌊10^-k · 2^-r⌋ + 1, 2^125 ≤ g < 2^126, which is pow10[-k] >> 2, plus
// one (schubfachG; TestSchubfachG checks every k against math/big).
func Shortest(f float64) (man uint64, exp10 int, ok bool) {
	b := math.Float64bits(f)
	t := b & (1<<mantBits - 1)
	switch bq := int(b>>mantBits) & 0x7FF; {
	case bq == 0x7FF:
		return 0, 0, false
	case bq != 0:
		c, q := 1<<mantBits|t, bq-1+qMin
		// An integer below 2^53 is its own shortest form: its rounding
		// interval is at most ±1/2 wide and holds no other integer.
		if -mantBits-1 < q && q < 0 && c>>uint(-q)<<uint(-q) == c {
			man = c >> uint(-q)
			break
		}
		man, exp10 = toDecimal(q, c)
	case t == 0:
		return 0, 0, true
	default:
		man, exp10 = toDecimal(qMin, t)
	}
	// A short decimal (a vote share k/25) comes out with up to 16 trailing
	// zeros; strip them eight, four, two and one at a time.
	if man%10 == 0 {
		for man%1e8 == 0 {
			man /= 1e8
			exp10 += 8
		}
		if man%1e4 == 0 {
			man /= 1e4
			exp10 += 4
		}
		if man%100 == 0 {
			man /= 100
			exp10 += 2
		}
		if man%10 == 0 {
			man /= 10
			exp10++
		}
	}
	return man, exp10, true
}

// toDecimal is Schubfach's core for the value c × 2^q: the shortest, then
// closest, decimal in the rounding interval as (digits, exponent), possibly
// with trailing zeros.
func toDecimal(q int, c uint64) (uint64, int) {
	out := c & 1 // an even significand's interval is closed
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != 1<<mantBits || q == qMin {
		cbl = cb - 2
		k = flog10pow2(q)
	} else {
		// The bottom of a binade: the gap below is half the one above.
		cbl = cb - 1
		k = flog10threeQuartersPow2(q)
	}
	h := uint(q + flog2pow10(-k) + 2)

	// g split at bit 63, as rop wants it.
	ghi, glo := schubfachG(k)
	g1, g0 := ghi<<1|glo>>63, glo&(1<<63-1)

	vb := rop(g1, g0, cb<<h)
	vbl := rop(g1, g0, cbl<<h)
	vbr := rop(g1, g0, cbr<<h)

	// One digit fewer first: s' = ⌊s/10⌋ by multiply-high, then whether
	// exactly one of 10s' and 10s' + 10 (times 10^k) is in the interval —
	// it is narrower than 10^(k+1), so both cannot be. Java probes only
	// from s ≥ 100, as it prints at least two digits; strconv goes down to
	// one, which only a subnormal (s < 100) can tell apart.
	s := vb >> 2
	sp, _ := bits.Mul64(s, 115_292_150_460_684_698<<4)
	sp10 := 10 * sp
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	// Both in the interval: the closer one, the even one on a tie.
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// schubfachG returns Schubfach's g for k, ⌊10^-k · 2^-r⌋ + 1 with
// 2^125 ≤ g < 2^126, as its high and low words: the table entry of 10^-k
// is the same product to 128 bits, rounded down.
func schubfachG(k int) (hi, lo uint64) {
	p := &pow10[-k-minExp10]
	hi, lo = p.hi>>2, (p.hi<<62|p.lo>>2)+1
	if lo == 0 {
		hi++
	}
	return hi, lo
}

// rop returns cp × g / 2^127 rounded to odd — the low bit set when the
// quotient is inexact — for g = g1·2^63 + g0 with both halves below 2^63.
func rop(g1, g0, cp uint64) uint64 {
	const mask63 = 1<<63 - 1
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	return (y1 + z>>63) | ((z&mask63)+mask63)>>63
}

// flog10pow2 is ⌊log10(2^e)⌋, flog10threeQuartersPow2 ⌊log10(3/4 · 2^e)⌋
// and flog2pow10 ⌊log2(10^e)⌋, exact far beyond float64's exponents.
func flog10pow2(e int) int { return e * 661_971_961_083 >> 41 }

func flog10threeQuartersPow2(e int) int {
	return (e*661_971_961_083 - 274_743_187_321) >> 41
}

func flog2pow10(e int) int { return e * 913_124_641_741 >> 38 }
