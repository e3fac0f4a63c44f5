// Package decfloat converts between float64 and decimal digits, both
// directions on one 128-bit power-of-ten table.
//
// Reading, FromDecimal turns a decimal mantissa and base-10 exponent into
// the nearest float64 with the Eisel–Lemire algorithm
// (https://nigeltao.github.io/blog/2020/eisel-lemire.html) — the fast path
// inside strconv.ParseFloat, lifted out so a caller that already holds the
// digits (pkg/serve's JSON number scanner) does not have to render them
// back to a string and have strconv scan them a second time.
//
// Writing, Shortest finds the shortest decimal that reads back as a
// float64 with Schubfach — the digits strconv's shortest formatting picks
// with Ryū — for internal/jsonwire to lay out as encoding/json does.
//
// Each kernel either returns strconv's answer or reports that it cannot
// vouch for one; neither returns a wrong value. Callers keep strconv as
// the fallback and as the reference.
package decfloat

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// minExp10 and maxExp10 bound the powers of ten the table holds, both
// inclusive: the range outside which no 19-digit mantissa reaches a finite
// normal float64.
const (
	minExp10 = -348
	maxExp10 = 347
)

// pow10 holds the top 128 bits of every power of ten in range, rounded
// down; the binary exponent is implied by the decimal one. It is built at
// init, ~0.15 ms, rather than pasted in as a 696-line literal;
// TestTableMatchesStrconv compares it entry for entry with the table in
// Go's own strconv. FromDecimal and Shortest both read it.
var pow10 [maxExp10 - minExp10 + 1]struct{ hi, lo uint64 }

// exact10 holds the powers of ten a float64 represents exactly.
var exact10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

func init() {
	one, ten := big.NewInt(1), big.NewInt(10)
	var m big.Int
	var b [16]byte
	set := func(e int) {
		m.FillBytes(b[:])
		pow10[e-minExp10].hi = binary.BigEndian.Uint64(b[:8])
		pow10[e-minExp10].lo = binary.BigEndian.Uint64(b[8:])
	}
	for e, p := 0, big.NewInt(1); e <= maxExp10; e++ {
		// 10^e, shifted so that its top bit is bit 127.
		if n := p.BitLen(); n <= 128 {
			m.Lsh(p, uint(128-n))
		} else {
			m.Rsh(p, uint(n-128))
		}
		set(e)
		p.Mul(p, ten)
	}
	for e, p := -1, big.NewInt(10); e >= minExp10; e-- {
		// 2^(n-1) < 10^-e < 2^n, so floor(2^(n+127) / 10^-e) has exactly
		// 128 bits.
		m.Lsh(one, uint(p.BitLen()+127))
		m.Quo(&m, p)
		set(e)
		p.Mul(p, ten)
	}
}

// FromDecimal returns the float64 nearest to ±man × 10^exp10, ties to
// even, and true; or false when it cannot decide: exp10 outside the table,
// a product too close to a rounding boundary for 128 bits to settle, or a
// result that is subnormal or overflows. man is exact — a caller that
// dropped digits must not ask.
func FromDecimal(man uint64, exp10 int, neg bool) (float64, bool) {
	var sign uint64
	if neg {
		sign = 1 << 63
	}
	if man == 0 {
		return math.Float64frombits(sign), true
	}
	// A mantissa and a power of ten that are both exact float64s need one
	// correctly rounded multiply or divide (Clinger's fast path). It is
	// not only a shortcut: short decimals that are exact in binary (0.5,
	// 2.25) are what the truncated table below cannot tell from half-way.
	if man>>53 == 0 && -22 <= exp10 && exp10 <= 22 {
		f := float64(man)
		if exp10 < 0 {
			f /= exact10[-exp10]
		} else {
			f *= exact10[exp10]
		}
		return math.Float64frombits(sign | math.Float64bits(f)), true
	}
	if exp10 < minExp10 || exp10 > maxExp10 {
		return 0, false
	}
	pow := &pow10[exp10-minExp10]

	// Normalise man to a set top bit; 217706/65536 ≈ log2(10) gives the
	// binary exponent of the table entry.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	// man × the entry's high word: 64 of the product's bits are enough
	// unless the low 9 of the top word are all ones and the truncated
	// tail could carry into them; then bring in the entry's low word.
	hi, lo := bits.Mul64(man, pow.hi)
	if hi&0x1FF == 0x1FF && lo+man < man {
		yhi, ylo := bits.Mul64(man, pow.lo)
		mhi, mlo := hi, lo+yhi
		if mlo < lo {
			mhi++
		}
		if mhi&0x1FF == 0x1FF && mlo+1 == 0 && ylo+man < man {
			return 0, false // still undecided at 128 bits
		}
		hi, lo = mhi, mlo
	}

	// 54 bits: the 53 of a float64 mantissa and one to round with.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false // exactly half-way as far as the truncated product shows
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	// exp2 ≤ 0 (as a wrapped uint64) is subnormal, ≥ 0x7FF is Inf.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	return math.Float64frombits(sign | exp2<<52 | mant&(1<<52-1)), true
}
