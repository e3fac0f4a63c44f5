// Package jsonwire holds the two JSON value encoders the hand-rolled
// writers share — the serving codec (pkg/serve) and the verdict store's
// frame encoder (pkg/verdictstore). Both promise bytes identical to
// encoding/json, so the string and float rules live here once.
package jsonwire

import (
	"encoding/binary"
	"math"
	"strconv"
	"unicode/utf8"

	"trusthmd/internal/decfloat"
)

// AppendFloat formats a float64 exactly like encoding/json: the shortest
// digits that read back as f (decfloat.Shortest), laid out as strconv's
// 'f' format inside [1e-6, 1e21) and as 'e' outside it, with the exponent
// written without the leading zero strconv pads it to ("e-7", not
// "e-07"). NaN and ±Inf, which encoding/json refuses, are the caller's to
// reject first; strconv writes them.
func AppendFloat(b []byte, f float64) []byte {
	if f == 0 {
		if math.Signbit(f) {
			return append(b, '-', '0')
		}
		return append(b, '0')
	}
	man, exp10, ok := decfloat.Shortest(f)
	if !ok {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	if f < 0 {
		b = append(b, '-')
	}
	// Digits right to left: eight at a time while more than eight are
	// left, then two at a time.
	var buf [24]byte
	i := len(buf)
	for man >= 1e8 {
		q := man / 1e8
		i -= 8
		binary.LittleEndian.PutUint64(buf[i:], digits8(uint32(man-q*1e8)))
		man = q
	}
	m := uint32(man)
	for m >= 100 {
		q := m / 100
		r := m - q*100
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*r], digitPairs[2*r+1]
		m = q
	}
	if m >= 10 {
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*m], digitPairs[2*m+1]
	} else {
		i--
		buf[i] = byte('0' + m)
	}
	digits := buf[i:]
	point := len(digits) + exp10 // digits before the decimal point

	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		b = append(b, digits[0])
		if len(digits) > 1 {
			b = append(b, '.')
			b = append(b, digits[1:]...)
		}
		e := point - 1
		if e < 0 {
			b = append(b, 'e', '-')
			e = -e
		} else {
			b = append(b, 'e', '+')
		}
		return strconv.AppendInt(b, int64(e), 10)
	}
	switch {
	case point <= 0:
		b = append(b, '0', '.')
		for ; point < 0; point++ {
			b = append(b, '0')
		}
		return append(b, digits...)
	case point < len(digits):
		b = append(b, digits[:point]...)
		b = append(b, '.')
		return append(b, digits[point:]...)
	default:
		b = append(b, digits...)
		for point -= len(digits); point > 0; point-- {
			b = append(b, '0')
		}
		return b
	}
}

// digits8 returns v < 1e8 as eight ASCII digits, most significant in the
// low byte, for a little-endian store. The halves, quarters and single
// digits are split in parallel lanes of one uint64: ⌊x/100⌋ is
// x·10486 >> 20 for x < 10^4 and ⌊x/10⌋ is x·103 >> 10 for x < 100, and
// no product crosses into the next lane.
func digits8(v uint32) uint64 {
	x := uint64(v/10000) | uint64(v%10000)<<32
	h := (x * 10486 >> 20) & 0x0000007F_0000007F
	x = h | (x-h*100)<<16
	t := (x * 103 >> 10) & 0x000F_000F_000F_000F
	x = t | (x-t*10)<<8
	return x + 0x30303030_30303030
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string exactly like encoding/json
// with HTML escaping on (the json.Encoder default): `<`, `>`, `&` become
// \u00XX, U+2028 and U+2029 are escaped, control characters use the short
// escapes encoding/json uses (\b, \f, \n, \r, \t) or \u00XX, and each
// invalid UTF-8 byte becomes the literal escape `\ufffd`.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				// Other control characters and the HTML-sensitive trio.
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
