// Package jsonwire holds the two JSON value encoders the hand-rolled
// writers share — the serving codec (pkg/serve) and the verdict store's
// frame encoder (pkg/verdictstore). Both promise bytes identical to
// encoding/json, so the string and float rules live here once.
package jsonwire

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendFloat formats a float64 exactly like encoding/json: shortest
// round-trip form, 'e' notation only past the same magnitude thresholds,
// and the two-digit exponent cleanup ("e-09" → "e-9"). NaN and ±Inf, which
// encoding/json refuses, are the caller's to reject first.
func AppendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

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
