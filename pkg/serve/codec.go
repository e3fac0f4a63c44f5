package serve

// Hand-rolled request/response codecs for the assessment hot path.
//
// encoding/json walks every request and response through reflection and
// allocates intermediate state per call; at high QPS the daemon spends a
// measurable share of each request marshalling, not assessing. The codecs
// here are specialised to the four wire shapes of the hot path —
// AssessRequest and BatchRequest in, AssessResponse and BatchResponse (and
// the ErrorResponse envelope) out — and decode into pooled scratch /
// encode into pooled byte buffers, so the steady-state request path
// performs no codec allocations at all.
//
// The contract with encoding/json is exact, not approximate:
//
//   - decoding accepts an input if and only if a json.Decoder with
//     DisallowUnknownFields (plus the trailing-data check the handlers
//     apply) accepts it, and produces the same decoded values — including
//     the fussy corners: case-folded key matching, escaped keys, null
//     semantics per field kind, "[]" vs "null" slices, number grammar and
//     range errors, surrogate-pair and invalid-UTF-8 replacement
//     (FuzzAssessRequestDecode cross-checks all of this on arbitrary
//     bytes);
//   - encoding is byte-identical to json.Encoder.Encode of the response
//     structs, trailing newline included (golden-pinned in codec_test.go).
//
// Numbers are most of a request's bytes (1088 of them in a 64-row batch
// body), so parseNumber reads each once: grammar check and decimal→float64
// conversion share a pass (internal/decfloat), with strconv as the
// fallback for the rare inputs the fast conversion will not vouch for.
//
// A node in a cluster reads no number of a body it forwards: peekRoute
// reads only the routing keys, through the same object/string/field-match
// code as the decoders, and skips the number arrays by bracket matching.
// The owner decodes the forwarded bytes strictly, so a body is decoded
// once, and a refused body is refused with the same status and bytes
// whichever node it entered on.
//
// A codecScratch is one request's workspace, recycled through a sync.Pool:
// the decoded feature slices alias it, the assessment copies the verdict's
// VoteDist into its votes buffer, and the response bytes are assembled in
// its out buffer. Ownership is strictly per-request — everything the
// serving layer retains copies out of it before the handler returns it to
// the pool: the verdict store frames every record. The batch path's
// results live in the scratch's assess workspace and never leave it.

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"trusthmd/internal/decfloat"
	"trusthmd/internal/jsonwire"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/verdictstore"
)

// codecScratch is the pooled per-request workspace of the hot-path codecs
// and handlers. The zero value is ready to use; buffers grow on demand and
// are reused across requests.
type codecScratch struct {
	body     []byte                // raw request body
	features []float64             // AssessRequest.Features backing
	rows     [][]float64           // BatchRequest.Batch row views; each row keeps its own backing
	votes    []float64             // VoteDist copy-out buffer threaded to Fleet.Assess
	out      []byte                // response encode buffer
	str      []byte                // unquoted string/key scratch
	recs     []verdictstore.Record // batch path: the request's verdict records, one AppendBatch
	assess   detector.BatchScratch // batch path: AssessBatchInto's workspace and results
}

var codecPool = sync.Pool{New: func() any { return new(codecScratch) }}

func getCodecScratch() *codecScratch  { return codecPool.Get().(*codecScratch) }
func putCodecScratch(s *codecScratch) { codecPool.Put(s) }

// errTrailingData marks syntactically complete JSON followed by more
// non-whitespace input — the handlers answer it with the same message the
// generic decoder path uses for dec.More().
var errTrailingData = errors.New("trailing data after JSON body")

// checkTrailing mirrors the generic path's dec.More() guard exactly:
// More() peeks the next non-whitespace byte and reports false for '}' and
// ']', so trailing input starting with either is (perhaps surprisingly)
// accepted and ignored — parity demands we do the same.
func (p *jsonParser) checkTrailing() error {
	p.skipWS()
	if p.pos < len(p.buf) && p.buf[p.pos] != '}' && p.buf[p.pos] != ']' {
		return errTrailingData
	}
	return nil
}

// ---------------------------------------------------------------------------
// Decoding

type jsonParser struct {
	buf []byte
	pos int
	sc  *codecScratch
	// rawKey is the last object key as written, between its quotes.
	rawKey []byte
}

func (p *jsonParser) errAt(format string, args ...any) error {
	return fmt.Errorf("invalid JSON at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *jsonParser) skipWS() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// lit consumes the literal s ("null", "true", "false") or errors.
func (p *jsonParser) lit(s string) error {
	if len(p.buf)-p.pos < len(s) || string(p.buf[p.pos:p.pos+len(s)]) != s {
		return p.errAt("expected %q", s)
	}
	p.pos += len(s)
	return nil
}

// decodeAssessRequest decodes one AssessRequest body with semantics
// identical to the strict json.Decoder path (see the package comment).
// req.Features aliases sc and is valid until sc's next use.
func decodeAssessRequest(data []byte, sc *codecScratch, req *AssessRequest) error {
	*req = AssessRequest{}
	p := jsonParser{buf: data, sc: sc}
	p.skipWS()
	if p.pos >= len(p.buf) {
		return p.errAt("unexpected end of input")
	}
	switch p.buf[p.pos] {
	case 'n':
		// A bare null leaves the target untouched, exactly like Decode.
		if err := p.lit("null"); err != nil {
			return err
		}
	case '{':
		if err := p.object(func(key []byte) error {
			switch {
			case fieldMatch(key, "model"):
				return p.stringField(&req.Model)
			case fieldMatch(key, "device"):
				return p.stringField(&req.Device)
			case fieldMatch(key, "features"):
				f, err := p.floatArrayField(sc.features)
				if err != nil {
					return err
				}
				if f != nil {
					sc.features = f
				}
				req.Features = f
				return nil
			default:
				return p.errAt("unknown field %q", key)
			}
		}); err != nil {
			return err
		}
	default:
		return p.errAt("request body must be a JSON object")
	}
	return p.checkTrailing()
}

// decodeBatchRequest decodes one BatchRequest body; row slices alias sc.
func decodeBatchRequest(data []byte, sc *codecScratch, req *BatchRequest) error {
	*req = BatchRequest{}
	p := jsonParser{buf: data, sc: sc}
	p.skipWS()
	if p.pos >= len(p.buf) {
		return p.errAt("unexpected end of input")
	}
	switch p.buf[p.pos] {
	case 'n':
		if err := p.lit("null"); err != nil {
			return err
		}
	case '{':
		if err := p.object(func(key []byte) error {
			switch {
			case fieldMatch(key, "model"):
				return p.stringField(&req.Model)
			case fieldMatch(key, "device"):
				return p.stringField(&req.Device)
			case fieldMatch(key, "batch"):
				b, err := p.batchField()
				if err != nil {
					return err
				}
				req.Batch = b
				return nil
			default:
				return p.errAt("unknown field %q", key)
			}
		}); err != nil {
			return err
		}
	default:
		return p.errAt("request body must be a JSON object")
	}
	return p.checkTrailing()
}

// errPeekDeclined ends a peek at a body that peekRoute does not read.
var errPeekDeclined = errors.New("peek declined")

// peekRoute reads the routing keys of an assessment body, its top-level
// "model" and "device", without converting a number: the value of field
// ("features", or "batch" for an array of rows) is skipped by bracket
// matching. Keys and key values go through the decoders' own object,
// fieldMatch and stringField, so case folding, escaped values, null and
// last-duplicate-wins are theirs. On any body a decoder accepts, peekRoute
// either returns that decoder's Model and Device or declines (ok false).
// It declines a non-object body, a key written with an escape (clients
// write the three names plain; the decoder takes the rare spelling), any
// other key, a key value that is neither string nor null, a field value
// that is not an array or null, and trailing data.
func peekRoute(data []byte, sc *codecScratch, field string) (model, device string, ok bool) {
	depth := 1
	if field == "batch" {
		depth = 2
	}
	p := jsonParser{buf: data, sc: sc}
	p.skipWS()
	if p.pos >= len(p.buf) || p.buf[p.pos] != '{' {
		return "", "", false
	}
	err := p.object(func(key []byte) error {
		switch {
		case string(p.rawKey) != string(key):
			return errPeekDeclined
		case fieldMatch(key, "model"):
			return p.stringField(&model)
		case fieldMatch(key, "device"):
			return p.stringField(&device)
		case fieldMatch(key, field):
			return p.skipNumbers(depth)
		default:
			return errPeekDeclined
		}
	})
	if err != nil || p.checkTrailing() != nil {
		return "", "", false
	}
	return model, device, true
}

// skipNumbers consumes null or an array of numbers (depth 1) or of such
// arrays (depth 2) without reading the numbers. A value the decoders accept
// holds no string, so the first ']' closes the innermost array. A value
// they refuse may be misread; its body is refused by the strict decode on
// whichever node the keys route it to.
func (p *jsonParser) skipNumbers(depth int) error {
	if p.pos < len(p.buf) && p.buf[p.pos] == 'n' {
		return p.lit("null")
	}
	if p.pos >= len(p.buf) || p.buf[p.pos] != '[' {
		return errPeekDeclined
	}
	if depth == 1 {
		end := bytes.IndexByte(p.buf[p.pos:], ']')
		if end < 0 {
			return errPeekDeclined
		}
		p.pos += end + 1
		return nil
	}
	p.pos++
	for {
		p.skipWS()
		if p.pos < len(p.buf) && p.buf[p.pos] == ']' {
			p.pos++
			return nil
		}
		if err := p.skipNumbers(depth - 1); err != nil {
			return err
		}
		p.skipWS()
		if p.pos < len(p.buf) && p.buf[p.pos] == ',' {
			p.pos++
		}
	}
}

// object walks {"key": value, ...}, calling field for each key with the
// cursor positioned at the value. field must consume the value.
func (p *jsonParser) object(field func(key []byte) error) error {
	p.pos++ // '{'
	p.skipWS()
	if p.pos < len(p.buf) && p.buf[p.pos] == '}' {
		p.pos++
		return nil
	}
	for {
		p.skipWS()
		if p.pos >= len(p.buf) || p.buf[p.pos] != '"' {
			return p.errAt("expected object key")
		}
		start := p.pos
		key, err := p.parseString(p.sc.str[:0])
		if err != nil {
			return err
		}
		p.sc.str = key[:0]
		p.rawKey = p.buf[start+1 : p.pos-1]
		p.skipWS()
		if p.pos >= len(p.buf) || p.buf[p.pos] != ':' {
			return p.errAt("expected ':' after object key")
		}
		p.pos++
		p.skipWS()
		if err := field(key); err != nil {
			return err
		}
		p.skipWS()
		if p.pos >= len(p.buf) {
			return p.errAt("unexpected end of object")
		}
		switch p.buf[p.pos] {
		case ',':
			p.pos++
		case '}':
			p.pos++
			return nil
		default:
			return p.errAt("expected ',' or '}' in object")
		}
	}
}

// fieldMatch replicates encoding/json's member matching: exact name first,
// then a case-insensitive match under Unicode simple folding.
func fieldMatch(key []byte, name string) bool {
	if string(key) == name {
		return true
	}
	return foldEqual(key, name)
}

// foldEqual reports whether key and name are equal under Unicode simple
// case folding — the same relation encoding/json's folded field names and
// strings.EqualFold implement.
func foldEqual(key []byte, name string) bool {
	for len(key) > 0 && len(name) > 0 {
		var kr, nr rune
		if key[0] < utf8.RuneSelf {
			kr, key = rune(key[0]), key[1:]
		} else {
			r, size := utf8.DecodeRune(key)
			kr, key = r, key[size:]
		}
		if name[0] < utf8.RuneSelf {
			nr, name = rune(name[0]), name[1:]
		} else {
			r, size := utf8.DecodeRuneInString(name)
			nr, name = r, name[size:]
		}
		if kr == nr {
			continue
		}
		// Fold both to their minimal simple-fold representative.
		if minFold(kr) != minFold(nr) {
			return false
		}
	}
	return len(key) == 0 && len(name) == 0
}

// minFold returns the smallest rune in r's simple-fold orbit.
func minFold(r rune) rune {
	min := r
	for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
		if f < min {
			min = f
		}
	}
	return min
}

// stringField consumes a string (or null, which leaves dst untouched) into
// dst.
func (p *jsonParser) stringField(dst *string) error {
	if p.pos < len(p.buf) && p.buf[p.pos] == 'n' {
		return p.lit("null")
	}
	if p.pos >= len(p.buf) || p.buf[p.pos] != '"' {
		return p.errAt("expected string value")
	}
	s, err := p.parseString(p.sc.str[:0])
	if err != nil {
		return err
	}
	p.sc.str = s[:0]
	*dst = string(s)
	return nil
}

// floatArrayField consumes an array of numbers (or null → nil) appending
// into buf; a null element leaves its freshly-grown slot at zero, exactly
// like encoding/json. The returned slice is non-nil for "[]".
func (p *jsonParser) floatArrayField(buf []float64) ([]float64, error) {
	if p.pos < len(p.buf) && p.buf[p.pos] == 'n' {
		if err := p.lit("null"); err != nil {
			return nil, err
		}
		return nil, nil
	}
	if p.pos >= len(p.buf) || p.buf[p.pos] != '[' {
		return nil, p.errAt("expected array of numbers")
	}
	p.pos++
	out := buf[:0]
	if out == nil {
		out = make([]float64, 0, 8)
	}
	p.skipWS()
	if p.pos < len(p.buf) && p.buf[p.pos] == ']' {
		p.pos++
		return out, nil
	}
	for {
		p.skipWS()
		if p.pos >= len(p.buf) {
			return nil, p.errAt("unexpected end of array")
		}
		if p.buf[p.pos] == 'n' {
			if err := p.lit("null"); err != nil {
				return nil, err
			}
			out = append(out, 0)
		} else {
			v, err := p.parseNumber()
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		p.skipWS()
		if p.pos >= len(p.buf) {
			return nil, p.errAt("unexpected end of array")
		}
		switch p.buf[p.pos] {
		case ',':
			p.pos++
		case ']':
			p.pos++
			return out, nil
		default:
			return nil, p.errAt("expected ',' or ']' in array")
		}
	}
}

// batchField consumes [][]float64 (or null → nil). Row backing arrays are
// recycled from sc.rows so a steady-state client batch decodes without
// allocation.
func (p *jsonParser) batchField() ([][]float64, error) {
	if p.pos < len(p.buf) && p.buf[p.pos] == 'n' {
		if err := p.lit("null"); err != nil {
			return nil, err
		}
		return nil, nil
	}
	if p.pos >= len(p.buf) || p.buf[p.pos] != '[' {
		return nil, p.errAt("expected array of arrays")
	}
	p.pos++
	rows := p.sc.rows[:0]
	if rows == nil {
		rows = make([][]float64, 0, 8)
	}
	n := 0
	p.skipWS()
	if p.pos < len(p.buf) && p.buf[p.pos] == ']' {
		p.pos++
		p.sc.rows = rows
		return rows, nil
	}
	for {
		p.skipWS()
		if p.pos >= len(p.buf) {
			return nil, p.errAt("unexpected end of array")
		}
		// Reuse the n-th row's previous backing when there is one.
		var rowBuf []float64
		if n < len(p.sc.rows) {
			rowBuf = p.sc.rows[n]
		}
		row, err := p.floatArrayField(rowBuf)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		n++
		p.skipWS()
		if p.pos >= len(p.buf) {
			return nil, p.errAt("unexpected end of array")
		}
		switch p.buf[p.pos] {
		case ',':
			p.pos++
		case ']':
			p.pos++
			// Keep every row's backing for reuse: rows beyond n retain their
			// old capacity in sc.rows' tail.
			if len(rows) >= len(p.sc.rows) {
				p.sc.rows = rows
			} else {
				copy(p.sc.rows, rows)
				p.sc.rows = p.sc.rows[:len(p.sc.rows)]
			}
			return rows, nil
		default:
			return nil, p.errAt("expected ',' or ']' in array")
		}
	}
}

// parseNumber consumes one JSON number in one pass: the loops that check
// the grammar also gather the significant digits into a decimal mantissa
// and a base-10 exponent, and decfloat.FromDecimal converts those, so no
// digit is read twice.
//
// strconv.ParseFloat's value bits and range error are the contract. When
// the kernel cannot vouch for a result — more than 19 significant digits or
// an exponent field too long to hold (man or exp10 is no longer the
// number's), an exponent outside its table, a product too close to a
// rounding boundary, a subnormal or overflowing value — the number's bytes
// go to ParseFloat itself.
func (p *jsonParser) parseNumber() (float64, error) {
	buf, i := p.buf, p.pos
	start := i
	neg := i < len(buf) && buf[i] == '-'
	if neg {
		i++
	}
	// man is the significant digits as an integer, nd their count; past
	// nd == 19 man has wrapped and only ParseFloat can convert the number.
	var man uint64
	nd, exp10 := 0, 0
	// Integer part: "0" or [1-9][0-9]*.
	switch {
	case i < len(buf) && buf[i] == '0':
		i++
	case i < len(buf) && buf[i] >= '1' && buf[i] <= '9':
		for ; i < len(buf) && buf[i]-'0' <= 9; i++ {
			man = man*10 + uint64(buf[i]-'0')
			nd++
		}
	default:
		p.pos = i
		return 0, p.errAt("invalid number")
	}
	if i < len(buf) && buf[i] == '.' {
		i++
		if i >= len(buf) || buf[i]-'0' > 9 {
			p.pos = i
			return 0, p.errAt("invalid number: digits required after '.'")
		}
		frac := i
		if nd == 0 { // 0.000123: zeros ahead of the first non-zero digit are not significant
			for i < len(buf) && buf[i] == '0' {
				i++
			}
		}
		for ; i < len(buf) && buf[i]-'0' <= 9; i++ {
			man = man*10 + uint64(buf[i]-'0')
			nd++
		}
		exp10 = frac - i
	}
	if i < len(buf) && (buf[i] == 'e' || buf[i] == 'E') {
		i++
		eneg := false
		if i < len(buf) && (buf[i] == '+' || buf[i] == '-') {
			eneg = buf[i] == '-'
			i++
		}
		if i >= len(buf) || buf[i]-'0' > 9 {
			p.pos = i
			return 0, p.errAt("invalid number: digits required in exponent")
		}
		e := 0
		for ; i < len(buf) && buf[i]-'0' <= 9; i++ {
			if e >= 10000 { // this digit is dropped, so exp10 will be wrong: rule the kernel out
				nd = 20
				continue
			}
			e = e*10 + int(buf[i]-'0')
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	p.pos = i
	if nd <= 19 {
		if v, ok := decfloat.FromDecimal(man, exp10, neg); ok {
			return v, nil
		}
	}
	v, err := strconv.ParseFloat(string(buf[start:i]), 64)
	if err != nil {
		// Overflow/underflow: encoding/json rejects any ParseFloat error.
		return 0, p.errAt("number %q out of range", buf[start:i])
	}
	return v, nil
}

// parseString unquotes one JSON string into buf, replicating
// encoding/json's unquote: short escapes, \uXXXX with surrogate-pair
// combination (unpaired surrogates become U+FFFD), invalid UTF-8 bytes
// replaced by U+FFFD, raw control characters rejected.
func (p *jsonParser) parseString(buf []byte) ([]byte, error) {
	p.pos++ // opening '"'
	out := buf
	var runeBuf [utf8.UTFMax]byte
	for {
		if p.pos >= len(p.buf) {
			return nil, p.errAt("unterminated string")
		}
		c := p.buf[p.pos]
		switch {
		case c == '"':
			p.pos++
			if out == nil {
				out = []byte{}
			}
			return out, nil
		case c == '\\':
			p.pos++
			if p.pos >= len(p.buf) {
				return nil, p.errAt("unterminated escape")
			}
			switch p.buf[p.pos] {
			case '"', '\\', '/':
				out = append(out, p.buf[p.pos])
				p.pos++
			case 'b':
				out = append(out, '\b')
				p.pos++
			case 'f':
				out = append(out, '\f')
				p.pos++
			case 'n':
				out = append(out, '\n')
				p.pos++
			case 'r':
				out = append(out, '\r')
				p.pos++
			case 't':
				out = append(out, '\t')
				p.pos++
			case 'u':
				p.pos-- // rewind to the backslash for getu4
				rr := p.getu4()
				if rr < 0 {
					return nil, p.errAt("invalid \\u escape")
				}
				p.pos += 6
				if utf16.IsSurrogate(rr) {
					rr1 := p.getu4()
					if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
						p.pos += 6
						n := utf8.EncodeRune(runeBuf[:], dec)
						out = append(out, runeBuf[:n]...)
						break
					}
					rr = unicode.ReplacementChar
				}
				n := utf8.EncodeRune(runeBuf[:], rr)
				out = append(out, runeBuf[:n]...)
			default:
				return nil, p.errAt("invalid escape character %q", p.buf[p.pos])
			}
		case c < 0x20:
			return nil, p.errAt("raw control character in string")
		case c < utf8.RuneSelf:
			out = append(out, c)
			p.pos++
		default:
			r, size := utf8.DecodeRune(p.buf[p.pos:])
			p.pos += size
			n := utf8.EncodeRune(runeBuf[:], r)
			out = append(out, runeBuf[:n]...)
		}
	}
}

// getu4 decodes \uXXXX at the cursor without consuming it, returning -1 on
// malformed input — the shape of encoding/json's helper.
func (p *jsonParser) getu4() rune {
	s := p.buf[p.pos:]
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c = c - 'a' + 10
		case c >= 'A' && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// ---------------------------------------------------------------------------
// Encoding

// appendAssessResponse appends the exact bytes json.Encoder.Encode emits
// for resp, trailing newline included.
func appendAssessResponse(b []byte, resp *AssessResponse) []byte {
	b = appendAssessObject(b, resp.Model, resp.Version, resp.Prediction, resp.Entropy, resp.VoteDist, resp.Decision, resp.Decomposition)
	return append(b, '\n')
}

// appendBatchResponseResults appends the BatchResponse wire form straight
// from detector results, skipping the intermediate []AssessResponse the
// reflective encoder would need. Byte-identical to encoding BatchResponse
// built via toResponse.
func appendBatchResponseResults(b []byte, model string, version uint64, results []detector.Result) []byte {
	b = append(b, `{"model":`...)
	b = jsonwire.AppendString(b, model)
	b = append(b, `,"version":`...)
	b = strconv.AppendUint(b, version, 10)
	b = append(b, `,"results":[`...)
	for i := range results {
		if i > 0 {
			b = append(b, ',')
		}
		r := &results[i]
		var dec *Decomposition
		if r.Decomposition != nil {
			dec = &Decomposition{
				Total:     r.Decomposition.Total,
				Aleatoric: r.Decomposition.Aleatoric,
				Epistemic: r.Decomposition.Epistemic,
			}
		}
		b = appendAssessObject(b, model, version, r.Prediction, r.Entropy, r.VoteDist, r.Decision.String(), dec)
	}
	b = append(b, ']', '}', '\n')
	return b
}

func appendAssessObject(b []byte, model string, version uint64, prediction int, entropy float64, voteDist []float64, decision string, dec *Decomposition) []byte {
	b = append(b, `{"model":`...)
	b = jsonwire.AppendString(b, model)
	b = append(b, `,"version":`...)
	b = strconv.AppendUint(b, version, 10)
	b = append(b, `,"prediction":`...)
	b = strconv.AppendInt(b, int64(prediction), 10)
	b = append(b, `,"entropy":`...)
	b = jsonwire.AppendFloat(b, entropy)
	b = append(b, `,"vote_dist":`...)
	if voteDist == nil {
		b = append(b, `null`...)
	} else {
		b = append(b, '[')
		for i, v := range voteDist {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonwire.AppendFloat(b, v)
		}
		b = append(b, ']')
	}
	b = append(b, `,"decision":`...)
	b = jsonwire.AppendString(b, decision)
	if dec != nil {
		b = append(b, `,"decomposition":{"total":`...)
		b = jsonwire.AppendFloat(b, dec.Total)
		b = append(b, `,"aleatoric":`...)
		b = jsonwire.AppendFloat(b, dec.Aleatoric)
		b = append(b, `,"epistemic":`...)
		b = jsonwire.AppendFloat(b, dec.Epistemic)
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendResultResponse appends the AssessResponse wire form straight from
// a detector result — the single-verdict counterpart of
// appendBatchResponseResults, byte-identical to encoding via toResponse.
func appendResultResponse(b []byte, model string, version uint64, r *detector.Result) []byte {
	var dec *Decomposition
	if r.Decomposition != nil {
		dec = &Decomposition{
			Total:     r.Decomposition.Total,
			Aleatoric: r.Decomposition.Aleatoric,
			Epistemic: r.Decomposition.Epistemic,
		}
	}
	b = appendAssessObject(b, model, version, r.Prediction, r.Entropy, r.VoteDist, r.Decision.String(), dec)
	return append(b, '\n')
}

// appendErrorResponse appends the ErrorResponse envelope, newline included.
func appendErrorResponse(b []byte, msg string) []byte {
	b = append(b, `{"error":`...)
	b = jsonwire.AppendString(b, msg)
	return append(b, '}', '\n')
}
