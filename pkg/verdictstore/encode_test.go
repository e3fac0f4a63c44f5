package verdictstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"
)

// encodeJSON is the oracle: what Append writes as a frame payload —
// json.Encoder.Encode of the record, minus Encode's trailing newline.
func encodeJSON(rec Record) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(rec); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// checkAgainstJSON fails unless appendRecord and encoding/json agree on
// rec: both refuse it (reported as true), or both produce the same bytes.
func checkAgainstJSON(t *testing.T, rec Record) (refused bool) {
	t.Helper()
	want, wantErr := encodeJSON(rec)
	prefix := []byte("prefix")
	got, gotErr := appendRecord(prefix, &rec)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("accept mismatch on %+v: encoding/json err=%v, appendRecord err=%v", rec, wantErr, gotErr)
	}
	if wantErr != nil {
		return true
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("bytes differ on %+v:\n  encoding/json %q\n  appendRecord  %q", rec, want, got[len(prefix):])
	}
	return false
}

// stringParts are the pieces random strings are assembled from: every
// class encoding/json treats specially, next to plain text.
var stringParts = []string{
	"edge-7", "dvfs-rf", "benign", "malware", "reject", "batch", " ", "é", "日本", "😀",
	`"`, `\`, "<", ">", "&", "/", "'",
	"\x00", "\x01", "\b", "\t", "\n", "\f", "\r", "\x1f", "\x7f",
	"\u2028", "\u2029", "\u2027", "\u202a", "\ufffd",
	"\xff", "\xc0\xaf", "\xe2\x80", "\xed\xa0\x80", "\xf4\x90\x80\x80",
}

func randString(rng *rand.Rand) string {
	switch rng.Intn(4) {
	case 0:
		return ""
	case 1:
		return stringParts[rng.Intn(len(stringParts))]
	}
	var s string
	for n := rng.Intn(6); n >= 0; n-- {
		s += stringParts[rng.Intn(len(stringParts))]
	}
	return s
}

// edgeFloats sit on and beside every branch of the float format: zero and
// its negative, the subnormal range, both sides of the 'f'/'e' switches at
// 1e-6 and 1e21, the exponent clean-up ("e-09" → "e-9"), and the values
// encoding/json refuses.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 0.1, 1.0 / 3, 0.6931471805599453,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 2.225073858507201e-308,
	math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e-6, 1), 9.999999e-7, 1e-7, 1e-9, 1.5e-9, 1e-10, 1e-100,
	math.Nextafter(1e21, 0), 1e21, math.Nextafter(1e21, math.Inf(1)), 1e20, 1e22, 1.5e300, math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	case 1:
		return math.Float64frombits(rng.Uint64()) // any bit pattern, NaN payloads and subnormals included
	case 2:
		return math.Ldexp(rng.Float64(), rng.Intn(160)-80) // around both format thresholds
	case 3:
		return float64(rng.Intn(64)) / 64
	}
	return rng.Float64() // the served shape: entropies and vote shares
}

func randFloats(rng *rand.Rand) []float64 {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return []float64{} // empty, not nil: omitempty drops it all the same
	}
	fs := make([]float64, 1+rng.Intn(17))
	finite := rng.Intn(4) != 0 // most slices encodable, or the error arm would be all a long slice ever tests
	for i := range fs {
		fs[i] = randFloat(rng)
		for finite && (math.IsNaN(fs[i]) || math.IsInf(fs[i], 0)) {
			fs[i] = rng.Float64()
		}
	}
	return fs
}

func randTime(rng *rand.Rand) time.Time {
	var t time.Time
	switch rng.Intn(8) {
	case 0:
		return time.Time{}
	case 1:
		t = time.Unix(rng.Int63n(4e9), 0) // whole second: no fraction is printed
	case 2:
		t = time.Unix(rng.Int63n(4e9), rng.Int63n(1000)*1e6) // trailing zeros are trimmed
	case 3:
		// Either side of the years RFC 3339 can hold.
		t = time.Date([]int{-1, 0, 1, 9999, 10000, 12345}[rng.Intn(6)], time.Month(1+rng.Intn(12)), 1+rng.Intn(28), rng.Intn(24), 0, 0, rng.Intn(1e9), time.UTC)
	case 4:
		t = time.Unix(rng.Int63()>>rng.Intn(40), rng.Int63n(1e9)) // far future
	default:
		t = time.Unix(rng.Int63n(4e9), rng.Int63n(1e9))
	}
	switch rng.Intn(6) {
	case 0:
		return t.UTC()
	case 1:
		return t.In(time.Local)
	case 2:
		return t.In(time.FixedZone("", (rng.Intn(50*60)-25*60)*60)) // ±hh:mm, both sides of ±24 h
	case 3:
		return t.In(time.FixedZone("odd", rng.Intn(2*100*3600)-100*3600)) // offsets with seconds, past ±24 h
	case 4:
		return t.In(time.FixedZone("zero", 0)) // a zero offset that is not UTC still prints Z
	}
	return t
}

func randRecord(rng *rand.Rand) Record {
	rec := Record{
		Seq:        rng.Uint64() >> rng.Intn(64),
		Time:       randTime(rng),
		Device:     randString(rng),
		Model:      randString(rng),
		Version:    rng.Uint64() >> rng.Intn(64),
		Source:     randString(rng),
		Prediction: rng.Intn(5) - 1,
		Decision:   randString(rng),
		Entropy:    randFloat(rng),
		Votes:      randFloats(rng),
		Features:   randFloats(rng),
	}
	if rng.Intn(8) == 0 {
		rec.Prediction = int(rng.Int63()) * (1 - 2*rng.Intn(2))
	}
	switch rng.Intn(4) {
	case 0: // omitted
	case 1:
		rec.LatencyMicros = -rng.Int63n(1000)
	default:
		rec.LatencyMicros = rng.Int63() >> rng.Intn(63)
	}
	return rec
}

// TestAppendRecordMatchesJSON pins the frame encoder to encoding/json over
// random records drawn from every class either encoder branches on.
func TestAppendRecordMatchesJSON(t *testing.T) {
	n := 60000
	if testing.Short() {
		n = 5000
	}
	rng := rand.New(rand.NewSource(21))
	refused := 0
	for i := 0; i < n; i++ {
		if checkAgainstJSON(t, randRecord(rng)) {
			refused++
		}
	}
	// Both arms must have been exercised for the comparison to mean much.
	if refused < n/20 || refused > n/2 {
		t.Fatalf("%d of %d random records refused; the generator has drifted off balance", refused, n)
	}

	// The refusals by name, one field at a time.
	ok := Record{Time: time.Unix(1, 0).UTC(), Model: "m", Decision: "benign"}
	for name, mutate := range map[string]func(*Record){
		"entropy NaN":     func(r *Record) { r.Entropy = math.NaN() },
		"entropy +Inf":    func(r *Record) { r.Entropy = math.Inf(1) },
		"vote -Inf":       func(r *Record) { r.Votes = []float64{0.5, math.Inf(-1)} },
		"feature NaN":     func(r *Record) { r.Features = []float64{1, 2, math.NaN()} },
		"year 10000":      func(r *Record) { r.Time = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) },
		"year -1":         func(r *Record) { r.Time = time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC) },
		"zone +24:00":     func(r *Record) { r.Time = r.Time.In(time.FixedZone("", 24*3600)) },
		"zone -100:00:00": func(r *Record) { r.Time = r.Time.In(time.FixedZone("", -100*3600)) },
	} {
		rec := ok
		mutate(&rec)
		if _, err := encodeJSON(rec); err == nil {
			t.Fatalf("%s: encoding/json accepts it; the case is stale", name)
		}
		if _, err := appendRecord(nil, &rec); err == nil {
			t.Fatalf("%s: appendRecord accepts what encoding/json refuses", name)
		}
	}
	checkAgainstJSON(t, ok)
}

// fuzzRecord builds a record from the fuzzer's flat arguments. The float
// slices arrive as bytes, eight per element, so every bit pattern is
// reachable; zone selects UTC, Local or a fixed offset of off seconds.
func fuzzRecord(seq uint64, sec, nsec int64, zone uint8, off int32, device, model, source, decision string,
	version uint64, prediction, lat int64, entropy float64, votes, features []byte) Record {
	t := time.Unix(sec, nsec)
	switch zone % 3 {
	case 0:
		t = t.UTC()
	case 1:
		t = t.In(time.Local)
	default:
		t = t.In(time.FixedZone("", int(off%(200*3600))))
	}
	floats := func(b []byte) []float64 {
		if b == nil {
			return nil
		}
		fs := make([]float64, len(b)/8)
		for i := range fs {
			fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		return fs
	}
	return Record{
		Seq: seq, Time: t, Device: device, Model: model, Version: version, Source: source,
		Prediction: int(prediction), Decision: decision, Entropy: entropy,
		Votes: floats(votes), LatencyMicros: lat, Features: floats(features),
	}
}

// FuzzAppendRecord lets the fuzzer look for a record appendRecord and
// encoding/json disagree on — in bytes, or in whether it can be encoded.
func FuzzAppendRecord(f *testing.F) {
	floatBytes := func(fs []float64) []byte {
		var b []byte
		for _, v := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 64; i++ {
		rec := randRecord(rng)
		_, off := rec.Time.Zone()
		f.Add(rec.Seq, rec.Time.Unix(), int64(rec.Time.Nanosecond()), uint8(rng.Intn(3)), int32(off),
			rec.Device, rec.Model, rec.Source, rec.Decision, rec.Version, int64(rec.Prediction), rec.LatencyMicros,
			rec.Entropy, floatBytes(rec.Votes), floatBytes(rec.Features))
	}
	f.Add(uint64(1), int64(253402300800), int64(0), uint8(0), int32(0), "", "", "", "", uint64(0), int64(0), int64(0), 0.0, []byte(nil), []byte{})
	f.Add(uint64(1), int64(0), int64(1), uint8(2), int32(86400), "\xff<\u2028", "\x7f\b\f", "&", `"\`, uint64(1), int64(-1), int64(-1), 1e-7, floatBytes(edgeFloats), floatBytes([]float64{1e21}))
	f.Fuzz(func(t *testing.T, seq uint64, sec, nsec int64, zone uint8, off int32, device, model, source, decision string,
		version uint64, prediction, lat int64, entropy float64, votes, features []byte) {
		checkAgainstJSON(t, fuzzRecord(seq, sec, nsec, zone, off, device, model, source, decision, version, prediction, lat, entropy, votes, features))
	})
}
