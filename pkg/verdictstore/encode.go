package verdictstore

import (
	"errors"
	"math"
	"strconv"
	"time"

	"trusthmd/internal/jsonwire"
)

// appendRecord appends rec's frame payload to dst: the bytes encoding/json
// emits for a Record (without Encode's trailing newline), built without
// reflection. Field order, omitempty (empty, not just nil, slices are
// omitted), HTML-escaped strings, the float format and RFC 3339 time all
// follow encoding/json, and so do its refusals — a NaN or infinite float
// and a time encoding/json cannot marshal are errors. On error dst may
// have been extended past its original length; the caller cuts it back.
func appendRecord(dst []byte, rec *Record) ([]byte, error) {
	var err error
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, rec.Seq, 10)
	dst = append(dst, `,"time":`...)
	if dst, err = appendTime(dst, rec.Time); err != nil {
		return dst, err
	}
	if rec.Device != "" {
		dst = append(dst, `,"device":`...)
		dst = jsonwire.AppendString(dst, rec.Device)
	}
	dst = append(dst, `,"model":`...)
	dst = jsonwire.AppendString(dst, rec.Model)
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendUint(dst, rec.Version, 10)
	if rec.Source != "" {
		dst = append(dst, `,"source":`...)
		dst = jsonwire.AppendString(dst, rec.Source)
	}
	dst = append(dst, `,"prediction":`...)
	dst = strconv.AppendInt(dst, int64(rec.Prediction), 10)
	dst = append(dst, `,"decision":`...)
	dst = jsonwire.AppendString(dst, rec.Decision)
	dst = append(dst, `,"entropy":`...)
	if dst, err = appendFloat(dst, rec.Entropy); err != nil {
		return dst, err
	}
	if len(rec.Votes) > 0 {
		dst = append(dst, `,"votes":`...)
		if dst, err = appendFloats(dst, rec.Votes); err != nil {
			return dst, err
		}
	}
	if rec.LatencyMicros != 0 {
		dst = append(dst, `,"latency_us":`...)
		dst = strconv.AppendInt(dst, rec.LatencyMicros, 10)
	}
	if len(rec.Features) > 0 {
		dst = append(dst, `,"features":`...)
		if dst, err = appendFloats(dst, rec.Features); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

var errUnsupportedFloat = errors.New("NaN or infinite float has no JSON form")

func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, errUnsupportedFloat
	}
	return jsonwire.AppendFloat(dst, f), nil
}

func appendFloats(dst []byte, fs []float64) ([]byte, error) {
	dst = append(dst, '[')
	for i, f := range fs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendFloat(dst, f); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// appendTime appends t the way Time.MarshalJSON does: quoted RFC 3339 with
// nanoseconds, refused when the year is not four digits wide or the zone
// offset reaches 24 hours — the timestamps RFC 3339 cannot express.
func appendTime(dst []byte, t time.Time) ([]byte, error) {
	dst = append(dst, '"')
	n0 := len(dst)
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	if dst[n0+len("9999")] != '-' {
		return dst, errors.New("time: year outside of range [0,9999]")
	}
	if dst[len(dst)-1] != 'Z' {
		c := dst[len(dst)-len("Z07:00")]
		hh := dst[len(dst)-len("07:00"):]
		if ('0' <= c && c <= '9') || 10*(hh[0]-'0')+(hh[1]-'0') >= 24 {
			return dst, errors.New("time: zone offset hour outside of range [0,23]")
		}
	}
	return append(dst, '"'), nil
}
