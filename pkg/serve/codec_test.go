package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"trusthmd/internal/jsonwire"
	"trusthmd/pkg/detector"
)

// encodingJSONAssess is the ground-truth decoder the pooled one must match:
// the exact pipeline decodeJSONLimit runs — strict decoding plus the
// dec.More() trailing-data guard.
func encodingJSONAssess(data []byte) (AssessRequest, error) {
	var req AssessRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if dec.More() {
		return req, errTrailingData
	}
	return req, nil
}

func encodingJSONBatch(data []byte) (BatchRequest, error) {
	var req BatchRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if dec.More() {
		return req, errTrailingData
	}
	return req, nil
}

// sameFloats is reflect.DeepEqual for []float64 with the elements compared
// by bit pattern: DeepEqual compares floats with ==, under which -0 equals
// +0, so a decoder that lost the sign of zero would pass it.
func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameAssessRequest(a, b AssessRequest) bool {
	return a.Model == b.Model && a.Device == b.Device && sameFloats(a.Features, b.Features)
}

func sameBatchRequest(a, b BatchRequest) bool {
	if a.Model != b.Model || a.Device != b.Device ||
		(a.Batch == nil) != (b.Batch == nil) || len(a.Batch) != len(b.Batch) {
		return false
	}
	for i := range a.Batch {
		if !sameFloats(a.Batch[i], b.Batch[i]) {
			return false
		}
	}
	return true
}

// assessParityCases are the corners where a naive decoder and an exact one
// part: the parity tests hold decodeAssessRequest to encoding/json on them
// and FuzzPeekRoute starts from them.
var assessParityCases = []string{
	// Plain shapes.
	`{"device":"d0","features":[1,2,3]}`,
	`{"model":"m","device":"d","features":[0.5,-0.25]}`,
	`{}`,
	`null`,
	`  {"features":[1]}  `,
	"\t\r\n {\"features\":[1]} \n",
	// Empty and null slices: "[]" decodes non-nil, null decodes nil.
	`{"features":[]}`,
	`{"features":null}`,
	// Null semantics: null string field is a no-op, null array element
	// leaves its slot at zero.
	`{"device":null,"features":[1,null,3]}`,
	`{"features":[null]}`,
	// Duplicate keys: last one wins.
	`{"features":[1,2],"features":[9]}`,
	`{"device":"a","device":"b","features":[1]}`,
	`{"features":[1],"features":null}`,
	// Case-folded and escaped keys.
	`{"FEATURES":[4,5]}`,
	`{"Device":"x","features":[1]}`,
	`{"\u0066eatures":[7]}`,
	`{"deVICE":"y","features":[2]}`,
	// Unknown fields rejected.
	`{"extra":1}`,
	`{"features":[1],"extra":true}`,
	// Type mismatches rejected.
	`{"features":"nope"}`,
	`{"features":[true]}`,
	`{"features":[[1]]}`,
	`{"device":5}`,
	`{"features":{"a":1}}`,
	// Number grammar.
	`{"features":[01]}`,
	`{"features":[1.]}`,
	`{"features":[.5]}`,
	`{"features":[+1]}`,
	`{"features":[-]}`,
	`{"features":[1e]}`,
	`{"features":[1e+]}`,
	`{"features":[0.0e-2]}`,
	`{"features":[1E6]}`,
	`{"features":[-0]}`,
	`{"features":[-0.0]}`,
	`{"features":[-0e5]}`,
	`{"features":[-0,0]}`,
	`{"features":[0.5,2.25,1e23,8.41e21,9007199254740993]}`,
	`{"features":[1e309]}`,
	`{"features":[-1e309]}`,
	`{"features":[1e-999]}`,
	`{"features":[123456789012345678901234567890]}`,
	`{"features":[NaN]}`,
	`{"features":[Infinity]}`,
	// String corners: escapes, surrogates, raw control chars, UTF-8.
	`{"device":"a\"b\\c\/d\b\f\n\r\t"}`,
	`{"device":"\u0041\u00e9\u4e2d"}`,
	`{"device":"\ud83d\ude00"}`,
	`{"device":"\ud83d"}`,
	`{"device":"\ude00\ud83d"}`,
	`{"device":"\ud83dx"}`,
	`{"device":"\uZZZZ"}`,
	`{"device":"\u12"}`,
	`{"device":"\x41"}`,
	"{\"device\":\"a\x01b\"}",
	"{\"device\":\"a\x7fb\"}",
	"{\"device\":\"a\xffb\"}",
	"{\"device\":\"\xc3\x28\"}",
	`{"device":"中文✓"}`,
	// Structural errors.
	``,
	`   `,
	`{`,
	`{"features":[1,]}`,
	`{"features":[1}`,
	`{"features" [1]}`,
	`{"features":}`,
	`{,}`,
	`{"a"}`,
	`true`,
	`42`,
	`"str"`,
	`[1,2]`,
	`nul`,
	`nullx`,
	// Trailing data: More() accepts '}'/']', rejects anything else.
	`{"features":[1]} garbage`,
	`{"features":[1]}{"features":[2]}`,
	`{"features":[1]} }`,
	`{"features":[1]} ]`,
	`{"features":[1]},`,
	`null null`,
	`null }`,
}

// TestDecodeAssessRequestParity pins accept/reject and value parity of the
// pooled decoder against encoding/json over the corners that differ
// between naive and exact implementations.
func TestDecodeAssessRequestParity(t *testing.T) {
	sc := getCodecScratch()
	defer putCodecScratch(sc)
	for _, tc := range assessParityCases {
		want, wantErr := encodingJSONAssess([]byte(tc))
		var got AssessRequest
		gotErr := decodeAssessRequest([]byte(tc), sc, &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("%q: accept mismatch: encoding/json err=%v, pooled err=%v", tc, wantErr, gotErr)
			continue
		}
		if wantErr == nil && !sameAssessRequest(want, got) {
			t.Errorf("%q: value mismatch:\n  encoding/json %#v\n  pooled        %#v", tc, want, got)
		}
	}
}

// batchParityCases are the same for decodeBatchRequest.
var batchParityCases = []string{
	`{"batch":[[1,2],[3,4]]}`,
	`{"model":"m","device":"d","batch":[[0.5]]}`,
	`{"batch":[]}`,
	`{"batch":null}`,
	`{"batch":[null,[1]]}`,
	`{"batch":[[],[null,2]]}`,
	`{"batch":[[1,2],[3,4]],"batch":[[9]]}`,
	`{"BATCH":[[1]]}`,
	`{"batch":[[1],"x"]}`,
	`{"batch":[1,2]}`,
	`{"batch":[[1e999]]}`,
	`{"batch":[[01]]}`,
	`{"batch":[[-0,0],[-0.0],[-0e5]]}`,
	`{"extra":[[1]]}`,
	`null`,
	`{}`,
	`{"batch":[[1]]} trailing`,
}

// TestDecodeBatchRequestParity pins the batch decoder the same way,
// including row-backing reuse across consecutive decodes.
func TestDecodeBatchRequestParity(t *testing.T) {
	sc := getCodecScratch()
	defer putCodecScratch(sc)
	for _, tc := range batchParityCases {
		want, wantErr := encodingJSONBatch([]byte(tc))
		var got BatchRequest
		gotErr := decodeBatchRequest([]byte(tc), sc, &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("%q: accept mismatch: encoding/json err=%v, pooled err=%v", tc, wantErr, gotErr)
			continue
		}
		if wantErr == nil && !sameBatchRequest(want, got) {
			t.Errorf("%q: value mismatch:\n  encoding/json %#v\n  pooled        %#v", tc, want, got)
		}
	}
	// Shrinking batches must not leak rows from a previous decode.
	var big, small BatchRequest
	if err := decodeBatchRequest([]byte(`{"batch":[[1,2,3],[4,5,6],[7,8,9]]}`), sc, &big); err != nil {
		t.Fatal(err)
	}
	if err := decodeBatchRequest([]byte(`{"batch":[[10]]}`), sc, &small); err != nil {
		t.Fatal(err)
	}
	if want := [][]float64{{10}}; !reflect.DeepEqual(small.Batch, want) {
		t.Fatalf("after shrink: got %v, want %v", small.Batch, want)
	}
}

// escapeKey spells the first letter of body's first "key" as a \u escape:
// the same key to the strict decoder, one the peek declines.
func escapeKey(body, key string) string {
	return strings.Replace(body, `"`+key+`"`, fmt.Sprintf("\"\\u%04x%s\"", key[0], key[1:]), 1)
}

// TestPeekRoute pins what the routing-key peek reads and what it leaves to
// the strict decoder.
func TestPeekRoute(t *testing.T) {
	sc := getCodecScratch()
	defer putCodecScratch(sc)
	for _, tc := range []struct {
		body, field   string
		model, device string
		ok            bool
	}{
		{`{"model":"m","device":"d","batch":[[1,2],[3]]}`, "batch", "m", "d", true},
		{` {"batch":[null,[], [ 1 , null ] ] , "DEVICE":"d"} `, "batch", "", "d", true},
		{`{"model":"a","model":null,"features":[1]}`, "features", "a", "", true},
		{`{"device":"hé\n","features":null}`, "features", "", "hé\n", true},
		{`{"model":"m","batch":[[1]]} }`, "batch", "m", "", true},
		{`{}`, "batch", "", "", true},
		// Numbers and rows are not read: the owner's decoder refuses these.
		{`{"device":"d","batch":[[1e999],[1,2,]]}`, "batch", "", "d", true},
		{`{"device":"d","features":[01,x]}`, "features", "", "d", true},
		// Declined: the handler decodes strictly first.
		{`null`, "batch", "", "", false},
		{escapeKey(`{"device":"d","features":[1]}`, "device"), "features", "", "", false},
		{escapeKey(`{"device":"d","features":[1]}`, "features"), "features", "", "", false},
		{`{"device":"d","extra":1}`, "features", "", "", false},
		{`{"device":"d","batch":[[1]]}`, "features", "", "", false},
		{`{"device":5}`, "features", "", "", false},
		{`{"features":"x"}`, "features", "", "", false},
		{`{"batch":[1]}`, "batch", "", "", false},
		{`{"device":"d"} x`, "features", "", "", false},
		{`{"device":"d","features":[1]`, "features", "", "", false},
		{`{"device":"d","features":[1`, "features", "", "", false},
	} {
		model, device, ok := peekRoute([]byte(tc.body), sc, tc.field)
		if ok != tc.ok || model != tc.model || device != tc.device {
			t.Errorf("%s as %q: got (%q, %q, %v), want (%q, %q, %v)",
				tc.body, tc.field, model, device, ok, tc.model, tc.device, tc.ok)
		}
	}
	if model, device, ok := peekRoute(benchBatchBody(t), sc, "batch"); !ok || model != "dvfs-rf" || device != "dev-00" {
		t.Errorf("benchmark body: got (%q, %q, %v)", model, device, ok)
	}
}

// FuzzPeekRoute holds the peek to the strict decoders on arbitrary bytes:
// wherever decodeAssessRequest (decodeBatchRequest) accepts the input,
// peekRoute on "features" ("batch") either declines or reads the decoded
// Model and Device.
func FuzzPeekRoute(f *testing.F) {
	for _, s := range append(append([]string{}, assessParityCases...), batchParityCases...) {
		f.Add([]byte(s))
	}
	for _, s := range []string{
		escapeKey(`{"model":"m","batch":[[1]]}`, "model"),
		`{"MODEL":"m","Device":"d","batch":[[1]]}`,
		`{"model":"a","model":null,"device":"d","device":null,"batch":[]}`,
		`{"batch":[null,[],[1,null]],"device":"d"}`,
		`{"device":"d","features":[1],"features":null}`,
		`{"model":"m","extra":1,"batch":[[1]]}`,
		`{"model":"m","batch":[[1]]} }`,
		`{"model":"m","batch":[[1]]} x`,
	} {
		f.Add([]byte(s))
	}
	f.Add(benchBatchBody(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := getCodecScratch()
		defer putCodecScratch(sc)
		var a AssessRequest
		if decodeAssessRequest(data, sc, &a) == nil {
			if model, device, ok := peekRoute(data, sc, "features"); ok && (model != a.Model || device != a.Device) {
				t.Fatalf("features peek on %q read (%q, %q), decoder (%q, %q)", data, model, device, a.Model, a.Device)
			}
		}
		var b BatchRequest
		if decodeBatchRequest(data, sc, &b) == nil {
			if model, device, ok := peekRoute(data, sc, "batch"); ok && (model != b.Model || device != b.Device) {
				t.Fatalf("batch peek on %q read (%q, %q), decoder (%q, %q)", data, model, device, b.Model, b.Device)
			}
		}
	})
}

// goldenStrings covers every string-escaping branch of the encoder.
var goldenStrings = []string{
	"",
	"plain",
	"dvfs-rf",
	`quote " backslash \ slash /`,
	"html <tag> & entity",
	"newline\ntab\tcr\r",
	"bell\x07 backspace\x08 formfeed\x0c esc\x1b",
	"nul\x00",
	"high\x7f",
	"unicode 中文 émoji 😀",
	"\u2028 line sep \u2029 para sep",
	"invalid \xff\xfe utf8",
	"trunc \xc3",
	"\ufffd real replacement",
}

// goldenFloats covers the f/e format boundary, exponent cleanup, shortest
// round-trip and signed zero.
var goldenFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3.0,
	1e-7, -1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, -1e21, 1.5e21,
	math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	1e-300, 2.2250738585072014e-308, 123456.789, 0.1, 3.141592653589793,
}

// TestEncodeResponsesGolden pins byte identity between the pooled encoder
// and json.Encoder for every response shape the hot path emits.
func TestEncodeResponsesGolden(t *testing.T) {
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	t.Run("assess", func(t *testing.T) {
		resps := []AssessResponse{
			{Model: "dvfs-rf", Version: 3, Prediction: 1, Entropy: 0.25, VoteDist: []float64{0.75, 0.25}, Decision: "accept"},
			{Model: "m", Version: 0, Prediction: -1, Entropy: 0, VoteDist: nil, Decision: "reject"},
			{Model: "m", Version: 18446744073709551615, Prediction: 0, Entropy: 1e-9, VoteDist: []float64{}, Decision: "accept",
				Decomposition: &Decomposition{Total: 0.5, Aleatoric: 1e21, Epistemic: -0}},
		}
		for _, s := range goldenStrings {
			resps = append(resps, AssessResponse{Model: s, Decision: s, VoteDist: []float64{0.5}})
		}
		for _, f := range goldenFloats {
			ep := f * 2
			if math.IsInf(ep, 0) {
				ep = f
			}
			resps = append(resps, AssessResponse{Model: "m", Entropy: f, VoteDist: []float64{f, -f}, Decision: "accept",
				Decomposition: &Decomposition{Total: f, Aleatoric: f / 3, Epistemic: ep}})
		}
		for _, r := range resps {
			want := encode(r)
			got := appendAssessResponse(nil, &r)
			if !bytes.Equal(want, got) {
				t.Errorf("assess response mismatch:\n  encoding/json %q\n  pooled        %q", want, got)
			}
		}
	})

	t.Run("batch", func(t *testing.T) {
		results := []detector.Result{
			{Prediction: 1, Entropy: 0.25, VoteDist: []float64{0.75, 0.25}, Decision: detector.Benign},
			{Prediction: 0, Entropy: 1e-8, VoteDist: nil, Decision: detector.Reject,
				Decomposition: &detector.Decomposition{Total: 1, Aleatoric: 0.5, Epistemic: 0.5}},
			{Prediction: 2, Entropy: math.MaxFloat64, VoteDist: []float64{}, Decision: detector.Benign},
		}
		want := encode(func() BatchResponse {
			resp := BatchResponse{Model: "dvfs <&> rf", Version: 7, Results: make([]AssessResponse, 0, len(results))}
			for _, r := range results {
				resp.Results = append(resp.Results, toResponse(resp.Model, resp.Version, r))
			}
			return resp
		}())
		got := appendBatchResponseResults(nil, "dvfs <&> rf", 7, results)
		if !bytes.Equal(want, got) {
			t.Errorf("batch response mismatch:\n  encoding/json %q\n  pooled        %q", want, got)
		}
		// Empty results array.
		want = encode(BatchResponse{Model: "m", Version: 1, Results: []AssessResponse{}})
		got = appendBatchResponseResults(nil, "m", 1, nil)
		// json encodes the empty non-nil slice as [] — the pooled encoder
		// always emits [], matching because the handler never sends nil.
		if !bytes.Equal(want, got) {
			t.Errorf("empty batch mismatch:\n  encoding/json %q\n  pooled        %q", want, got)
		}
	})

	t.Run("error", func(t *testing.T) {
		msgs := append([]string{}, goldenStrings...)
		msgs = append(msgs, "queue full", "batch of 5000 exceeds limit 4096", `feature 3 is not finite`)
		for _, m := range msgs {
			want := encode(ErrorResponse{Error: m})
			got := appendErrorResponse(nil, m)
			if !bytes.Equal(want, got) {
				t.Errorf("error response mismatch for %q:\n  encoding/json %q\n  pooled        %q", m, want, got)
			}
		}
	})
}

// FuzzAssessRequestDecode cross-checks the pooled decoder against
// encoding/json on arbitrary bytes: both must agree on accept/reject, and
// on every accepted input the decoded values must be equal down to the
// bit pattern of every float (sameFloats). The same input is also run
// through the batch decoder against its own ground truth, so one fuzzer
// covers both hot-path decoders.
func FuzzAssessRequestDecode(f *testing.F) {
	seeds := []string{
		`{"device":"d0","features":[1,2,3]}`,
		`{"model":"m","features":[0.1,-2e5,3.25e-9]}`,
		`{"features":[null,1e21]}`,
		`{"FEATURES":[]}`,
		`{"\u0064evice":"x"}`,
		`{"device":"\ud83d\ude00\ud800"}`,
		`{"batch":[[1,2],[3,4]]}`,
		`{"batch":[null,[]]}`,
		`null`,
		`{"features":[1]} }`,
		`{"features":[01]}`,
		`{"features":[1e999]}`,
		"{\"device\":\"\xff\"}",
		`{"features":[-0]}`,
		`{"features":[-0.0]}`,
		`{"features":[-0e5]}`,
		`{"features":[-0,0]}`,
		`{"batch":[[-0,0],[-0.0e-3]]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := getCodecScratch()
		defer putCodecScratch(sc)

		want, wantErr := encodingJSONAssess(data)
		var got AssessRequest
		gotErr := decodeAssessRequest(data, sc, &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("assess accept mismatch on %q: encoding/json err=%v, pooled err=%v", data, wantErr, gotErr)
		}
		if wantErr == nil && !sameAssessRequest(want, got) {
			t.Fatalf("assess value mismatch on %q:\n  encoding/json %#v\n  pooled        %#v", data, want, got)
		}

		wantB, wantBErr := encodingJSONBatch(data)
		var gotB BatchRequest
		gotBErr := decodeBatchRequest(data, sc, &gotB)
		if (wantBErr == nil) != (gotBErr == nil) {
			t.Fatalf("batch accept mismatch on %q: encoding/json err=%v, pooled err=%v", data, wantBErr, gotBErr)
		}
		if wantBErr == nil && !sameBatchRequest(wantB, gotB) {
			t.Fatalf("batch value mismatch on %q:\n  encoding/json %#v\n  pooled        %#v", data, wantB, gotB)
		}

		// Round-trip any accepted model string through the pooled encoder:
		// encoding must stay byte-identical to json on fuzz-discovered
		// strings, not just the golden set.
		if wantErr == nil && got.Model != "" {
			wantEnc, err := json.Marshal(got.Model)
			if err != nil {
				t.Fatal(err)
			}
			if gotEnc := jsonwire.AppendString(nil, got.Model); !bytes.Equal(wantEnc, gotEnc) {
				t.Fatalf("string encode mismatch for %q: encoding/json %q, pooled %q", got.Model, wantEnc, gotEnc)
			}
		}
	})
}
