package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"trusthmd/pkg/dataset"
	"trusthmd/pkg/detector"
)

// Everything the --seed argument drives lives here: input vectors, device
// keys, request bodies and the open-loop arrival schedule. The program
// under test sees only these generated inputs; its own training seed is
// fixed in stack.go.

const (
	// poolSize is the number of distinct vectors the serving workloads
	// walk through in order. It is 16x the daemon's default result cache
	// (4096 entries), so by the time a vector comes round again the LRU has
	// long evicted it: every pooled request is a miss, a put and an
	// eviction.
	poolSize = 65536
	// hotSize is the set the open-loop workload re-sends from. It fits the
	// cache four times over, yet the unique traffic beside it keeps
	// evicting it — the cache works as reads beside writes.
	hotSize = 1024
	// devices is the number of telemetry sources requests are keyed by.
	devices = 64
	// batchRows is the row count of one /v1/assess/batch op.
	batchRows = 64
	// chunkRows is the row count of one offline-score op.
	chunkRows = 1024
)

// rows extracts a dataset's feature vectors.
func rows(ds ...*dataset.Dataset) [][]float64 {
	var out [][]float64
	for _, d := range ds {
		for i := 0; i < d.Len(); i++ {
			out = append(out, d.At(i).Features)
		}
	}
	return out
}

// jitterPool derives n distinct vectors from real samples: each is a base
// row with every feature nudged by a seeded relative and absolute
// perturbation, so vectors stay in the region the model was trained on
// while no two hash alike.
func jitterPool(rng *rand.Rand, base [][]float64, n int) [][]float64 {
	dim := len(base[0])
	flat := make([]float64, n*dim)
	out := make([][]float64, n)
	for i := range out {
		x := flat[i*dim : (i+1)*dim : (i+1)*dim]
		for j, v := range base[rng.Intn(len(base))] {
			x[j] = v*(1+1e-3*rng.NormFloat64()) + 1e-6*rng.NormFloat64()
		}
		out[i] = x
	}
	return out
}

// deviceNames are the telemetry source keys, rendered once.
var deviceNames = func() (out [devices]string) {
	for i := range out {
		out[i] = fmt.Sprintf("dev-%02d", i)
	}
	return out
}()

// deviceKey names the telemetry source input i comes from.
func deviceKey(i int) string { return deviceNames[i%devices] }

// oracle computes the reference verdict of every input with the direct
// single-sample call every serving path promises to match.
func oracle(det *detector.Detector, X [][]float64) ([]detector.Result, error) {
	out := make([]detector.Result, len(X))
	for i, x := range X {
		r, err := det.Assess(x)
		if err != nil {
			return nil, fmt.Errorf("oracle input %d: %w", i, err)
		}
		out[i] = r
	}
	return out, nil
}

// sameResult reports whether two verdicts are identical down to the bit
// patterns of entropy and votes.
func sameResult(got, want *detector.Result) bool {
	if got.Prediction != want.Prediction || got.Decision != want.Decision ||
		math.Float64bits(got.Entropy) != math.Float64bits(want.Entropy) ||
		len(got.VoteDist) != len(want.VoteDist) {
		return false
	}
	for i, v := range got.VoteDist {
		if math.Float64bits(v) != math.Float64bits(want.VoteDist[i]) {
			return false
		}
	}
	return true
}

// sameWire is sameResult for a verdict read off the wire, which must also
// name the shard and version that answered.
func sameWire(got *wireVerdict, want *detector.Result) bool {
	if string(got.model) != modelName || got.version != 1 ||
		got.pred != want.Prediction || string(got.decision) != want.Decision.String() ||
		math.Float64bits(got.entropy) != math.Float64bits(want.Entropy) ||
		got.nvotes != len(want.VoteDist) {
		return false
	}
	for i, v := range want.VoteDist {
		if math.Float64bits(got.votes[i]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// appendVec renders a vector as a JSON array whose numbers parse back to
// the same bits.
func appendVec(b []byte, x []float64) []byte {
	b = append(b, '[')
	for i, v := range x {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

// assessBody is the POST /v1/assess body of pool vector i: routed by
// device, like a telemetry source that does not know the fleet's shards.
func assessBody(i int, x []float64) []byte {
	b := append([]byte(nil), `{"device":"`...)
	b = append(b, deviceKey(i)...)
	b = append(b, `","features":`...)
	return append(appendVec(b, x), '}')
}

// batchBody is the POST /v1/assess/batch body of the k-th run of
// batchRows pool vectors, with an explicit model.
func batchBody(k int, X [][]float64) []byte {
	b := append([]byte(nil), `{"model":"`+modelName+`","device":"`...)
	b = append(b, deviceKey(k)...)
	b = append(b, `","batch":[`...)
	for i, x := range X {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendVec(b, x)
	}
	return append(b, ']', '}')
}

// arrival is one open-loop request: when it is due, relative to the start
// of the run, and which input it carries.
type arrival struct {
	due int64 // nanoseconds
	idx int32 // index into the workload's inputs
	hot bool  // re-sends one of the hot vectors
}

// poissonSchedule draws arrivals at the given mean rate for the given
// span. A hotShare of them pick a uniformly random hot vector (inputs
// [unique, unique+hot)); the rest walk the unique vectors in order,
// resuming at *next.
func poissonSchedule(rng *rand.Rand, rate float64, span int64, unique, hot int, hotShare float64, next *int) []arrival {
	out := make([]arrival, 0, int(rate*float64(span)/1e9*1.05))
	for t := rng.ExpFloat64() / rate * 1e9; int64(t) < span; t += rng.ExpFloat64() / rate * 1e9 {
		a := arrival{due: int64(t)}
		if rng.Float64() < hotShare {
			a.idx, a.hot = int32(unique+rng.Intn(hot)), true
		} else {
			a.idx = int32(*next % unique)
			*next++
		}
		out = append(out, a)
	}
	return out
}
