package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"trusthmd/internal/gen"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/serve"
)

// smokePlan is the whole benchmark at a fraction of its size: one boot,
// a 300ms window, an arrival rate the race detector keeps up with.
var smokePlan = plan{
	setUps: 1, offlineSetUps: 1, warm: 50 * time.Millisecond, measure: 300 * time.Millisecond,
	probe: 10 * time.Millisecond, openRate: 2000, pool: 8192,
	hpc: gen.Sizes{Train: 400, Test: 1100, Unknown: 100},
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 0.50}, {99, 0.50}, {100, 0.90}, {999, 0.90}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := supported(0.99, 150); got != 0.90 {
		t.Errorf("supported(0.99, 150) = %v, want 0.90", got)
	}
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.90, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestScheduleDeterminism(t *testing.T) {
	draw := func(seed int64) []arrival {
		next := 0
		return poissonSchedule(rand.New(rand.NewSource(seed)), 10000, int64(time.Second), 4096, 64, hotShare, &next)
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("two seeds gave the same schedule")
	}
	if n := float64(len(a)); math.Abs(n-10000) > 400 {
		t.Errorf("%v arrivals in 1s at 10000/s", n)
	}
	hot, nextUnique := 0, int32(0)
	for i, x := range a {
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("arrival %d is due before its predecessor", i)
		}
		switch {
		case x.hot:
			hot++
			if x.idx < 4096 || x.idx >= 4096+64 {
				t.Fatalf("hot arrival %d carries input %d", i, x.idx)
			}
		case x.idx != nextUnique%4096:
			t.Fatalf("unique arrival %d carries input %d, want %d", i, x.idx, nextUnique%4096)
		default:
			nextUnique++
		}
	}
	if share := float64(hot) / float64(len(a)); math.Abs(share-hotShare) > 0.03 {
		t.Errorf("hot share %.3f, want about %.2f", share, hotShare)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: spanOp, Op: 1, Start: 0, End: 100},
		{Name: spanHandler, Parent: spanOp, Op: 1, Start: 10, End: 90},
		{Name: spanResolve, Parent: spanHandler, Op: 1, Start: 12, End: 15},
		{Name: spanForward, Parent: spanHandler, Op: 1, Start: 20, End: 70},
		{Name: spanFwdIn, Parent: spanForward, Op: 1, Start: 30, End: 60},
		{Name: spanResolve, Parent: spanFwdIn, Op: 1, Start: 31, End: 33},
		// A second op must not lend its children to the first.
		{Name: spanOp, Op: 2, Start: 0, End: 40},
		{Name: spanHandler, Parent: spanOp, Op: 2, Start: 5, End: 25},
	}
	dur, self := layerTimes(spans)
	want := map[string][]float64{
		spanOp:      {20, 20},
		spanHandler: {80 - 3 - 50, 20},
		spanResolve: {3, 2},
		spanForward: {20},
		spanFwdIn:   {28},
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if got := dur[spanHandler]; !reflect.DeepEqual(got, []float64{80, 20}) {
		t.Errorf("handler durations %v", got)
	}
	// Op 1's self times add back up to its root span.
	if sum := 20 + 27 + 3 + 20 + 28 + 2; sum != 100 {
		t.Fatalf("the expectation itself is wrong: %d", sum)
	}
}

func TestTwinBitEqual(t *testing.T) {
	splits, err := gen.DVFSWithSizes(dataSeed, gen.Sizes{Train: 280, Test: 140, Unknown: 40})
	if err != nil {
		t.Fatal(err)
	}
	det, err := detector.New(splits.Train,
		detector.WithModel("rf"), detector.WithEnsembleSize(members), detector.WithSeed(trainSeed))
	if err != nil {
		t.Fatal(err)
	}
	tw, err := newTwin(&stack{splits: splits})
	if err != nil {
		t.Fatal(err)
	}
	X := rows(splits.Test, splits.Unknown)
	_, got, err := tw.score(X)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		want, err := det.Assess(x)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAssessment(&got[i], &want) {
			t.Fatalf("row %d: twin %+v, detector %+v", i, got[i], want)
		}
	}
}

// TestScanMatchesEncodingJSON holds the response scanner to what
// encoding/json reads from the same bytes of a live server.
func TestScanMatchesEncodingJSON(t *testing.T) {
	client := newClient(1)
	defer client.CloseIdleConnections()
	st, err := setUp(shapeNode, gen.Sizes{}, t.TempDir(), client, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	X := rows(st.splits.Unknown)[:batchRows]

	code, body, err := post(client, st.entry.url+"/v1/assess/batch", batchBody(0, X), new(bytes.Buffer), 0)
	if err != nil || code != http.StatusOK {
		t.Fatalf("batch: %d %v %s", code, err, body)
	}
	var want serve.BatchResponse
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	n, err := scanBatch(body, func(i int, v *wireVerdict) error {
		w := want.Results[i]
		if string(v.model) != w.Model || v.version != w.Version || v.pred != w.Prediction ||
			string(v.decision) != w.Decision || v.entropy != w.Entropy ||
			!reflect.DeepEqual(v.votes[:v.nvotes], w.VoteDist) {
			t.Errorf("verdict %d: scanned %+v, encoding/json %+v", i, *v, w)
		}
		return nil
	})
	if err != nil || n != len(want.Results) || n != batchRows {
		t.Fatalf("scanned %d verdicts (%v), encoding/json %d", n, err, len(want.Results))
	}

	code, body, err = post(client, st.entry.url+"/v1/assess", assessBody(3, X[3]), new(bytes.Buffer), 0)
	if err != nil || code != http.StatusOK {
		t.Fatalf("assess: %d %v %s", code, err, body)
	}
	var one serve.AssessResponse
	var v wireVerdict
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatal(err)
	}
	if err := scanAssess(body, &v); err != nil || v.entropy != one.Entropy || string(v.decision) != one.Decision {
		t.Errorf("scanned %+v (%v), encoding/json %+v", v, err, one)
	}

	for _, bad := range []string{``, `{`, `{"results":[{]}`, `{"model":"a\"b"}`, `{"entropy":}`} {
		if _, err := scanBatch([]byte(bad), func(int, *wireVerdict) error { return nil }); err == nil {
			t.Errorf("scanBatch(%q) accepted malformed input", bad)
		}
	}
}

// TestSmoke runs every workload both ways at smoke size, then holds
// BENCHMARK.json to what the runs reported.
func TestSmoke(t *testing.T) {
	def, err := readDefinition(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range def.Workloads {
		declared = append(declared, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(declared, have) {
		t.Errorf("BENCHMARK.json declares workloads %v, the benchmark has %v", declared, have)
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range def.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		perLayer[m.Name] = m.Unit
	}

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, err := runUntraced(w, 1, smokePlan, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTraced(w, 1, smokePlan, t.TempDir(), filepath.Join(t.TempDir(), "spans.json"), meta(1, 1))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				o    *outcome
				want map[string]string
			}{{plain, endToEnd}, {traced, perLayer}} {
				if !c.o.Correct || c.o.Failed != 0 || c.o.Attempted == 0 {
					var b bytes.Buffer
					c.o.print(&b)
					t.Errorf("not a clean run:\n%s", b.String())
				}
				got := map[string]string{}
				for name, m := range c.o.Metrics {
					got[name] = m.Unit
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", name, m.Value)
					}
				}
				if !reflect.DeepEqual(got, c.want) {
					t.Errorf("reported metrics differ from BENCHMARK.json:\n got  %v\n want %v", sorted(got), sorted(c.want))
				}
			}
			for name, m := range plain.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; it must never be 0", name, m.Value)
				}
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(plain.line()), &line); err != nil || len(line) != 4 {
				t.Errorf("result line %s: %v", plain.line(), err)
			}
		})
	}
}

func sorted(m map[string]string) []string {
	var out []string
	for k, v := range m {
		out = append(out, k+"["+v+"]")
	}
	sort.Strings(out)
	return out
}

func TestCompare(t *testing.T) {
	def := &definition{}
	if err := json.Unmarshal([]byte(`{"end_to_end":[
		{"name":"verdicts_per_s","unit":"1/s","better":"higher","bound":0.10},
		{"name":"latency_p50_us","unit":"us","better":"lower","bound":0.10}]}`), def); err != nil {
		t.Fatal(err)
	}
	run := func(tput, p50 float64, failed int) *report {
		return &report{Outcomes: []*outcome{{
			Workload: "batch-closed", Correct: failed == 0, Attempted: 100, Failed: failed,
			Metrics: map[string]metric{
				"verdicts_per_s": {Value: tput, Unit: "1/s"},
				"latency_p50_us": {Value: p50, Unit: "us"},
			},
		}}}
	}
	for _, c := range []struct {
		name string
		b    *report
		ok   bool
		say  string
	}{
		{"within bounds", run(95, 108, 0), true, "same"},
		{"slower", run(100, 115, 0), false, "WORSE"},
		{"less throughput", run(85, 100, 0), false, "WORSE"},
		{"faster is a difference too", run(100, 80, 0), false, "BETTER"},
		{"failed ops", run(100, 100, 1), false, "FAILED OPS"},
		{"nothing shared", &report{Outcomes: []*outcome{{Workload: "other"}}}, false, "share no"},
	} {
		var out bytes.Buffer
		if ok := compareReports(&out, def, run(100, 100, 0), c.b); ok != c.ok || !strings.Contains(out.String(), c.say) {
			t.Errorf("%s: ok=%v, want %v and %q in:\n%s", c.name, ok, c.ok, c.say, out.String())
		}
	}
}
