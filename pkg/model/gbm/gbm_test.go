package gbm

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"

	"trusthmd/pkg/dataset"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/linalg"
)

// blobs builds a two-cluster binary problem: class 0 near the origin,
// class 1 shifted by sep on every axis.
func blobs(n, d int, sep float64, seed int64) (*linalg.Matrix, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := linalg.New(n, d)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		y[i] = i % 2
		base := 0.0
		if y[i] == 1 {
			base = sep
		}
		row := X.Row(i)
		for j := range row {
			row[j] = base + rng.NormFloat64()
		}
	}
	return X, y
}

func TestFitPredict(t *testing.T) {
	X, y := blobs(240, 5, 2.5, 1)
	g := New(Config{Seed: 7})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if g.Rounds() == 0 {
		t.Fatal("no stumps fitted")
	}
	correct := 0
	Xt, yt := blobs(120, 5, 2.5, 2)
	for i := 0; i < Xt.Rows(); i++ {
		if g.Predict(Xt.Row(i)) == yt[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(Xt.Rows()); acc < 0.95 {
		t.Fatalf("holdout accuracy %v", acc)
	}
}

func TestPredictProba(t *testing.T) {
	X, y := blobs(200, 4, 2.5, 3)
	g := New(Config{Seed: 1})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < X.Rows(); i++ {
		p := g.PredictProba(X.Row(i))
		if len(p) != 2 {
			t.Fatalf("posterior has %d classes", len(p))
		}
		if math.Abs(p[0]+p[1]-1) > 1e-12 || p[0] < 0 || p[1] < 0 {
			t.Fatalf("invalid posterior %v", p)
		}
		if pred := g.Predict(X.Row(i)); (p[1] > 0.5) != (pred == 1) {
			t.Fatalf("posterior %v disagrees with prediction %d", p, pred)
		}
	}
}

func TestFitErrors(t *testing.T) {
	g := New(Config{})
	if err := g.Fit(linalg.New(0, 0), nil); err == nil {
		t.Fatal("expected empty-set error")
	}
	X, y := blobs(10, 2, 2, 1)
	if err := g.Fit(X, y[:5]); err == nil {
		t.Fatal("expected row/label mismatch error")
	}
	y[3] = 2
	if err := g.Fit(X, y); err == nil {
		t.Fatal("expected binary-labels error")
	}
}

func TestNotFittedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unfitted Predict")
		}
	}()
	New(Config{}).Predict([]float64{1, 2})
}

func TestGobRoundTrip(t *testing.T) {
	X, y := blobs(160, 4, 2.5, 5)
	g := New(Config{Seed: 9, Rounds: 20})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		t.Fatal(err)
	}
	var back GBM
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back.Rounds() != g.Rounds() {
		t.Fatalf("rounds %d != %d after round trip", back.Rounds(), g.Rounds())
	}
	for i := 0; i < X.Rows(); i++ {
		x := X.Row(i)
		if g.Predict(x) != back.Predict(x) {
			t.Fatalf("prediction changed after round trip at sample %d", i)
		}
		pa, pb := g.PredictProba(x), back.PredictProba(x)
		if pa[1] != pb[1] {
			t.Fatalf("posterior changed after round trip at sample %d", i)
		}
	}
}

// TestRegisteredFamily drives the family exactly as an out-of-tree module
// would: through the public registry, training pipeline and Save/Load —
// with only exported imports in play.
func TestRegisteredFamily(t *testing.T) {
	found := false
	for _, m := range detector.Models() {
		if m == "gbm" {
			found = true
		}
	}
	if !found {
		t.Fatalf("gbm missing from registry: %v", detector.Models())
	}

	rng := rand.New(rand.NewSource(11))
	train := dataset.New(6)
	for i := 0; i < 300; i++ {
		label := i % 2
		base := 0.0
		if label == 1 {
			base = 2.5
		}
		f := make([]float64, 6)
		for j := range f {
			f[j] = base + rng.NormFloat64()
		}
		if err := train.Add(dataset.Sample{Features: f, Label: label, App: fmt.Sprintf("app%d", i%4)}); err != nil {
			t.Fatal(err)
		}
	}

	d, err := detector.New(train, detector.WithModel("gbm"),
		detector.WithEnsembleSize(9), detector.WithSeed(4), detector.WithDecomposition(true))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := detector.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Model() != "gbm" || back.Members() != d.Members() {
		t.Fatalf("loaded %s/%d, want gbm/%d", back.Model(), back.Members(), d.Members())
	}

	correct, aleatoric := 0, false
	for i := 0; i < train.Len(); i++ {
		smp := train.At(i)
		r1, err := d.Assess(smp.Features)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := back.Assess(smp.Features)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Prediction != r2.Prediction || r1.Entropy != r2.Entropy || r1.Decision != r2.Decision {
			t.Fatalf("sample %d: loaded detector diverged: %+v vs %+v", i, r1, r2)
		}
		if r1.Prediction == smp.Label {
			correct++
		}
		// Soft sigmoid members must register aleatoric mass somewhere.
		if r1.Decomposition != nil && r1.Decomposition.Aleatoric > 1e-6 {
			aleatoric = true
		}
	}
	if acc := float64(correct) / float64(train.Len()); acc < 0.95 {
		t.Fatalf("training accuracy %v", acc)
	}
	if !aleatoric {
		t.Fatal("no sample showed aleatoric uncertainty despite soft members")
	}
}

// TestPredictBatchMatchesPredict pins the model.BatchClassifier contract:
// batched labels are exactly the per-row Predict labels, with no heap
// allocations (the stump slab is already flat).
func TestPredictBatchMatchesPredict(t *testing.T) {
	X, y := blobs(180, 4, 1.2, 3)
	g := New(Config{Seed: 5})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	out := make([]int, X.Rows())
	g.PredictBatch(X, out)
	for i := 0; i < X.Rows(); i++ {
		if want := g.Predict(X.Row(i)); out[i] != want {
			t.Fatalf("row %d: PredictBatch %d, Predict %d", i, out[i], want)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { g.PredictBatch(X, out) }); allocs > 0 {
		t.Fatalf("PredictBatch allocates %.1f times per batch, want 0", allocs)
	}
	var unfitted GBM
	defer func() {
		if recover() == nil {
			t.Fatal("unfitted PredictBatch should panic")
		}
	}()
	unfitted.PredictBatch(X, out)
}

// saveDigest trains a small gbm detector and returns the SHA-256 of what
// Save writes.
func saveDigest(t *testing.T) string {
	t.Helper()
	X, y := blobs(60, 3, 2.5, 5)
	train := dataset.New(3)
	for i := 0; i < X.Rows(); i++ {
		if err := train.Add(dataset.Sample{Features: X.Row(i), Label: y[i]}); err != nil {
			t.Fatal(err)
		}
	}
	d, err := detector.New(train, detector.WithModel("gbm"), detector.WithEnsembleSize(3), detector.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestSaveFresh prints saveDigest as "save HEX". Run alone with
// `-test.run '^TestSaveFresh$'`, it gives the bytes a process that saves
// nothing else writes; TestSaveBytesIgnoreGobHistory re-executes the test
// binary that way.
func TestSaveFresh(t *testing.T) {
	fmt.Printf("save %s\n", saveDigest(t))
}

// TestSaveBytesIgnoreGobHistory holds a gbm Save to the bytes a fresh
// process writes after this process has gob-encoded an unrelated type and
// a GBM on its own. The package init pins gob's numbering of gbm's types;
// without it, these encodes would number them first and move the bytes.
func TestSaveBytesIgnoreGobHistory(t *testing.T) {
	out, err := exec.Command(os.Args[0], "-test.run", "^TestSaveFresh$").CombinedOutput()
	if err != nil {
		t.Fatalf("fresh process: %v\n%s", err, out)
	}
	var fresh string
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "save" {
			fresh = f[1]
		}
	}
	if fresh == "" {
		t.Fatalf("fresh process printed no digest:\n%s", out)
	}

	X, y := blobs(40, 2, 2.5, 6)
	g := New(Config{Seed: 1})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	enc := gob.NewEncoder(new(bytes.Buffer))
	if err := enc.Encode(struct{ Unrelated []string }{[]string{"x"}}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(g); err != nil {
		t.Fatal(err)
	}
	if got := saveDigest(t); got != fresh {
		t.Fatalf("gbm saves to %s here, %s in a fresh process", got, fresh)
	}
}
