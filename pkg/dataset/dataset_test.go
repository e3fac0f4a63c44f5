package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"trusthmd/pkg/linalg"
)

func sample(app string, label int, feats ...float64) Sample {
	return Sample{Features: feats, Label: label, App: app}
}

func buildSmall(t *testing.T) *Dataset {
	t.Helper()
	d := New(2)
	for _, s := range []Sample{
		sample("appA", Benign, 1, 2),
		sample("appA", Benign, 1.5, 2.5),
		sample("malX", Malware, 9, 9),
		sample("malX", Malware, 9.5, 8.5),
		sample("appB", Benign, 2, 1),
		sample("malY", Malware, 8, 9),
	} {
		if err := d.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestAddValidation(t *testing.T) {
	d := New(2)
	if err := d.Add(sample("a", Benign, 1)); err == nil {
		t.Fatal("expected dim error")
	}
	if err := d.Add(Sample{Features: []float64{1, 2}, Label: 7, App: "a"}); err == nil {
		t.Fatal("expected label error")
	}
}

func TestNewPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

func TestXY(t *testing.T) {
	d := buildSmall(t)
	X := d.X()
	if X.Rows() != 6 || X.Cols() != 2 {
		t.Fatalf("X is %dx%d", X.Rows(), X.Cols())
	}
	y := d.Y()
	if y[0] != Benign || y[2] != Malware {
		t.Fatalf("labels %v", y)
	}
}

func TestAppsSortedAndUnique(t *testing.T) {
	d := buildSmall(t)
	apps := d.Apps()
	want := []string{"appA", "appB", "malX", "malY"}
	if !reflect.DeepEqual(apps, want) {
		t.Fatalf("apps %v, want %v", apps, want)
	}
}

func TestClassCounts(t *testing.T) {
	d := buildSmall(t)
	b, m := d.ClassCounts()
	if b != 3 || m != 3 {
		t.Fatalf("counts %d %d", b, m)
	}
}

func TestTakeN(t *testing.T) {
	d := buildSmall(t)
	s, err := d.TakeN(3, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("got %d", s.Len())
	}
	if _, err := d.TakeN(100, rand.New(rand.NewSource(2))); err == nil {
		t.Fatal("expected too-few error")
	}
}

func TestMerge(t *testing.T) {
	d := buildSmall(t)
	m, err := d.Merge(d)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 12 {
		t.Fatalf("merged len %d", m.Len())
	}
	if _, err := d.Merge(New(3)); err == nil {
		t.Fatal("expected dim error")
	}
}

func TestShuffleDeterministic(t *testing.T) {
	a := buildSmall(t)
	b := buildSmall(t)
	a.Shuffle(rand.New(rand.NewSource(42)))
	b.Shuffle(rand.New(rand.NewSource(42)))
	for i := 0; i < a.Len(); i++ {
		if a.At(i).App != b.At(i).App {
			t.Fatal("shuffle not deterministic under fixed seed")
		}
	}
}

func TestScaler(t *testing.T) {
	X := linalg.MustFromRows([][]float64{{1, 5}, {3, 5}, {5, 5}})
	s, err := FitScaler(X)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dim() != 2 {
		t.Fatalf("dim %d", s.Dim())
	}
	out, err := s.Transform(X)
	if err != nil {
		t.Fatal(err)
	}
	mu := out.ColMeans()
	if math.Abs(mu[0]) > 1e-12 {
		t.Fatalf("not centered: %v", mu)
	}
	sd := out.ColStds()
	if math.Abs(sd[0]-1) > 1e-12 {
		t.Fatalf("not unit variance: %v", sd)
	}
	// Constant column untouched by zero-variance guard.
	if out.At(0, 1) != 0 {
		t.Fatalf("constant column should map to 0, got %v", out.At(0, 1))
	}
	v, err := s.TransformVec([]float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v[0]) > 1e-12 {
		t.Fatalf("vec transform %v", v)
	}
}

func TestScalerErrors(t *testing.T) {
	if _, err := FitScaler(linalg.New(0, 2)); err == nil {
		t.Fatal("expected empty error")
	}
	X := linalg.MustFromRows([][]float64{{1, 2}, {3, 4}})
	s, _ := FitScaler(X)
	if _, err := s.Transform(linalg.New(1, 3)); err == nil {
		t.Fatal("expected dim error")
	}
	if _, err := s.TransformVec([]float64{1}); err == nil {
		t.Fatal("expected dim error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := buildSmall(t)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() || back.Dim() != d.Dim() {
		t.Fatalf("round trip %d/%d dim %d/%d", back.Len(), d.Len(), back.Dim(), d.Dim())
	}
	for i := 0; i < d.Len(); i++ {
		a, b := d.At(i), back.At(i)
		if a.App != b.App || a.Label != b.Label || !reflect.DeepEqual(a.Features, b.Features) {
			t.Fatalf("sample %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"short":      "a,b\n",
		"bad header": "f0,x,y\n1,0,a\n",
		"bad float":  "f0,label,app\nxyz,0,a\n",
		"bad label":  "f0,label,app\n1.0,zz,a\n",
		"bad class":  "f0,label,app\n1.0,9,a\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestSubsetSharesFeatures(t *testing.T) {
	d := buildSmall(t)
	s := d.Subset([]int{0, 2})
	if s.Len() != 2 || s.At(1).App != "malX" {
		t.Fatalf("subset wrong: %+v", s.At(1))
	}
}
