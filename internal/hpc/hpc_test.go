package hpc

import (
	"math"
	"math/rand"
	"testing"

	"trusthmd/internal/workload"
	"trusthmd/pkg/dataset"
)

func TestComponentsShape(t *testing.T) {
	comps := Components()
	if len(comps) != 5 {
		t.Fatalf("%d components, want 5", len(comps))
	}
	if len(EventNames) != NumEvents {
		t.Fatalf("%d event names, want %d", len(EventNames), NumEvents)
	}
	for _, c := range comps {
		if c.Name == "" {
			t.Fatal("unnamed component")
		}
		for e, lm := range c.LogMean {
			if math.IsNaN(lm) || math.IsInf(lm, 0) {
				t.Fatalf("%s: bad log mean at event %d", c.Name, e)
			}
		}
	}
}

func TestComponentProfilesDiffer(t *testing.T) {
	comps := Components()
	// Memory-bound must have more cache misses (event 5) than compute.
	var compute, memory Component
	for _, c := range comps {
		switch c.Name {
		case "compute":
			compute = c
		case "memory":
			memory = c
		}
	}
	if memory.LogMean[5] <= compute.LogMean[5] {
		t.Fatal("memory component must have higher cache-miss mean")
	}
	// Crypto retires more instructions per cycle than memory-bound.
	var crypto Component
	for _, c := range comps {
		if c.Name == "crypto" {
			crypto = c
		}
	}
	cryptoIPC := crypto.LogMean[1] - crypto.LogMean[0]
	memIPC := memory.LogMean[1] - memory.LogMean[0]
	if cryptoIPC <= memIPC {
		t.Fatal("crypto IPC must exceed memory-bound IPC")
	}
}

func TestWindowShapeAndPositivity(t *testing.T) {
	g := NewGenerator()
	rng := rand.New(rand.NewSource(1))
	for _, app := range workload.HPCApps() {
		w, err := g.Window(app, rng)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if len(w) != NumEvents {
			t.Fatalf("%s: window has %d counters", app.Name, len(w))
		}
		for e, v := range w {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: counter %d is %v", app.Name, e, v)
			}
		}
	}
}

func TestWindowRejectsBadBehaviour(t *testing.T) {
	g := NewGenerator()
	bad := workload.HPCBehavior{
		App: workload.App{Name: "x", Label: dataset.Benign},
		Mix: []float64{1}, Intensity: 1,
	}
	if _, err := g.Window(bad, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestIntensityScalesCounts(t *testing.T) {
	g := NewGenerator()
	base := workload.HPCApps()[0]
	heavy := base
	heavy.Intensity = base.Intensity * 4
	heavy.Spread = 0.01
	light := base
	light.Spread = 0.01

	rng := rand.New(rand.NewSource(2))
	var sumHeavy, sumLight float64
	for i := 0; i < 20; i++ {
		wh, err := g.Window(heavy, rng)
		if err != nil {
			t.Fatal(err)
		}
		wl, err := g.Window(light, rng)
		if err != nil {
			t.Fatal(err)
		}
		sumHeavy += wh[1]
		sumLight += wl[1]
	}
	if sumHeavy <= 3*sumLight {
		t.Fatalf("4x intensity should give ~4x instructions: %v vs %v", sumHeavy, sumLight)
	}
}

func TestClassOverlap(t *testing.T) {
	// The defining property of the HPC substrate: benign and malware
	// windows overlap. Check that per-event mean log-count gaps between the
	// classes are small relative to the within-class spread.
	g := NewGenerator()
	rng := rand.New(rand.NewSource(3))
	var logB, logM []float64
	for _, app := range workload.HPCApps() {
		if !app.Known {
			continue
		}
		for i := 0; i < 30; i++ {
			w, err := g.Window(app, rng)
			if err != nil {
				t.Fatal(err)
			}
			v := math.Log(w[1]) // instructions
			if app.Label == dataset.Benign {
				logB = append(logB, v)
			} else {
				logM = append(logM, v)
			}
		}
	}
	meanStd := func(xs []float64) (float64, float64) {
		var m float64
		for _, v := range xs {
			m += v
		}
		m /= float64(len(xs))
		var ss float64
		for _, v := range xs {
			ss += (v - m) * (v - m)
		}
		return m, math.Sqrt(ss / float64(len(xs)-1))
	}
	mb, sb := meanStd(logB)
	mm, sm := meanStd(logM)
	gap := math.Abs(mb - mm)
	pooled := (sb + sm) / 2
	if gap > pooled {
		t.Fatalf("classes too separated: gap %v vs pooled std %v", gap, pooled)
	}
}
