package dvfs

import (
	"math/rand"
	"testing"

	"trusthmd/internal/workload"
	"trusthmd/pkg/dataset"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := map[string]func(c Config) Config{
		"levels":       func(c Config) Config { c.Levels = 1; return c },
		"steps":        func(c Config) Config { c.Steps = 1; return c },
		"up zero":      func(c Config) Config { c.UpThreshold = 0; return c },
		"up high":      func(c Config) Config { c.UpThreshold = 1.2; return c },
		"down neg":     func(c Config) Config { c.DownThreshold = -0.1; return c },
		"down above":   func(c Config) Config { c.DownThreshold = 0.9; return c },
		"misread neg":  func(c Config) Config { c.MisreadProb = -0.1; return c },
		"misread high": func(c Config) Config { c.MisreadProb = 0.6; return c },
	}
	for name, mutate := range cases {
		if err := mutate(DefaultConfig()).Validate(); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
	if _, err := NewSimulator(Config{}); err == nil {
		t.Fatal("expected invalid config error")
	}
}

func mustSim(t *testing.T) *Simulator {
	t.Helper()
	s, err := NewSimulator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTraceShapeAndRange(t *testing.T) {
	s := mustSim(t)
	rng := rand.New(rand.NewSource(1))
	for _, app := range workload.DVFSApps() {
		tr, err := s.Trace(app, rng)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if len(tr) != s.Config().Steps {
			t.Fatalf("%s: trace length %d", app.Name, len(tr))
		}
		for i, v := range tr {
			if v < 0 || v >= s.Config().Levels {
				t.Fatalf("%s: state %d at %d out of range", app.Name, v, i)
			}
		}
	}
}

func TestTraceRejectsBadBehaviour(t *testing.T) {
	s := mustSim(t)
	bad := workload.DVFSBehavior{App: workload.App{Name: "x", Label: dataset.Benign}, BaseLoad: 2}
	if _, err := s.Trace(bad, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected behaviour validation error")
	}
}

func TestLoadOrdering(t *testing.T) {
	// A heavy workload must occupy higher DVFS states on average than a
	// light one — the fundamental signal the HMD relies on.
	s := mustSim(t)
	rng := rand.New(rand.NewSource(2))
	mean := func(name string) float64 {
		var app workload.DVFSBehavior
		for _, a := range workload.DVFSApps() {
			if a.Name == name {
				app = a
			}
		}
		var sum, n float64
		for k := 0; k < 10; k++ {
			tr, err := s.Trace(app, rng)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range tr {
				sum += float64(v)
				n++
			}
		}
		return sum / n
	}
	idle := mean("idle_launcher")
	miner := mean("miner_a")
	if miner <= idle+2 {
		t.Fatalf("miner mean state %v must clearly exceed idle %v", miner, idle)
	}
}

func TestBeaconPeriodicity(t *testing.T) {
	// The spy_beacon profile is periodic: its trace must alternate between
	// low and raised states rather than staying flat.
	s := mustSim(t)
	rng := rand.New(rand.NewSource(3))
	var app workload.DVFSBehavior
	for _, a := range workload.DVFSApps() {
		if a.Name == "spy_beacon" {
			app = a
		}
	}
	tr, err := s.Trace(app, rng)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := tr[0], tr[0]
	for _, v := range tr {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo < 2 {
		t.Fatalf("beacon trace spans [%d,%d], want a visible swing", lo, hi)
	}
}

func TestTraceDeterministicUnderSeed(t *testing.T) {
	s := mustSim(t)
	app := workload.DVFSApps()[0]
	a, err := s.Trace(app, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Trace(app, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same trace")
		}
	}
}

func TestLevelForAndCapacity(t *testing.T) {
	if levelFor(0, 7) != 0 {
		t.Fatal("levelFor(0)")
	}
	if levelFor(1, 7) != 7 {
		t.Fatal("levelFor(1)")
	}
	if levelFor(0.5, 7) != 3 {
		t.Fatalf("levelFor(0.5)=%d", levelFor(0.5, 7))
	}
	if capacity(7, 7) != 1 {
		t.Fatal("top capacity must be 1")
	}
	if capacity(0, 7) != 0.125 {
		t.Fatalf("bottom capacity %v", capacity(0, 7))
	}
}

func TestPolicyString(t *testing.T) {
	if Ondemand.String() != "ondemand" || Conservative.String() != "conservative" || Policy(9).String() == "" {
		t.Fatal("policy strings")
	}
}

func TestConservativeGovernorRampsSlower(t *testing.T) {
	// A step to full demand: ondemand reaches the top level immediately,
	// conservative climbs one rung per tick.
	mk := func(p Policy) *Simulator {
		cfg := DefaultConfig()
		cfg.Policy = p
		cfg.MisreadProb = 0
		cfg.Jitter = 0
		s, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	heavy := workload.DVFSBehavior{
		App:      workload.App{Name: "step", Label: dataset.Malware, Known: true},
		BaseLoad: 0.95,
	}
	rng := rand.New(rand.NewSource(1))
	od, err := mk(Ondemand).Trace(heavy, rng)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := mk(Conservative).Trace(heavy, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if od[0] < 6 {
		t.Fatalf("ondemand first tick state %d, want immediate jump", od[0])
	}
	if cons[0] > 1 {
		t.Fatalf("conservative first tick state %d, want single-step ramp", cons[0])
	}
	// Conservative still reaches the top eventually.
	top := 0
	for _, v := range cons {
		if v > top {
			top = v
		}
	}
	if top < 6 {
		t.Fatalf("conservative never ramped up: max state %d", top)
	}
}
