package detector

import (
	"math/rand"
	"testing"

	"trusthmd/internal/dvfs"
	"trusthmd/internal/feature"
	"trusthmd/internal/workload"
)

func onlineDetector(t *testing.T) *Detector {
	t.Helper()
	s := dvfsSplits(t)
	d, err := New(s.Train, WithModel("rf"), WithEnsembleSize(11), WithSeed(20))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewOnlineValidation(t *testing.T) {
	d := onlineDetector(t)
	cases := map[string]StreamConfig{
		"levels": {Levels: 1, Window: 16},
		"window": {Levels: 8, Window: 1},
	}
	for name, cfg := range cases {
		if _, err := NewOnline(d, cfg); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
	if _, err := NewOnline(nil, StreamConfig{Levels: 8, Window: 16}); err == nil {
		t.Fatal("expected nil detector error")
	}
}

func TestOnlineStream(t *testing.T) {
	d := onlineDetector(t)
	o, err := NewOnline(d, StreamConfig{Levels: 8, Window: 256, Stride: 128})
	if err != nil {
		t.Fatal(err)
	}

	// Stream a miner trace: decisions should flow once the window fills.
	sim, err := dvfs.NewSimulator(dvfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var miner workload.DVFSBehavior
	for _, a := range workload.DVFSApps() {
		if a.Name == "miner_a" {
			miner = a
		}
	}
	rng := rand.New(rand.NewSource(21))
	decisions := 0
	malware := 0
	for i := 0; i < 4; i++ {
		trace, err := sim.Trace(miner, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range trace {
			res, ok, err := o.Push(st)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				decisions++
				if res.Decision == Malware {
					malware++
				}
			}
		}
	}
	if decisions == 0 {
		t.Fatal("no decisions emitted")
	}
	if o.Stats.Total() != decisions || o.Stats.Windows != decisions {
		t.Fatalf("stats mismatch: %+v vs %d", o.Stats, decisions)
	}
	if float64(malware)/float64(decisions) < 0.6 {
		t.Fatalf("miner stream should mostly flag malware: %d/%d", malware, decisions)
	}
}

func TestOnlineStrideControlsRate(t *testing.T) {
	d := onlineDetector(t)
	o, err := NewOnline(d, StreamConfig{Levels: 8, Window: 64, Stride: 16})
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	for i := 0; i < 256; i++ {
		_, ok, err := o.Push(i % 8)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			emitted++
		}
	}
	// Window fills at 64, then one decision per 16 samples: 1 + (256-64)/16.
	want := 1 + (256-64)/16
	if emitted != want {
		t.Fatalf("emitted %d decisions, want %d", emitted, want)
	}
}

func TestOnlineStrideLargerThanWindow(t *testing.T) {
	// stride > window subsamples the stream: the window fills at 16 but
	// decisions only fire every 32 samples.
	d := onlineDetector(t)
	o, err := NewOnline(d, StreamConfig{Levels: 8, Window: 16, Stride: 32})
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	for i := 0; i < 256; i++ {
		_, ok, err := o.Push(i % 8)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			emitted++
		}
	}
	if want := 256 / 32; emitted != want {
		t.Fatalf("emitted %d decisions, want %d", emitted, want)
	}
}

// TestOnlineOverlapMatchesNaive checks the ring buffer against a naive
// sliding window: with stride < window, every emitted decision must be
// identical to assessing the corresponding slice of the raw stream —
// transition and autocorrelation features are order-sensitive, so this
// fails if the ring is linearised in the wrong order.
func TestOnlineOverlapMatchesNaive(t *testing.T) {
	d := onlineDetector(t)
	const levels, window, stride = 8, 64, 16
	o, err := NewOnline(d, StreamConfig{Levels: levels, Window: window, Stride: stride})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	stream := make([]int, 0, 4*window)
	var got []Result
	for i := 0; i < 4*window; i++ {
		st := rng.Intn(levels)
		stream = append(stream, st)
		res, ok, err := o.Push(st)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			got = append(got, res)
		}
		if !ok {
			continue
		}
		// Assess the same window naively from the raw stream.
		feats, err := feature.DVFSVector(stream[len(stream)-window:], levels)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.Assess(feats)
		if err != nil {
			t.Fatal(err)
		}
		if res.Prediction != want.Prediction || res.Entropy != want.Entropy || res.Decision != want.Decision {
			t.Fatalf("window ending at %d: ring decision %+v != naive %+v", len(stream), res, want)
		}
	}
	if want := 1 + (4*window-window)/stride; len(got) != want {
		t.Fatalf("emitted %d decisions, want %d", len(got), want)
	}
}

// TestOnlineAssessErrorKeepsState drives the streaming detector into a
// failing Assess (the stream's DVFS ladder does not match the trained
// feature dimensionality) and requires the window and stride bookkeeping
// to survive: the error is surfaced on every push past the trigger point,
// the ring keeps sliding, and no phantom decisions are tallied.
func TestOnlineAssessErrorKeepsState(t *testing.T) {
	d := onlineDetector(t) // trained on the 8-level ladder (17 features)
	const levels, window = 4, 16
	o, err := NewOnline(d, StreamConfig{Levels: levels, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < window-1; i++ {
		if _, ok, err := o.Push(i % levels); err != nil || ok {
			t.Fatalf("push %d: ok=%v err=%v before window filled", i, ok, err)
		}
	}
	// The window fills here; features have the wrong width, so Assess fails.
	if _, _, err := o.Push(0); err == nil {
		t.Fatal("expected dimension-mismatch error at window fill")
	}
	if o.filled != window || o.sinceLast < o.stride {
		t.Fatalf("error corrupted state: filled=%d sinceLast=%d", o.filled, o.sinceLast)
	}
	// Subsequent pushes keep the sample, retry, and keep failing loudly —
	// the stream never silently drops windows.
	for i := 0; i < 2*window; i++ {
		if _, _, err := o.Push(i % levels); err == nil {
			t.Fatal("expected persistent error, got silent success")
		}
	}
	if o.filled != window {
		t.Fatalf("ring stopped sliding: filled=%d", o.filled)
	}
	if o.Stats.Total() != 0 || o.Stats.Windows != 0 {
		t.Fatalf("failed assessments leaked into stats: %+v", o.Stats)
	}
	// An out-of-range sample is rejected without touching the window.
	head, filled, since := o.head, o.filled, o.sinceLast
	if _, _, err := o.Push(levels); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if o.head != head || o.filled != filled || o.sinceLast != since {
		t.Fatal("rejected sample mutated window state")
	}
}

func TestOnlineRejectsBadState(t *testing.T) {
	d := onlineDetector(t)
	o, err := NewOnline(d, StreamConfig{Levels: 8, Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.Push(8); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, _, err := o.Push(-1); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

// TestOnlinePushMemoisation streams windows that repeat exactly (a steady
// telemetry phase) interleaved with changing ones, and checks that repeats
// are served from the window memo with decisions identical to
// the unmemoised path.
func TestOnlinePushMemoisation(t *testing.T) {
	d := onlineDetector(t)
	const levels, window, stride = 8, 64, 16
	o, err := NewOnline(d, StreamConfig{Levels: levels, Window: window, Stride: stride})
	if err != nil {
		t.Fatal(err)
	}
	// Pattern with period 8: every stride of 16 slides the window onto an
	// identical copy of itself, so all decisions after the first are hits.
	decisions := 0
	for i := 0; i < 4*window; i++ {
		res, ok, err := o.Push(i % levels)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		decisions++
		// Every decision must match the naive unmemoised assessment.
		win := make([]int, window)
		for j := range win {
			j0 := i - window + 1 + j
			win[j] = j0 % levels
		}
		feats, err := feature.DVFSVector(win, levels)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.Assess(feats)
		if err != nil {
			t.Fatal(err)
		}
		if res.Prediction != want.Prediction || res.Entropy != want.Entropy || res.Decision != want.Decision {
			t.Fatalf("push %d: memoised decision %+v != naive %+v", i, res, want)
		}
	}
	if decisions < 2 {
		t.Fatalf("only %d decisions emitted", decisions)
	}
	if want := decisions - 1; o.Stats.CacheHits != want {
		t.Fatalf("cache hits %d, want %d (every repeat after the first window)", o.Stats.CacheHits, want)
	}

	// A genuinely new window must miss the cache and still be correct.
	hits := o.Stats.CacheHits
	for i := 0; ; i++ {
		_, ok, err := o.Push((i / 2) % levels) // different pattern
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			break
		}
	}
	if o.Stats.CacheHits != hits {
		t.Fatal("changed window wrongly served from cache")
	}
}

func TestOnlineStatsZero(t *testing.T) {
	var s OnlineStats
	if s.RejectedFraction() != 0 || s.Total() != 0 {
		t.Fatal("zero stats")
	}
}
