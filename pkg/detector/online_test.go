package detector

import (
	"encoding/json"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"trusthmd/internal/dvfs"
	"trusthmd/internal/feature"
	"trusthmd/internal/workload"
)

func onlineDetector(t testing.TB) *Detector {
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
	if o.Stats.Total() != decisions {
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
	if o.Stats.Total() != 0 {
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

// TestOnlinePushMatchesAssess streams a steady phase, whose windows repeat
// exactly, then a changing one, on a plain and on a decomposing detector,
// and checks that every decision equals Detector.Assess on that window's
// features, and that it still does after the rest of the stream has run
// (each result is the caller's own).
func TestOnlinePushMatchesAssess(t *testing.T) {
	plain := onlineDetector(t)
	deco, err := plain.WithOptions(WithDecomposition(true))
	if err != nil {
		t.Fatal(err)
	}
	const levels, window, stride = 8, 64, 16
	for name, d := range map[string]*Detector{"plain": plain, "decompose": deco} {
		o, err := NewOnline(d, StreamConfig{Levels: levels, Window: window, Stride: stride})
		if err != nil {
			t.Fatal(err)
		}
		// Period 8 then period 16: in the first phase every stride slides
		// the window onto an identical copy of itself.
		var states []int
		for i := 0; i < 4*window; i++ {
			states = append(states, i%levels)
		}
		for i := 0; i < 4*window; i++ {
			states = append(states, (i/2)%levels)
		}
		var got, want []Result
		for i, st := range states {
			res, ok, err := o.Push(st)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			feats, err := feature.DVFSVector(states[i+1-window:i+1], levels)
			if err != nil {
				t.Fatal(err)
			}
			w, err := d.Assess(feats)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, w) {
				t.Fatalf("%s: push %d: decision %+v, Assess %+v", name, i, res, w)
			}
			got, want = append(got, res), append(want, w)
		}
		if len(got) < 2*window/stride {
			t.Fatalf("%s: only %d decisions emitted", name, len(got))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: an earlier decision changed under later pushes", name)
		}
	}
}

func TestOnlineStatsZero(t *testing.T) {
	var s OnlineStats
	if s.RejectedFraction() != 0 || s.Total() != 0 {
		t.Fatal("zero stats")
	}
}

// The failover fixtures: one stream configuration, its state sequence, cut
// points covering every regime (mid-fill with the window not yet full,
// mid-stride, exactly on a decision boundary) and states ResumeOnline must
// refuse.
var (
	resumeCfg  = StreamConfig{Levels: 8, Window: 32, Stride: 8}
	resumeCuts = []int{0, 7, 17, 40, 131, 200}
	badResume  = []SessionState{
		{Window: make([]int, resumeCfg.Window+1)},
		{Window: []int{0, 1, 99}},
		{Window: []int{0, 1, -1}},
		{SinceLast: -1},
	}
)

func resumeStates() []int {
	rng := rand.New(rand.NewSource(31))
	states := make([]int, 300)
	for i := range states {
		states[i] = rng.Intn(resumeCfg.Levels)
	}
	return states
}

// pushAll feeds states one by one and returns the decisions emitted.
func pushAll(t testing.TB, o *Online, states []int) []Result {
	t.Helper()
	var out []Result
	for i, st := range states {
		res, ok, err := o.Push(st)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if ok {
			out = append(out, res)
		}
	}
	return out
}

// TestOnlineExportResumeIdentity pins the failover contract: exporting a
// stream at an arbitrary cut point and resuming it with ResumeOnline
// yields decisions element-wise identical to the uninterrupted stream —
// windows straddling the cut included.
func TestOnlineExportResumeIdentity(t *testing.T) {
	d := onlineDetector(t)
	cfg := resumeCfg
	states := resumeStates()

	baseline, err := NewOnline(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := pushAll(t, baseline, states)
	if len(want) == 0 {
		t.Fatal("baseline produced no decisions")
	}

	for _, cut := range resumeCuts {
		first, err := NewOnline(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := pushAll(t, first, states[:cut])
		st := first.Export()

		resumed, err := ResumeOnline(d, cfg, &st)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, pushAll(t, resumed, states[cut:])...)

		if len(got) != len(want) {
			t.Fatalf("cut %d: %d decisions, want %d", cut, len(got), len(want))
		}
		for i := range got {
			if got[i].Prediction != want[i].Prediction ||
				got[i].Entropy != want[i].Entropy ||
				got[i].Decision != want[i].Decision {
				t.Fatalf("cut %d: decision %d diverged: %+v vs %+v", cut, i, got[i], want[i])
			}
		}
		if s := resumed.Stats; s.Samples != len(states) || s.Total() != len(want) {
			t.Fatalf("cut %d: resumed stats %+v, want %d samples / %d decisions", cut, s, len(states), len(want))
		}
	}

	// A nil state resumes fresh; invalid states are rejected up front.
	if _, err := ResumeOnline(d, cfg, nil); err != nil {
		t.Fatalf("nil state: %v", err)
	}
	for i, st := range badResume {
		if _, err := ResumeOnline(d, cfg, &st); err == nil {
			t.Fatalf("bad state %d: expected error", i)
		}
	}

	// The export is what cluster peers exchange: its JSON keys are wire.
	raw, err := json.Marshal(baseline.Export())
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	var stats map[string]json.RawMessage
	if err := json.Unmarshal(top["stats"], &stats); err != nil {
		t.Fatal(err)
	}
	if got, want := slices.Sorted(maps.Keys(top)), []string{"since_last", "stats", "window"}; !slices.Equal(got, want) {
		t.Fatalf("export keys %v, want %v", got, want)
	}
	if got, want := slices.Sorted(maps.Keys(stats)), []string{"benign", "malware", "rejected", "samples"}; !slices.Equal(got, want) {
		t.Fatalf("export stats keys %v, want %v", got, want)
	}
}

// FuzzResumeOnline feeds ResumeOnline the SessionState JSON a cluster peer
// may send in /cluster/v1/push and pushes a chunk of states onto what it
// accepted. ResumeOnline accepts exactly the states that fit the window,
// lie in [0,Levels) and carry a non-negative since_last; the accepted
// state round-trips through Export; and a push fails exactly on an
// out-of-range state, never panicking.
func FuzzResumeOnline(f *testing.F) {
	d := onlineDetector(f)
	cfg := resumeCfg
	states := resumeStates()
	chunk := make([]byte, 40)
	for i := range chunk {
		chunk[i] = byte(states[i] + 1)
	}
	seed := func(st SessionState) {
		raw, err := json.Marshal(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, chunk)
	}
	for _, st := range badResume {
		seed(st)
	}
	for _, cut := range resumeCuts {
		o, err := NewOnline(d, cfg)
		if err != nil {
			f.Fatal(err)
		}
		pushAll(f, o, states[:cut])
		seed(o.Export())
	}

	f.Fuzz(func(t *testing.T, raw, chunk []byte) {
		var st SessionState
		if json.Unmarshal(raw, &st) != nil {
			return
		}
		outOfRange := func(s int) bool { return s < 0 || s >= cfg.Levels }
		valid := len(st.Window) <= cfg.Window && st.SinceLast >= 0 && !slices.ContainsFunc(st.Window, outOfRange)
		o, err := ResumeOnline(d, cfg, &st)
		if (err == nil) != valid {
			t.Fatalf("ResumeOnline(%s): err %v, want accepted %v", raw, err, valid)
		}
		if err != nil {
			return
		}
		exp := o.Export()
		if !slices.Equal(exp.Window, st.Window) || exp.SinceLast != st.SinceLast || exp.Stats != st.Stats {
			t.Fatalf("export %+v, resumed from %+v", exp, st)
		}
		again, err := ResumeOnline(d, cfg, &exp)
		if err != nil {
			t.Fatalf("re-resuming an export: %v", err)
		}
		if exp2 := again.Export(); !reflect.DeepEqual(exp2, exp) {
			t.Fatalf("round trip %+v, want %+v", exp2, exp)
		}

		accepted := 0
		for _, b := range chunk {
			// Byte 0 is state -1 and byte Levels+1 is state Levels, so both
			// out-of-range neighbours are reachable.
			state := int(b)%(cfg.Levels+2) - 1
			_, _, err := o.Push(state)
			if (err != nil) != outOfRange(state) {
				t.Fatalf("push %d: err %v", state, err)
			}
			if err == nil {
				accepted++
			}
		}
		if got, want := len(o.Export().Window), min(cfg.Window, len(st.Window)+accepted); got != want {
			t.Fatalf("window holds %d samples after pushes, want %d", got, want)
		}
	})
}
