package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"math/rand"
	"testing"
	"time"

	"trusthmd/internal/gen"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/verdictstore"
)

// loopDetector trains the small DVFS detector the closed-loop tests
// supervise, on the splits they drive it with.
func loopDetector(t testing.TB) (gen.Splits, *detector.Detector) {
	t.Helper()
	splits, err := gen.DVFSWithSizes(5, gen.Sizes{Train: 320, Test: 80, Unknown: 120})
	if err != nil {
		t.Fatal(err)
	}
	det, err := detector.New(splits.Train,
		detector.WithModel("rf"), detector.WithEnsembleSize(9), detector.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	return splits, det
}

// TestRetrainReplay is the closed loop's reproducibility proof: the
// retrain controller is a fold over the verdict store, so folding a live
// run's records again, offline and in one go, replays the same rounds
// into the same model, byte for byte.
//
//   - Live: a healthy and a drifting device interleave through a
//     store-tapped fleet, and the controller folds after every k verdicts,
//     k drawn from a seeded rng in 1..40, so its rounds land at arbitrary
//     points of the tail. A cooldown of one nanosecond lets a second round
//     fire as soon as the drift is sustained again.
//   - Replay: the store is closed and reopened, and a fresh controller
//     folds all of it in one tick into a fresh fleet that has no store
//     and starts from the same detector and prepare hook.
//
// Both must end on the same round count and the same Detector.Save bytes.
func TestRetrainReplay(t *testing.T) {
	splits, det := loopDetector(t)
	newFleet := func(store *verdictstore.Store) *Fleet {
		f, err := NewFleet(map[string]*detector.Detector{"hmd": det}, Config{
			Verdicts: store,
			PrepareDetector: func(d *detector.Detector) (*detector.Detector, error) {
				return d.WithOptions(detector.WithThreshold(0.45))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Close)
		return f
	}
	newController := func(store *verdictstore.Store, f *Fleet) *RetrainController {
		c, err := NewRetrainController(RetrainConfig{
			Store:          store,
			Fleet:          f,
			Model:          "hmd",
			Base:           splits.Train,
			Drift:          detector.DriftConfig{Window: 16},
			BaselineSample: 100,
			Sustain:        3,
			Quorum:         20,
			Cooldown:       time.Nanosecond,
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	digest := func(f *Fleet) [sha256.Size]byte {
		d, err := f.Detector("hmd")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(buf.Bytes())
	}

	dir := t.TempDir()
	store, err := verdictstore.Open(dir, verdictstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	live := newFleet(store)
	ctrl := newController(store, live)
	rng := rand.New(rand.NewSource(41))
	k := 1 + rng.Intn(40)
	for i := 0; i < 1200; i++ {
		spec := AssessSpec{Device: "healthy", Features: splits.Test.At(i / 2 % splits.Test.Len()).Features}
		if i%2 == 1 {
			spec = AssessSpec{Device: "edge-7", Features: splits.Unknown.At(i / 2 % splits.Unknown.Len()).Features}
		}
		if _, err := live.Assess(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		if k--; k == 0 {
			if err := ctrl.tick(); err != nil {
				t.Fatal(err)
			}
			k = 1 + rng.Intn(40)
		}
	}
	if err := ctrl.tick(); err != nil { // fold the tail the last k left
		t.Fatal(err)
	}
	liveStats, liveDigest := ctrl.Stats(), digest(live)
	if liveStats.Retrains < 2 || liveStats.Failures != 0 {
		t.Fatalf("live run: %+v, want at least two rounds and no failures", liveStats)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := verdictstore.Open(dir, verdictstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	replayed := newFleet(nil)
	replay := newController(reopened, replayed)
	if err := replay.tick(); err != nil {
		t.Fatal(err)
	}
	if got := replay.Stats(); got.Retrains != liveStats.Retrains || got.TailSeq != liveStats.TailSeq {
		t.Fatalf("replay: %+v, live: %+v", got, liveStats)
	}
	if got := digest(replayed); got != liveDigest {
		t.Fatalf("replayed model %x, live model %x", got[:8], liveDigest[:8])
	}
}

// TestRetrainCooldownInVerdictTime holds the cooldown to the records'
// own Time. A drifting device's verdicts, stamped one second apart years
// before they are folded, fire more than one round, and rounds at most
// one per minute of verdict time: five at most over 300 seconds.
func TestRetrainCooldownInVerdictTime(t *testing.T) {
	splits, det := loopDetector(t)
	store, err := verdictstore.Open(t.TempDir(), verdictstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 300; i++ {
		x := splits.Unknown.At(i % splits.Unknown.Len()).Features
		r, err := det.Assess(x)
		if err != nil {
			t.Fatal(err)
		}
		rec := verdictstore.Record{Time: t0.Add(time.Duration(i) * time.Second), Device: "edge-7", Model: "hmd",
			Version: 1, Prediction: r.Prediction, Decision: r.Decision.String(), Entropy: r.Entropy}
		if r.Decision == detector.Reject {
			rec.Features = x
		}
		if _, err := store.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	fleet, err := NewFleet(map[string]*detector.Detector{"hmd": det}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	ctrl, err := NewRetrainController(RetrainConfig{
		Store:          store,
		Fleet:          fleet,
		Model:          "hmd",
		Base:           splits.Train,
		Drift:          detector.DriftConfig{Window: 16},
		BaselineSample: 100,
		Sustain:        3,
		Quorum:         20,
		Cooldown:       time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.tick(); err != nil {
		t.Fatal(err)
	}
	if st := ctrl.Stats(); st.Retrains < 2 || st.Retrains > 5 || st.Failures != 0 {
		t.Fatalf("%+v, want 2..5 rounds and no failures", st)
	}
}
