package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"trusthmd/pkg/dataset"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/verdictstore"
)

// RetrainController closes the paper's deployment loop automatically: it
// tails the verdict store, feeds each device's entropy stream into its
// own DriftMonitor, and when drift is sustained, drains the rejected
// verdicts' stored feature vectors into a Retrainer, retrains and
// installs the result via Fleet.Swap — a zero-downtime model refresh
// with no operator in the loop. The swap is the same lossless hot swap
// the admin endpoint uses: in-flight requests finish on the old version,
// everything after routes to the new one.
//
// The controller is a fold over the store: step reads the records in seq
// order and decides from them alone — the cooldown from their Time, the
// switch to a new model's monitors from their Version — and a round runs
// in place on the tailing goroutine. Folding the same records again with
// the same configuration replays the same rounds into the same models.
//
// Per-device monitoring matters: one drifting edge device must trip the
// loop even while a hundred healthy devices keep the aggregate entropy
// distribution looking normal.
type RetrainController struct {
	cfg       RetrainConfig
	retrainer *detector.Retrainer

	// The fold's state, touched only by tick's goroutine.
	monitors map[string]*deviceState
	baseline []float64
	lastSeq  uint64
	// lastRound is the Time of the last round's trigger record: the
	// cooldown runs from it, in verdict time.
	lastRound time.Time
	// nextVersion (0 for none) is the version the last round's swap
	// returned, until the first record served by it switches the monitors
	// to nextBaseline, the installed detector's.
	nextVersion  uint64
	nextBaseline []float64

	// mu guards stats, the snapshot Stats returns. It is never held while
	// a round trains or swaps, so /stats does not wait on training.
	mu    sync.Mutex
	stats RetrainStats
}

// round is a retrain decided at one trigger record. Its inputs are
// already in the retrainer, which derives the seed from the round number.
type round struct {
	seq    uint64
	device string
}

// deviceState is one device's drift tracking.
type deviceState struct {
	monitor *detector.DriftMonitor
	// alarmed counts consecutive observations with the alarm up; the
	// trigger requires Sustain of them so a single noisy window cannot
	// fire a retrain.
	alarmed int
	// rejects stashes this device's rejected verdicts (with features) so
	// the trigger can hand them to the retrainer as forensics.
	rejects []verdictstore.Record
}

// RetrainConfig parameterises a RetrainController. Store, Fleet, Model
// and Base are required; everything else has serviceable defaults.
type RetrainConfig struct {
	// Store is the verdict store the controller tails.
	Store *verdictstore.Store
	// Fleet receives the retrained model via Swap.
	Fleet *Fleet
	// Model is the shard under supervision; its verdicts are monitored
	// and it is the one hot-swapped on retrain.
	Model string
	// Base is the original training set; every retrain round folds the
	// accumulated forensics into it.
	Base *dataset.Dataset
	// Options train the replacement (default: the supervised shard's
	// Info.Options(), i.e. retrain exactly what is being served).
	Options []detector.Option
	// Interval is the store-tail poll cadence (default 1s).
	Interval time.Duration
	// Drift parameterises each device's DriftMonitor. A zero Threshold
	// defaults to the supervised detector's rejection threshold.
	Drift detector.DriftConfig
	// BaselineSample is how many Base rows are assessed through the live
	// detector to form the drift baseline (default 200, capped at
	// Base.Len()).
	BaselineSample int
	// Sustain is how many consecutive alarmed observations a device needs
	// before the controller acts (default 3).
	Sustain int
	// Quorum is the forensic-sample quorum handed to the Retrainer
	// (default 25): a retrain fires only once that many rejected vectors
	// have been collected.
	Quorum int
	// Cooldown is the minimum gap between rounds (default 1m), so an
	// ineffective retrain cannot thrash the fleet. It is measured in
	// verdict time: from the Time of one round's trigger record to that of
	// the next.
	Cooldown time.Duration
	// Labeler assigns a training label to one rejected verdict, or false
	// to discard it. The default pseudo-labels with the ensemble's
	// plurality prediction — the paper's loop has an analyst here, and
	// deployments with one should plug it in.
	Labeler func(verdictstore.Record) (int, bool)
	// Logf, when set, receives the controller's lifecycle lines.
	Logf func(format string, args ...any)
}

// RetrainStats is the controller snapshot /stats reports.
type RetrainStats struct {
	Model string `json:"model"`
	// Retrains counts completed retrain+swap rounds; Failures the rounds
	// that errored (training or swap).
	Retrains int64 `json:"retrains"`
	Failures int64 `json:"failures,omitempty"`
	// TailSeq is the last verdict sequence the controller has consumed.
	TailSeq uint64 `json:"tail_seq"`
	// PendingForensics is the retrainer's labelled-but-unconsumed sample
	// count; Devices the number of devices currently tracked; Retraining
	// whether a round is training or swapping.
	PendingForensics int  `json:"pending_forensics"`
	Devices          int  `json:"devices"`
	Retraining       bool `json:"retraining,omitempty"`
}

// NewRetrainController validates the loop's wiring and seeds the drift
// baseline from the live detector. The supervised shard must be loaded.
func NewRetrainController(cfg RetrainConfig) (*RetrainController, error) {
	if cfg.Store == nil {
		return nil, errors.New("serve: retrain controller needs a verdict store")
	}
	if cfg.Fleet == nil {
		return nil, errors.New("serve: retrain controller needs a fleet")
	}
	if cfg.Model == "" {
		return nil, errors.New("serve: retrain controller needs a model name")
	}
	if cfg.Base == nil || cfg.Base.Len() == 0 {
		return nil, errors.New("serve: retrain controller needs the base training set")
	}
	det, err := cfg.Fleet.Detector(cfg.Model)
	if err != nil {
		return nil, fmt.Errorf("serve: retrain controller: %w", err)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.BaselineSample <= 0 {
		cfg.BaselineSample = 200
	}
	if cfg.Sustain <= 0 {
		cfg.Sustain = 3
	}
	if cfg.Quorum <= 0 {
		cfg.Quorum = 25
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = time.Minute
	}
	if cfg.Drift.Threshold == 0 {
		cfg.Drift.Threshold = det.Threshold()
	}
	if cfg.Options == nil {
		cfg.Options = det.Info().Options()
	}
	if cfg.Labeler == nil {
		cfg.Labeler = func(rec verdictstore.Record) (int, bool) { return rec.Prediction, true }
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	retrainer, err := detector.NewRetrainer(cfg.Base, cfg.Quorum, cfg.Options...)
	if err != nil {
		return nil, fmt.Errorf("serve: retrain controller: %w", err)
	}
	c := &RetrainController{
		cfg:       cfg,
		retrainer: retrainer,
		monitors:  make(map[string]*deviceState),
		stats:     RetrainStats{Model: cfg.Model},
	}
	if c.baseline, err = c.baselineOf(det); err != nil {
		return nil, err
	}
	return c, nil
}

// baselineOf assesses a sample of the base training set through det and
// returns the entropies — the in-distribution reference every device's
// monitor compares against. The new model of every round has its own.
func (c *RetrainController) baselineOf(det *detector.Detector) ([]float64, error) {
	n := min(c.cfg.BaselineSample, c.cfg.Base.Len())
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = c.cfg.Base.At(i).Features
	}
	rs, err := det.AssessBatch(xs)
	if err != nil {
		return nil, fmt.Errorf("serve: retrain controller baseline: %w", err)
	}
	baseline := make([]float64, len(rs))
	for i, r := range rs {
		baseline[i] = r.Entropy
	}
	return baseline, nil
}

// Run tails the store on every tick of cfg.Interval until ctx is done. A
// round runs inside its tick, so Run returns only once the round in
// progress has swapped or failed.
func (c *RetrainController) Run(ctx context.Context) error {
	ticker := time.NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
			if err := c.tick(); err != nil {
				c.cfg.Logf("retrain: %v", err)
			}
		}
	}
}

// tick folds the verdicts appended since the last tick, running each
// round a record decides before it folds the next record.
func (c *RetrainController) tick() error {
	recs, err := c.cfg.Store.Query(verdictstore.Filter{Model: c.cfg.Model, SinceSeq: c.lastSeq + 1})
	if err != nil {
		if errors.Is(err, verdictstore.ErrClosed) {
			return nil // shutting down; Run's ctx ends the loop
		}
		return err
	}
	defer c.publish(nil)
	for _, rec := range recs {
		r, err := c.step(rec)
		if err != nil {
			return err
		}
		if r != nil {
			c.run(r)
		}
	}
	return nil
}

// step folds one record into the per-device drift state and returns the
// round it decides, if any.
func (c *RetrainController) step(rec verdictstore.Record) (*round, error) {
	c.lastSeq = rec.Seq
	if c.nextVersion != 0 && rec.Version >= c.nextVersion {
		// The first verdict of the retrained model: from here on every
		// device is watched against its baseline. Older verdicts that
		// trailed the trigger fed the old monitors.
		c.baseline, c.monitors, c.nextVersion = c.nextBaseline, make(map[string]*deviceState), 0
	}
	ds := c.monitors[rec.Device]
	if ds == nil {
		m, err := detector.NewDriftMonitor(c.baseline, c.cfg.Drift)
		if err != nil {
			return nil, fmt.Errorf("device %q monitor: %w", rec.Device, err)
		}
		ds = &deviceState{monitor: m}
		c.monitors[rec.Device] = ds
	}
	if rec.Decision == detector.Reject.String() && len(rec.Features) > 0 {
		// Bound the stash: the oldest forensics age out once a device has
		// far more than a quorum's worth.
		if len(ds.rejects) >= 4*c.cfg.Quorum {
			ds.rejects = ds.rejects[1:]
		}
		ds.rejects = append(ds.rejects, rec)
	}
	st, err := ds.monitor.Observe(rec.Entropy)
	if err != nil {
		// A stored verdict with a poisoned entropy must not wedge the
		// loop; skip the observation.
		c.cfg.Logf("retrain: device %q: %v", rec.Device, err)
		return nil, nil
	}
	if !st.Alarm {
		ds.alarmed = 0
		return nil, nil
	}
	if ds.alarmed++; ds.alarmed < c.cfg.Sustain || rec.Time.Sub(c.lastRound) < c.cfg.Cooldown {
		return nil, nil
	}
	// Sustained drift: hand the device's stashed rejections, in seq
	// order, to the retrainer as labelled forensics.
	forensics := make([]detector.Forensic, 0, len(ds.rejects))
	for _, r := range ds.rejects {
		if label, ok := c.cfg.Labeler(r); ok {
			forensics = append(forensics, detector.Forensic{Features: r.Features, Label: label, App: "drift:" + rec.Device})
		}
	}
	ds.rejects, ds.alarmed = ds.rejects[:0], 0
	if len(forensics) > 0 {
		if err := c.retrainer.ReportForensics(forensics); err != nil {
			return nil, err
		}
	}
	if !c.retrainer.ShouldRetrain() {
		c.cfg.Logf("retrain: drift on %q, %d/%d forensics collected",
			rec.Device, c.retrainer.Pending(), c.cfg.Quorum)
		return nil, nil
	}
	c.lastRound = rec.Time
	return &round{seq: rec.Seq, device: rec.Device}, nil
}

// run trains round r on base+forensics, hot-swaps the shard (the fleet
// applies its prepare hook) and captures the installed detector's
// baseline for the monitors to switch to. Serving never pauses: the
// fleet keeps answering on the old version until the swap installs the
// new one.
func (c *RetrainController) run(r *round) {
	n := c.retrainer.Rounds() + 1
	c.cfg.Logf("retrain: sustained drift on %q at seq %d, launching round %d with %d forensics",
		r.device, r.seq, n, c.retrainer.Pending())
	c.publish(func(s *RetrainStats) { s.Retraining = true })
	det, err := c.retrainer.Retrain()
	var version uint64
	if err == nil {
		version, err = c.cfg.Fleet.Swap(c.cfg.Model, det, "drift-retrain")
	}
	if err != nil {
		c.cfg.Logf("retrain: round %d failed: %v", n, err)
		c.publish(func(s *RetrainStats) { s.Failures++; s.Retraining = false })
		return
	}
	var baseline []float64
	if det, err = c.cfg.Fleet.Detector(c.cfg.Model); err == nil {
		baseline, err = c.baselineOf(det)
	}
	if err != nil {
		// The swap already landed; a baseline error only degrades future
		// drift detection. Keep the old monitors and say so.
		c.cfg.Logf("retrain: %v (keeping previous baseline)", err)
	} else {
		c.nextVersion, c.nextBaseline = version, baseline
	}
	c.publish(func(s *RetrainStats) { s.Retrains++; s.Retraining = false })
	c.cfg.Logf("retrain: round %d swapped %s to version %d (training set now %d samples)",
		n, c.cfg.Model, version, c.retrainer.TrainingSize())
}

// publish refreshes the snapshot Stats returns from the fold's state,
// applying edit, if any, under the same lock. Only the fold calls it.
func (c *RetrainController) publish(edit func(*RetrainStats)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.TailSeq = c.lastSeq
	c.stats.PendingForensics = c.retrainer.Pending()
	c.stats.Devices = len(c.monitors)
	if edit != nil {
		edit(&c.stats)
	}
}

// Stats snapshots the controller.
func (c *RetrainController) Stats() RetrainStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
