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
// verdicts' stored feature vectors into a Retrainer, retrains in the
// background and installs the result via Fleet.Swap — a zero-
// downtime model refresh with no operator in the loop. The swap is the
// same lossless hot swap the admin endpoint uses: in-flight requests
// finish on the old version, everything after routes to the new one.
//
// Per-device monitoring matters: one drifting edge device must trip the
// loop even while a hundred healthy devices keep the aggregate entropy
// distribution looking normal.
type RetrainController struct {
	cfg       RetrainConfig
	retrainer *detector.Retrainer

	mu       sync.Mutex
	monitors map[string]*deviceState
	baseline []float64
	lastSeq  uint64
	// retraining serializes retrain rounds: the tick loop never touches
	// the retrainer while a background round owns it.
	retraining  bool
	lastSwapped time.Time
	retrains    int64
	failures    int64

	wg sync.WaitGroup
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
	// Cooldown is the minimum gap between swaps (default 1m), so an
	// ineffective retrain cannot thrash the fleet.
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
	// whether a background round is in flight.
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
	}
	if err := c.reseedBaseline(det); err != nil {
		return nil, err
	}
	return c, nil
}

// reseedBaseline assesses a sample of the base training set through det
// and stores the resulting entropies — the in-distribution reference
// every device's monitor compares against. Called at construction and
// after every swap (the new model has its own entropy profile).
func (c *RetrainController) reseedBaseline(det *detector.Detector) error {
	n := c.cfg.BaselineSample
	if n > c.cfg.Base.Len() {
		n = c.cfg.Base.Len()
	}
	xs := make([][]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = c.cfg.Base.At(i).Features
	}
	rs, err := det.AssessBatch(xs)
	if err != nil {
		return fmt.Errorf("serve: retrain controller baseline: %w", err)
	}
	baseline := make([]float64, len(rs))
	for i, r := range rs {
		baseline[i] = r.Entropy
	}
	c.mu.Lock()
	c.baseline = baseline
	c.monitors = make(map[string]*deviceState)
	c.mu.Unlock()
	return nil
}

// Run tails the store until ctx is done, waiting out any in-flight
// retrain round before returning.
func (c *RetrainController) Run(ctx context.Context) error {
	ticker := time.NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			c.wg.Wait()
			return ctx.Err()
		case <-ticker.C:
			if err := c.tick(); err != nil {
				c.cfg.Logf("retrain: %v", err)
			}
		}
	}
}

// tick consumes the verdicts appended since the last tick and updates
// every device's drift state, possibly launching a retrain round.
func (c *RetrainController) tick() error {
	c.mu.Lock()
	since := c.lastSeq + 1
	c.mu.Unlock()
	recs, err := c.cfg.Store.Query(verdictstore.Filter{Model: c.cfg.Model, SinceSeq: since})
	if err != nil {
		if errors.Is(err, verdictstore.ErrClosed) {
			return nil // shutting down; Run's ctx ends the loop
		}
		return err
	}
	if len(recs) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var trigger *deviceState
	var triggerDevice string
	for _, rec := range recs {
		if rec.Seq > c.lastSeq {
			c.lastSeq = rec.Seq
		}
		dev := rec.Device
		ds := c.monitors[dev]
		if ds == nil {
			m, err := detector.NewDriftMonitor(c.baseline, c.cfg.Drift)
			if err != nil {
				return fmt.Errorf("device %q monitor: %w", dev, err)
			}
			ds = &deviceState{monitor: m}
			c.monitors[dev] = ds
		}
		if rec.Decision == detector.Reject.String() && len(rec.Features) > 0 {
			// Bound the stash: the oldest forensics age out once a device
			// has far more than a quorum's worth.
			if len(ds.rejects) >= 4*c.cfg.Quorum {
				ds.rejects = ds.rejects[1:]
			}
			ds.rejects = append(ds.rejects, rec)
		}
		st, err := ds.monitor.Observe(rec.Entropy)
		if err != nil {
			// A stored verdict with a poisoned entropy must not wedge the
			// loop; skip the observation.
			c.cfg.Logf("retrain: device %q: %v", dev, err)
			continue
		}
		if st.Alarm {
			ds.alarmed++
			if ds.alarmed >= c.cfg.Sustain && trigger == nil {
				trigger = ds
				triggerDevice = dev
			}
		} else {
			ds.alarmed = 0
		}
	}
	if trigger == nil || c.retraining || time.Since(c.lastSwapped) < c.cfg.Cooldown {
		return nil
	}
	// Sustained drift on triggerDevice: hand its stashed rejections to the
	// retrainer as pseudo-labelled forensics.
	forensics := make([]detector.Forensic, 0, len(trigger.rejects))
	for _, rec := range trigger.rejects {
		label, ok := c.cfg.Labeler(rec)
		if !ok {
			continue
		}
		forensics = append(forensics, detector.Forensic{
			Features: rec.Features,
			Label:    label,
			App:      "drift:" + triggerDevice,
		})
	}
	trigger.rejects = trigger.rejects[:0]
	trigger.alarmed = 0
	if len(forensics) > 0 {
		if err := c.retrainer.ReportForensics(forensics); err != nil {
			return err
		}
	}
	if !c.retrainer.ShouldRetrain() {
		c.cfg.Logf("retrain: drift on %q, %d/%d forensics collected",
			triggerDevice, c.retrainer.Pending(), c.cfg.Quorum)
		return nil
	}
	c.cfg.Logf("retrain: sustained drift on %q, launching round %d with %d forensics",
		triggerDevice, c.retrainer.Rounds()+1, c.retrainer.Pending())
	c.retraining = true
	c.wg.Add(1)
	go c.retrainAndSwap()
	return nil
}

// retrainAndSwap runs one background round: train on base+forensics,
// hot-swap the shard (the fleet applies its prepare hook) and reseed the
// baseline from the detector as installed.
// Serving never pauses — the fleet keeps answering on the old version
// until the swap installs the new one.
func (c *RetrainController) retrainAndSwap() {
	defer c.wg.Done()
	fail := func(err error) {
		c.cfg.Logf("retrain: round failed: %v", err)
		c.mu.Lock()
		c.failures++
		c.retraining = false
		c.mu.Unlock()
	}
	det, err := c.retrainer.Retrain()
	if err != nil {
		fail(err)
		return
	}
	// Snapshot while this round still owns the retrainer: after the
	// retraining flag clears, the tick loop may touch it again.
	trainSize := c.retrainer.TrainingSize()
	version, err := c.cfg.Fleet.Swap(c.cfg.Model, det, "drift-retrain")
	if err != nil {
		fail(err)
		return
	}
	if det, err = c.cfg.Fleet.Detector(c.cfg.Model); err == nil {
		err = c.reseedBaseline(det)
	}
	if err != nil {
		// The swap already landed; a baseline error only degrades future
		// drift detection. Keep the old baseline and say so.
		c.cfg.Logf("retrain: %v (keeping previous baseline)", err)
	}
	c.mu.Lock()
	c.retrains++
	c.retraining = false
	c.lastSwapped = time.Now()
	c.mu.Unlock()
	c.cfg.Logf("retrain: swapped %s to version %d (training set now %d samples)",
		c.cfg.Model, version, trainSize)
}

// Stats snapshots the controller.
func (c *RetrainController) Stats() RetrainStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	pending := 0
	if !c.retraining {
		// While a round is in flight the background goroutine owns the
		// retrainer; its pending set is being consumed anyway.
		pending = c.retrainer.Pending()
	}
	return RetrainStats{
		Model:            c.cfg.Model,
		Retrains:         c.retrains,
		Failures:         c.failures,
		TailSeq:          c.lastSeq,
		PendingForensics: pending,
		Devices:          len(c.monitors),
		Retraining:       c.retraining,
	}
}
