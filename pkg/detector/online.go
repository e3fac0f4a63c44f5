package detector

import (
	"fmt"

	"trusthmd/internal/feature"
)

// Online is the streaming trusted detector: it consumes DVFS states one
// sample at a time, maintains a sliding window, and every Stride samples
// extracts features and produces a trusted decision — the deployment mode
// the paper's title refers to ("online uncertainty estimation"). Decisions
// use the wrapped detector's rejection threshold.
//
// Online is not safe for concurrent use; give each telemetry stream its own
// instance (the shared Detector underneath is safe to reuse). It pins the
// detector it was opened on, so a serving layer that hot-swaps models never
// changes the decisions of streams already in flight. Export and
// ResumeOnline move a live stream between detector instances.
type Online struct {
	det    *Detector
	levels int

	// ring is the fixed-capacity sample window: head is the next write
	// position and filled counts valid samples, so Push costs O(1) instead
	// of the O(window) slide a copy-based window would pay per sample.
	ring   []int
	head   int
	filled int
	// scratch linearises the ring (oldest first) for feature extraction,
	// and feats and dev are feature.DVFSInto's output and deviation
	// scratch: all three are reused across windows, so a decision
	// allocates only what Assess returns.
	scratch []int
	feats   []float64
	dev     []float64

	stride    int
	sinceLast int

	// Stats accumulates decision counts for monitoring dashboards.
	Stats OnlineStats
}

// OnlineStats tallies the stream's decisions. The JSON tags make the
// tally transportable as part of an exported SessionState, so a cluster
// can move a live stream between nodes without losing its counters.
type OnlineStats struct {
	Benign   int `json:"benign"`
	Malware  int `json:"malware"`
	Rejected int `json:"rejected"`
	// Samples counts the states accepted into the window — every Push
	// that passed range validation, including samples whose assessment
	// failed (the window retains them and retries on the next Push).
	Samples int `json:"samples"`
}

// Observe folds one decision into the tally.
func (s *OnlineStats) Observe(d Decision) {
	switch d {
	case Benign:
		s.Benign++
	case Malware:
		s.Malware++
	default:
		s.Rejected++
	}
}

// Total returns the number of decisions made.
func (s OnlineStats) Total() int { return s.Benign + s.Malware + s.Rejected }

// RejectedFraction returns the share of windows rejected, or 0 before any
// decision.
func (s OnlineStats) RejectedFraction() float64 {
	if s.Total() == 0 {
		return 0
	}
	return float64(s.Rejected) / float64(s.Total())
}

// StreamConfig parameterises the streaming detector.
type StreamConfig struct {
	// Levels is the DVFS ladder size of the telemetry source.
	Levels int
	// Window is the number of states per assessment window.
	Window int
	// Stride is how many new samples arrive between assessments; 0 means
	// a full window (non-overlapping windows).
	Stride int
}

// validateStreamConfig is the shared precondition check of NewOnline and
// ValidateStream; it returns the effective stride.
func validateStreamConfig(d *Detector, cfg StreamConfig) (int, error) {
	if d == nil {
		return 0, fmt.Errorf("detector: online needs a trained detector")
	}
	if cfg.Levels < 2 {
		return 0, fmt.Errorf("detector: online needs >=2 levels, got %d", cfg.Levels)
	}
	if cfg.Window < 2 {
		return 0, fmt.Errorf("detector: online needs window >=2, got %d", cfg.Window)
	}
	stride := cfg.Stride
	if stride <= 0 {
		stride = cfg.Window
	}
	return stride, nil
}

// ValidateStream reports whether windows of the given stream
// configuration are assessable by this detector at all: the feature
// dimension is a pure function of the ladder size (feature.DVFSDim —
// window length does not matter, missing autocorrelation lags are
// zero-padded), so a Levels value whose windows can never match the
// trained pipeline's input is detectable up front. Serving layers call
// this at session-open time so the mismatch becomes an immediate error
// instead of a failure on the first full window mid-stream.
func (d *Detector) ValidateStream(cfg StreamConfig) error {
	if _, err := validateStreamConfig(d, cfg); err != nil {
		return err
	}
	if got, dim := feature.DVFSDim(cfg.Levels), d.pipe.InputDim(); got != dim {
		return fmt.Errorf("detector: stream windows with %d levels produce %d features, model expects %d",
			cfg.Levels, got, dim)
	}
	return nil
}

// NewOnline wraps a trained detector into a streaming detector.
func NewOnline(d *Detector, cfg StreamConfig) (*Online, error) {
	stride, err := validateStreamConfig(d, cfg)
	if err != nil {
		return nil, err
	}
	return &Online{
		det:     d,
		levels:  cfg.Levels,
		ring:    make([]int, cfg.Window),
		scratch: make([]int, cfg.Window),
		feats:   make([]float64, feature.DVFSDim(cfg.Levels)),
		dev:     make([]float64, cfg.Window),
		stride:  stride,
	}, nil
}

// SessionState is the replayable snapshot of a stream: the window buffer
// linearised oldest-first, the per-stride phase counter and the cumulative
// stats. It is everything another node needs to continue the stream with
// decisions element-wise identical to never having moved — the unit a
// cluster replays onto a shard's new owner on failover.
type SessionState struct {
	Window    []int       `json:"window"`
	SinceLast int         `json:"since_last"`
	Stats     OnlineStats `json:"stats"`
}

// Export snapshots the stream's whole state: the window buffer linearised
// oldest-first (only the filled portion), the stride phase and the
// cumulative stats. Nothing else shapes a decision, so a resumed stream
// produces decisions and stats identical to never having moved.
func (o *Online) Export() SessionState {
	win := make([]int, o.filled)
	if o.filled == len(o.ring) {
		n := copy(win, o.ring[o.head:])
		copy(win[n:], o.ring[:o.head])
	} else {
		// A partially filled ring has never wrapped: samples 0..filled-1
		// sit at indices 0..filled-1 and head == filled.
		copy(win, o.ring[:o.filled])
	}
	return SessionState{
		Window:    win,
		SinceLast: o.sinceLast,
		Stats:     o.Stats,
	}
}

// ResumeOnline rebuilds a streaming detector from an exported state, so a
// stream can continue on another detector instance (same trained model)
// with decisions identical to never having moved. A nil state means a
// fresh stream, exactly like NewOnline.
func ResumeOnline(d *Detector, cfg StreamConfig, st *SessionState) (*Online, error) {
	o, err := NewOnline(d, cfg)
	if err != nil {
		return nil, err
	}
	if st == nil {
		return o, nil
	}
	if len(st.Window) > cfg.Window {
		return nil, fmt.Errorf("detector: resume state holds %d samples, window is %d", len(st.Window), cfg.Window)
	}
	for i, s := range st.Window {
		if s < 0 || s >= cfg.Levels {
			return nil, fmt.Errorf("detector: resume state sample %d: state %d outside [0,%d)", i, s, cfg.Levels)
		}
	}
	// SinceLast has no upper bound: before the first full window it grows
	// with every push (decisions only start once the window fills), and a
	// failed assessment leaves it at or beyond the stride for the retry.
	if st.SinceLast < 0 {
		return nil, fmt.Errorf("detector: resume state since_last %d is negative", st.SinceLast)
	}
	copy(o.ring, st.Window)
	o.filled = len(st.Window)
	o.head = o.filled % len(o.ring)
	o.sinceLast = st.SinceLast
	o.Stats = st.Stats
	return o, nil
}

// Push feeds one DVFS state sample. When a full window is available and the
// stride has elapsed, it returns a decision; otherwise ok is false.
//
// A failed assessment leaves the window and stride state exactly as they
// were: the sample is retained, and the decision is retried on the next
// Push rather than silently skipped until the next stride boundary.
func (o *Online) Push(state int) (res Result, ok bool, err error) {
	if state < 0 || state >= o.levels {
		return Result{}, false, fmt.Errorf("detector: state %d outside [0,%d)", state, o.levels)
	}
	o.ring[o.head] = state
	o.Stats.Samples++
	o.head++
	if o.head == len(o.ring) {
		o.head = 0
	}
	if o.filled < len(o.ring) {
		o.filled++
	}
	o.sinceLast++
	if o.filled < len(o.ring) || o.sinceLast < o.stride {
		return Result{}, false, nil
	}

	// Linearise oldest-first: the oldest sample sits at head once the ring
	// is full. Order matters — transition and autocorrelation features are
	// sequence-sensitive.
	n := copy(o.scratch, o.ring[o.head:])
	copy(o.scratch[n:], o.ring[:o.head])

	feats, err := feature.DVFSInto(o.feats, o.dev, o.scratch, o.levels)
	if err != nil {
		return Result{}, false, fmt.Errorf("detector: online features: %w", err)
	}
	if res, err = o.det.Assess(feats); err != nil {
		return Result{}, false, err
	}
	o.sinceLast = 0
	o.Stats.Observe(res.Decision)
	return res, true, nil
}
