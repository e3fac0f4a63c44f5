package serve

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"trusthmd/pkg/cluster/ring"
	"trusthmd/pkg/detector"
)

// ErrQueueFull is returned when a shard refuses a request because its
// in-flight cap (Config.MaxInflight) is reached, so the daemon sheds load
// instead of piling it up. Its message keeps the wording clients have
// always seen in the 503 body.
var ErrQueueFull = errors.New("serve: assessment queue full")

// ErrClosed is returned for requests submitted after shutdown began.
var ErrClosed = errors.New("serve: server is shutting down")

// Fleet is the mutable, versioned shard registry at the heart of the
// serving layer: a set of named detectors that can be loaded, hot-swapped
// and unloaded while traffic flows. Server is a thin HTTP transport over
// it; embedders that want a different transport (gRPC, a queue consumer)
// drive the Fleet directly.
//
// Each name resolves to one shard: a detector version, its stats and an
// in-flight gauge. Assessment runs on the caller's goroutine — a trained
// detector is read-only and safe for concurrent use, so concurrent
// callers share it directly.
//
// Requests that carry a device key instead of an explicit model name are
// mapped onto the shards through a consistent-hash ring (Fleet.ring), so
// a given device always lands on the same shard while the fleet
// membership is stable, and loading or unloading a shard only remaps the
// ~1/n of devices nearest to it on the ring.
//
// Mutations are RCU-style: Swap installs a fresh shard (version+1) under
// the registry lock. Callers that resolved the old shard finish on the
// detector they resolved, new callers resolve the replacement, so no
// in-flight work is lost. Each shard carries a monotonically increasing
// per-name version and the fleet an epoch that bumps on every mutation;
// both are surfaced in /v1/models, /stats and assessment responses so
// clients can observe exactly which model answered.
type Fleet struct {
	cfg Config

	mu     sync.RWMutex
	shards map[string]*shard
	names  []string // sorted shard names
	ring   *ring.Ring
	// versions and statsByName survive Unload so a name reloaded later
	// continues its version sequence and its cumulative counters instead
	// of restarting — and counters folded in late (a stream that outlived
	// its shard's unload) stay visible once the name serves again.
	versions    map[string]uint64
	statsByName map[string]*shardStats
	epoch       uint64
	closed      bool
	// lastSwapCause names what drove the most recent hot swap ("admin",
	// "cluster", "drift-retrain", ...; empty until the first swap) — the
	// /stats answer to "why did the model just change?".
	lastSwapCause string

	// verdictAppendErrs counts verdict-store appends that failed (the tap
	// never fails serving, so the only trace is this counter).
	verdictAppendErrs atomic.Int64
	// calls counts Assess calls in flight. Close waits them out, so every
	// verdict they record reaches the store before its owner closes it.
	// Add runs under mu's read lock while the fleet is open, so none races
	// Close's Wait.
	calls sync.WaitGroup
}

// shard is one named detector version. A swap replaces the shard; the
// stats object is shared across versions of the same name so counters
// stay cumulative over swaps.
type shard struct {
	name    string
	version uint64
	det     *detector.Detector
	stats   *shardStats
	// maxInflight caps the shard's concurrent work (single assessments
	// plus client-batch samples); 0 means unbounded.
	maxInflight int64
	// inflight gauges that work: assessments running and client-batch
	// samples reserved. It belongs to this version, so a swap starts the
	// replacement at zero while the old version's callers finish.
	inflight atomic.Int64
}

// admit reserves n units of in-flight work, or sheds — counting it — when
// the shard is already at its cap. An idle shard always admits, whatever
// n is: the cap gates concurrency, it is not a batch-size limit, and the
// reservation may overshoot it for later callers to observe.
func (sh *shard) admit(n int64) error {
	if v := sh.inflight.Add(n); sh.maxInflight > 0 && v-n >= sh.maxInflight {
		sh.inflight.Add(-n)
		sh.stats.shed.Add(1)
		return ErrQueueFull
	}
	return nil
}

// release retires a reservation made by admit.
func (sh *shard) release(n int64) { sh.inflight.Add(-n) }

// assessScratchPool lends Fleet.Assess callers an assessment workspace
// for the length of one call.
var assessScratchPool = sync.Pool{New: func() any { return new(detector.BatchScratch) }}

// assessOne is the admission-controlled single-sample path, run on the
// caller's goroutine. The verdict's VoteDist is copied out of the pooled
// scratch into votes (grown as needed; nil allocates), which the returned
// Result then owns.
func (sh *shard) assessOne(x, votes []float64) (detector.Result, error) {
	if err := sh.admit(1); err != nil {
		return detector.Result{}, err
	}
	defer sh.release(1)
	sh.stats.requests.Add(1)
	s := assessScratchPool.Get().(*detector.BatchScratch)
	defer assessScratchPool.Put(s)
	r, err := sh.det.AssessInto(s, x)
	if err != nil {
		sh.stats.errors.Add(1)
		return detector.Result{}, err
	}
	sh.stats.observeOne(r.Decision)
	r.VoteDist = append(votes[:0], r.VoteDist...)
	return r, nil
}

// NewFleet builds a fleet over the given named detectors (which may be
// empty: an empty fleet serves 404s until Load or the admin endpoint
// populates it). Every detector must be trained, and each passes through
// Config.PrepareDetector like any later install; Config.DefaultModel, if
// set alongside initial models, must name one of them.
func NewFleet(models map[string]*detector.Detector, cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	f := &Fleet{
		cfg:         cfg,
		shards:      make(map[string]*shard, len(models)),
		versions:    make(map[string]uint64, len(models)),
		statsByName: make(map[string]*shardStats, len(models)),
	}
	for name, det := range models {
		if _, err := f.Load(name, det); err != nil {
			f.Close()
			return nil, err
		}
	}
	if cfg.DefaultModel != "" && len(models) > 0 {
		if _, ok := f.shards[cfg.DefaultModel]; !ok {
			f.Close()
			return nil, fmt.Errorf("serve: default model %q not among loaded models", cfg.DefaultModel)
		}
	}
	return f, nil
}

// Load adds a new shard under a name not currently in the fleet and
// returns its version. Use Swap to replace an existing shard.
func (f *Fleet) Load(name string, det *detector.Detector) (uint64, error) {
	v, _, err := installed(f.install(name, det, installNew, ""))
	return v, err
}

// Swap atomically replaces the detector behind an existing shard name and
// returns the new version. Callers that already resolved the old version
// finish on its detector and new callers resolve the replacement, so a
// swap under load loses nothing. The cause ("admin", "cluster", "drift-retrain", ...) is recorded
// as the fleet's last swap cause and surfaced by /stats — so an operator
// reading a version bump can tell an operator-driven rollout from the
// auto-retrain loop.
func (f *Fleet) Swap(name string, det *detector.Detector, cause string) (uint64, error) {
	v, _, err := installed(f.install(name, det, installReplace, cause))
	return v, err
}

// LoadOrSwap loads the shard if the name is new and swaps it otherwise,
// reporting which happened — the admin endpoint's upsert. The cause is
// recorded only when the install actually replaced a shard (a fresh load
// is not a swap).
func (f *Fleet) LoadOrSwap(name string, det *detector.Detector, cause string) (version uint64, replaced bool, err error) {
	return installed(f.install(name, det, installUpsert, cause))
}

// LastSwapCause names what drove the most recent hot swap (empty until
// the first one).
func (f *Fleet) LastSwapCause() string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.lastSwapCause
}

// Detector returns the live detector behind a shard name (resolved like
// an explicit-model request). The retraining controller uses it to seed
// baselines and training options from the exact model being served.
func (f *Fleet) Detector(name string) (*detector.Detector, error) {
	g, err := f.resolve(name, "")
	if err != nil {
		return nil, err
	}
	return g.det, nil
}

// maxRetiredNames bounds how many unloaded shard names keep their version
// and stats entries. Cross-reload continuity is a courtesy, not a ledger:
// without a bound, rolling date-stamped names (or an attacker driving an
// un-tokened admin endpoint with random names) would grow the registry
// maps for the process lifetime.
const maxRetiredNames = 1024

type installMode int

const (
	installNew installMode = iota
	installReplace
	installUpsert
)

// install is the single mutation path behind Load, Swap and LoadOrSwap,
// and so the one place a detector enters the fleet: it runs
// Config.PrepareDetector on every detector it installs, whoever hands it
// over (boot, admin endpoint, cluster catalog, retrain loop). It returns
// the installed shard, whose det is the prepared detector.
func (f *Fleet) install(name string, det *detector.Detector, mode installMode, cause string) (*shard, bool, error) {
	if name == "" {
		return nil, false, errors.New("serve: empty model name")
	}
	if strings.Contains(name, "/") {
		// "/" would make the shard unaddressable on /v1/models/{name}.
		return nil, false, fmt.Errorf("serve: model name %q must not contain '/'", name)
	}
	if prep := f.cfg.PrepareDetector; prep != nil && det != nil {
		var err error
		if det, err = prep(det); err != nil {
			return nil, false, fmt.Errorf("serve: model %q: %w", name, err)
		}
	}
	if det == nil {
		return nil, false, fmt.Errorf("serve: model %q is nil", name)
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, false, ErrClosed
	}
	_, exists := f.shards[name]
	switch mode {
	case installNew:
		if exists {
			f.mu.Unlock()
			return nil, false, fmt.Errorf("serve: model %q already loaded (use Swap to replace it)", name)
		}
	case installReplace:
		if !exists {
			f.mu.Unlock()
			return nil, false, fmt.Errorf("serve: unknown model %q (use Load to add it)", name)
		}
	}
	v := f.versions[name] + 1
	f.versions[name] = v
	// Counters stay cumulative per name across swaps AND unload/reload
	// cycles (like the version sequence).
	stats := f.statsByName[name]
	if stats == nil {
		stats = &shardStats{}
		f.statsByName[name] = stats
	}
	sh := &shard{name: name, version: v, det: det, stats: stats, maxInflight: int64(f.cfg.MaxInflight)}
	f.shards[name] = sh
	if exists {
		// A swap keeps the membership: names and ring are unchanged, so
		// resolvers are only blocked for the pointer write + epoch bump.
		f.epoch++
		f.lastSwapCause = cause
	} else {
		f.rebuildLocked()
	}
	f.mu.Unlock()
	return sh, exists, nil
}

// installed turns install's shard into the version Load, Swap and
// LoadOrSwap report.
func installed(sh *shard, replaced bool, err error) (uint64, bool, error) {
	if err != nil {
		return 0, false, err
	}
	return sh.version, replaced, nil
}

// Unload removes a shard; callers already assessing on it finish. The name's
// version counter and cumulative stats are retained (up to maxRetiredNames
// unloaded names), so reloading it later continues both sequences.
func (f *Fleet) Unload(name string) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	if _, ok := f.shards[name]; !ok {
		// Format while still holding the lock: f.names is mutated in
		// place by rebuildLocked, so reading it after Unlock races
		// concurrent membership changes.
		err := fmt.Errorf("serve: unknown model %q (loaded: %v)", name, f.names)
		f.mu.Unlock()
		return err
	}
	delete(f.shards, name)
	f.rebuildLocked()
	// Evict retired bookkeeping beyond the bound: entries for loaded
	// shards are always kept, unloaded names beyond maxRetiredNames lose
	// their version/stats continuity (a reload then restarts at v1).
	if len(f.versions) > len(f.shards)+maxRetiredNames {
		for n := range f.versions {
			if _, loaded := f.shards[n]; !loaded {
				delete(f.versions, n)
				delete(f.statsByName, n)
				if len(f.versions) <= len(f.shards)+maxRetiredNames {
					break
				}
			}
		}
	}
	f.mu.Unlock()
	return nil
}

// rebuildLocked refreshes the sorted name list, the routing ring and the
// fleet epoch after a membership change (swaps skip it — same names, same
// ring). Callers hold f.mu.
func (f *Fleet) rebuildLocked() {
	f.names = f.names[:0]
	for name := range f.shards {
		f.names = append(f.names, name)
	}
	sort.Strings(f.names)
	f.ring = ring.New(f.names, 0)
	f.epoch++
}

// resolve picks the shard for a request. Precedence: an explicit model
// name wins; otherwise a non-empty device key routes through the
// consistent-hash ring; otherwise the default model serves.
func (f *Fleet) resolve(model, device string) (*shard, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return nil, ErrClosed
	}
	if len(f.names) == 0 {
		return nil, errors.New("no models loaded")
	}
	name := model
	if name == "" && device != "" {
		name = f.ring.Lookup(device)
	}
	if name == "" {
		name = f.defaultLocked()
		if name == "" {
			return nil, fmt.Errorf("request must name a model or device (loaded: %v)", f.names)
		}
	}
	sh, ok := f.shards[name]
	if !ok {
		return nil, fmt.Errorf("unknown model %q (loaded: %v)", name, f.names)
	}
	return sh, nil
}

// defaultLocked names the shard serving model-less, device-less requests:
// the configured DefaultModel when it is currently loaded, else the only
// shard. Callers hold f.mu (read or write).
func (f *Fleet) defaultLocked() string {
	if f.cfg.DefaultModel != "" {
		if _, ok := f.shards[f.cfg.DefaultModel]; ok {
			return f.cfg.DefaultModel
		}
		return ""
	}
	if len(f.names) == 1 {
		return f.names[0]
	}
	return ""
}

// Names returns the sorted shard names currently loaded.
func (f *Fleet) Names() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]string(nil), f.names...)
}

// Len reports the number of loaded shards.
func (f *Fleet) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.shards)
}

// Epoch returns the fleet generation: it increments on every Load, Swap
// and Unload, so a client comparing epochs across /stats calls can tell
// whether the fleet changed in between.
func (f *Fleet) Epoch() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.epoch
}

// Models describes every loaded shard, sorted by name — the body of
// GET /v1/models.
func (f *Fleet) Models() []ModelInfo {
	_, models := f.ModelsWithEpoch()
	return models
}

// ModelsWithEpoch returns the shard listing together with the epoch of
// the same consistent view — the pair /v1/models reports. (Calling Epoch
// and Models separately can straddle a mutation and pair an epoch with
// the other generation's listing.)
func (f *Fleet) ModelsWithEpoch() (uint64, []ModelInfo) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	def := f.defaultLocked()
	out := make([]ModelInfo, 0, len(f.names))
	for _, name := range f.names {
		sh := f.shards[name]
		out = append(out, ModelInfo{
			Name:    name,
			Version: sh.version,
			Default: name == def,
			Info:    sh.det.Info(),
		})
	}
	return f.epoch, out
}

// Stats snapshots every shard's serving counters, sorted by shard name.
func (f *Fleet) Stats() []ShardStats {
	_, stats := f.StatsWithEpoch()
	return stats
}

// StatsWithEpoch returns the counter snapshot together with the epoch of
// the same consistent view — the pair /stats reports. Each shard's
// in-flight gauge is read under the same registry lock, so the whole
// snapshot describes one fleet generation.
func (f *Fleet) StatsWithEpoch() (uint64, []ShardStats) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]ShardStats, 0, len(f.names))
	for _, name := range f.names {
		sh := f.shards[name]
		st := sh.stats.snapshot(name)
		st.Version = sh.version
		st.Inflight = sh.inflight.Load()
		out = append(out, st)
	}
	return f.epoch, out
}

// Close waits for every Assess call in flight to return, its verdict
// recorded, and rejects all future mutations and resolves. Safe to call more than
// once. The HTTP listener should be shut down first so no new requests
// arrive.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()
	f.calls.Wait()
}
