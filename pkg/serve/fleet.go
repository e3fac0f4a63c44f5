package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"trusthmd/pkg/cluster/ring"
	"trusthmd/pkg/detector"
)

// Fleet is the mutable, versioned shard registry at the heart of the
// serving layer: a set of named detectors that can be loaded, hot-swapped
// and unloaded while traffic flows. Server is a thin HTTP transport over
// it; embedders that want a different transport (gRPC, a queue consumer)
// drive the Fleet directly.
//
// Each name resolves to a *replica group*: Config.Replicas independent
// instances of the same detector, each with its own coalescer and bounded
// queue. Requests pick a replica in two levels — the consistent-hash
// device routing chooses a *home* replica for session and locality
// affinity, and when the home queue is hot, power-of-two-choices spills
// the overflow to the least-loaded sibling. Replicas share one trained
// detector (assessment is read-only and concurrency-safe), so a spilled
// request's verdict is element-wise identical to the home replica's.
//
// Mutations are RCU-style and group-wide: Swap installs a freshly built
// group (new coalescers, version+1) under the registry lock and only
// then drains the old group's coalescers outside the lock, so requests
// already queued complete on the detector they were accepted for and
// requests that race the swap retry onto the replacement — no in-flight
// work is lost. Each group carries a monotonically increasing
// per-name version and the fleet an epoch that bumps on every mutation;
// both are surfaced in /v1/models, /stats and assessment responses so
// clients can observe exactly which model answered.
type Fleet struct {
	cfg Config

	mu     sync.RWMutex
	shards map[string]*group
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

	// nextPin hands out CPU cores round-robin to replica flushers when
	// PinCores is set; it keeps counting across loads and swaps so a
	// replacement group lands on fresh cores instead of stacking on 0.
	nextPin atomic.Int64
}

// group is one named shard version fanned out over N replicas. The
// replicas and their coalescers belong to this version (a swap replaces
// them all, so no queue outlives the model it was built on); the stats
// object is shared across versions of the same name
// so counters stay cumulative over swaps.
type group struct {
	name    string
	version uint64
	det     *detector.Detector
	stats   *shardStats

	replicas []*replica
	// ring maps device keys onto home replica indices; nil for a single
	// replica. It depends only on the group size, so a same-size swap
	// preserves every device's home slot.
	ring *ring.Ring
	// rr hands device-less stream sessions round-robin home slots.
	rr atomic.Uint64
	// spillDepth is the home-replica load at which device traffic spills
	// to the least-loaded sibling.
	spillDepth int
}

// replica is one independent serving instance inside a group: its own
// coalescer (queue + flusher) over the group's shared detector. The name/version/det/stats fields mirror the group's so
// handlers can serve from a picked replica without a back-reference.
type replica struct {
	name    string
	version uint64
	idx     int
	det     *detector.Detector
	co      *coalescer
	stats   *shardStats
	// maxInflight caps this replica's total in-flight work (coalesced +
	// client-batched samples); 0 means unbounded.
	maxInflight int
	// batchInflight gauges client-batch samples currently assessing (the
	// /v1/assess/batch path bypasses the coalescer queue).
	batchInflight atomic.Int64
	// served counts requests this replica answered — the spillover share
	// is read off these per-replica counters.
	served atomic.Int64
}

// load is the replica's admission and routing gauge: coalesced requests
// accepted and not yet settled, plus client-batch samples in flight.
func (r *replica) load() int64 {
	return r.co.inflight.Load() + r.batchInflight.Load()
}

// assessOne is the admission-controlled single-sample path: the in-flight
// cap is enforced here (a full queue sheds in the coalescer), then the
// request coalesces as before.
func (r *replica) assessOne(ctx context.Context, x, votes []float64) (detector.Result, error) {
	if r.maxInflight > 0 && r.load() >= int64(r.maxInflight) {
		r.stats.shed.Add(1)
		return detector.Result{}, ErrQueueFull
	}
	return r.co.submitVotes(ctx, x, votes)
}

// admitBatch reserves capacity for a client-supplied batch of n samples.
// A replica whose queue is full, or whose in-flight cap is already
// exhausted, refuses — the batch path sheds with the same 503 +
// Retry-After as the coalesced path. An idle replica always admits one
// batch regardless of its size (the cap gates concurrency, it is not a
// batch-size limit); the reservation may overshoot the cap and later
// requests observe it.
func (r *replica) admitBatch(n int) error {
	if r.co.queueDepth() >= r.co.tuning.queueSize {
		r.stats.shed.Add(1)
		return ErrQueueFull
	}
	if r.maxInflight > 0 && r.load() >= int64(r.maxInflight) {
		r.stats.shed.Add(1)
		return ErrQueueFull
	}
	r.batchInflight.Add(int64(n))
	return nil
}

// releaseBatch retires a reservation made by admitBatch.
func (r *replica) releaseBatch(n int) { r.batchInflight.Add(-int64(n)) }

// home returns the replica a request has session/locality affinity with: the
// within-group consistent-hash pick for a device key, a round-robin slot
// for device-less requests.
func (g *group) home(device string) *replica {
	if len(g.replicas) == 1 {
		return g.replicas[0]
	}
	if device == "" {
		return g.replicas[int(g.rr.Add(1))%len(g.replicas)]
	}
	return g.replicas[replicaIndex(g.ring, device)]
}

// pick chooses the serving replica for one request: the home replica while
// its queue is cool, the least-loaded sibling (power-of-two-choices: home
// versus best alternative, take the lighter) once the home load crosses
// the spill watermark. Device-less requests have no affinity to preserve
// and go straight to the least-loaded replica. The second return reports
// whether the request spilled away from its home.
func (g *group) pick(device string) (*replica, bool) {
	if len(g.replicas) == 1 {
		return g.replicas[0], false
	}
	if device == "" {
		return g.leastLoaded(), false
	}
	home := g.home(device)
	if home.load() < int64(g.spillDepth) {
		return home, false
	}
	if best := g.leastLoaded(); best != home && best.load() < home.load() {
		g.stats.spills.Add(1)
		return best, true
	}
	return home, false
}

// leastLoaded scans the group for the lightest replica (group sizes are
// single digits; a scan is cheaper than bookkeeping a heap).
func (g *group) leastLoaded() *replica {
	best := g.replicas[0]
	bestLoad := best.load()
	for _, r := range g.replicas[1:] {
		if l := r.load(); l < bestLoad {
			best, bestLoad = r, l
		}
	}
	return best
}

// close drains every replica's coalescer, in parallel so a group-wide
// swap's drain latency is one replica's, not the sum.
func (g *group) close() {
	var wg sync.WaitGroup
	for _, r := range g.replicas {
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			r.co.close()
		}(r)
	}
	wg.Wait()
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
		shards:      make(map[string]*group, len(models)),
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

// newGroup assembles one shard version as a full replica group; stats is
// shared across versions (and across the group's replicas).
func (f *Fleet) newGroup(name string, version uint64, det *detector.Detector, stats *shardStats) *group {
	n := f.cfg.Replicas
	g := &group{
		name:       name,
		version:    version,
		det:        det,
		stats:      stats,
		replicas:   make([]*replica, n),
		ring:       newReplicaRing(n),
		spillDepth: f.cfg.SpillDepth,
	}
	tuning := coTuning{
		maxBatch:  f.cfg.MaxBatch,
		queueSize: f.cfg.QueueSize,
	}
	for i := range g.replicas {
		if f.cfg.PinCores {
			// Stored one-based (see coTuning.pinCPU); core assignment wraps
			// when the fleet outgrows the machine.
			tuning.pinCPU = 1 + int(f.nextPin.Add(1)-1)%runtime.NumCPU()
		}
		g.replicas[i] = &replica{
			name:        name,
			version:     version,
			idx:         i,
			det:         det,
			co:          newCoalescer(det, tuning, stats),
			stats:       stats,
			maxInflight: f.cfg.MaxInflight,
		}
	}
	return g
}

// Load adds a new shard under a name not currently in the fleet and
// returns its version. Use Swap to replace an existing shard.
func (f *Fleet) Load(name string, det *detector.Detector) (uint64, error) {
	v, _, err := installed(f.install(name, det, installNew, ""))
	return v, err
}

// Swap atomically replaces the detector behind an existing shard name and
// returns the new version. The replacement is a whole fresh replica group
// (new coalescers); every old replica's coalescer
// drains its queued requests on the old detector before Swap returns, so a
// swap under load loses nothing — racing requests re-resolve onto the new
// version. The cause ("admin", "cluster", "drift-retrain", ...) is recorded
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
// the installed group, whose det is the prepared detector.
func (f *Fleet) install(name string, det *detector.Detector, mode installMode, cause string) (*group, bool, error) {
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
	old, exists := f.shards[name]
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
	g := f.newGroup(name, v, det, stats)
	f.shards[name] = g
	if exists {
		// A swap keeps the membership: names and ring are unchanged, so
		// resolvers are only blocked for the pointer write + epoch bump.
		f.epoch++
		f.lastSwapCause = cause
	} else {
		f.rebuildLocked()
	}
	f.mu.Unlock()
	if exists {
		// Drain outside the lock: queued requests finish on the detector
		// they were accepted for while new traffic already routes to the
		// replacement group.
		old.close()
	}
	return g, exists, nil
}

// installed turns install's group into the version Load, Swap and
// LoadOrSwap report.
func installed(g *group, replaced bool, err error) (uint64, bool, error) {
	if err != nil {
		return 0, false, err
	}
	return g.version, replaced, nil
}

// Unload removes a shard and drains its replicas' coalescers. The name's
// version counter and cumulative stats are retained (up to maxRetiredNames
// unloaded names), so reloading it later continues both sequences.
func (f *Fleet) Unload(name string) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	g, ok := f.shards[name]
	if !ok {
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
	g.close()
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

// resolve picks the replica group for a request. Precedence: an explicit
// model name wins; otherwise a non-empty device key routes through the
// consistent-hash ring; otherwise the default model serves. Replica
// selection within the group is the caller's second step (group.pick for
// assessment traffic, group.home for sessions).
func (f *Fleet) resolve(model, device string) (*group, error) {
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
	g, ok := f.shards[name]
	if !ok {
		return nil, fmt.Errorf("unknown model %q (loaded: %v)", name, f.names)
	}
	return g, nil
}

// resolveReplica is the full two-level pick for assessment traffic: name
// to group (explicit model / device ring / default), then group to replica
// (home affinity with load-aware spill). The middle return reports whether
// the request spilled away from its home replica.
func (f *Fleet) resolveReplica(model, device string) (*replica, bool, error) {
	g, err := f.resolve(model, device)
	if err != nil {
		return nil, false, err
	}
	r, spilled := g.pick(device)
	return r, spilled, nil
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
		g := f.shards[name]
		out = append(out, ModelInfo{
			Name:     name,
			Version:  g.version,
			Replicas: len(g.replicas),
			Default:  name == def,
			Info:     g.det.Info(),
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
// the same consistent view — the pair /stats reports. Per-replica gauges
// (queue depth, in-flight load, served share) are read
// under the same registry lock, so the whole snapshot describes one fleet
// generation.
func (f *Fleet) StatsWithEpoch() (uint64, []ShardStats) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]ShardStats, 0, len(f.names))
	for _, name := range f.names {
		g := f.shards[name]
		st := g.stats.snapshot(name)
		st.Version = g.version
		st.Replicas = make([]ReplicaStats, len(g.replicas))
		for i, r := range g.replicas {
			st.Replicas[i] = ReplicaStats{
				Replica:    i,
				QueueDepth: r.co.queueDepth(),
				Inflight:   r.load(),
				Served:     r.served.Load(),
			}
		}
		out = append(out, st)
	}
	return f.epoch, out
}

// Close stops every replica's coalescer after draining queued requests,
// waits for every Assess call in flight to return, its verdict recorded,
// and rejects all future mutations and resolves. Safe to call more than
// once. The HTTP listener should be shut down first so no new requests
// arrive.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	groups := make([]*group, 0, len(f.shards))
	for _, g := range f.shards {
		groups = append(groups, g)
	}
	f.mu.Unlock()
	for _, g := range groups {
		g.close()
	}
	f.calls.Wait()
}
