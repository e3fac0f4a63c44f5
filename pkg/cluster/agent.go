package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"trusthmd/pkg/cluster/ring"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/serve"
)

// Config parameterises one cluster agent.
type Config struct {
	// NodeID uniquely names this node in the cluster. Required.
	NodeID string
	// Advertise is the base URL other nodes reach this node at (scheme +
	// host:port; the serve mux and the /cluster/v1/ mux share it).
	// Required.
	Advertise string
	// Coordinator makes this node the cluster coordinator for the
	// cluster's lifetime. Join is the advertise URL of any running member
	// (normally the coordinator; a follower answers with the coordinator's
	// address). Exactly one of the two must be set.
	Coordinator bool
	Join        string
	// Heartbeat is the follower heartbeat interval and the coordinator
	// sweep interval (default 1s).
	Heartbeat time.Duration
	// SuspectAfter / DeadAfter are the membership expiry thresholds
	// (defaults 3x and 6x Heartbeat). Suspect members keep their shards;
	// dead members leave the ring.
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// Token, when set, is required as a bearer token on every
	// /cluster/v1/* request — wire it to the daemon's admin token so the
	// node-to-node surface is no more open than the admin surface.
	Token string
	// Client is the HTTP client for node-to-node calls (default: 10s
	// timeout).
	Client *http.Client
	// Logf receives operational log lines (nil discards).
	Logf func(format string, args ...any)

	// now is the clock, overridable in tests.
	now func() time.Time
}

func (c Config) withDefaults() (Config, error) {
	if c.NodeID == "" {
		return c, errors.New("cluster: NodeID required")
	}
	if c.Advertise == "" {
		return c, errors.New("cluster: Advertise URL required")
	}
	if c.Coordinator == (c.Join != "") {
		return c, errors.New("cluster: exactly one of Coordinator and Join must be set")
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * c.Heartbeat
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 6 * c.Heartbeat
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c, nil
}

// routeView is one node's immutable snapshot of the cluster routing
// state: the table plus the two rings derived from it. Ownership is pure
// computation — every node holding the same table computes the same
// owners — so the view is rebuilt, never mutated.
type routeView struct {
	table Table
	// memberRing places shards onto non-dead member IDs.
	memberRing *ring.Ring
	// shardRing places device keys onto the cluster-wide shard set.
	shardRing *ring.Ring
	shardSet  map[string]struct{}
	addrs     map[string]string
}

func buildView(t Table) *routeView {
	v := &routeView{
		table:      t,
		memberRing: ring.New(aliveMembers(t.Members), 0),
		shardRing:  ring.New(t.Shards, 0),
		shardSet:   make(map[string]struct{}, len(t.Shards)),
		addrs:      make(map[string]string, len(t.Members)),
	}
	for _, s := range t.Shards {
		v.shardSet[s] = struct{}{}
	}
	for _, m := range t.Members {
		v.addrs[m.ID] = m.Addr
	}
	return v
}

// owner computes the shard's owning node under this view.
func (v *routeView) owner(shard string) string { return v.memberRing.Lookup(shard) }

// Agent is one node's cluster membership: it implements serve.ClusterHook
// (request forwarding, stream proxying, fleet-wide swaps, stats) and
// serves the node-to-node /cluster/v1/* API. Create it with New, mount
// Handler alongside the serve mux, attach it with Server.AttachCluster,
// then Start it.
type Agent struct {
	cfg   Config
	fleet *serve.Fleet
	cat   *catalog

	view atomic.Pointer[routeView]
	// members is the coordinator's membership table (unused on followers).
	members *memberTable
	// coordAddr is the coordinator's address: this node's own on the
	// coordinator, the member that accepted the join on a follower.
	coordAddr atomic.Pointer[string]
	// epoch is the coordinator's table generation counter.
	epoch atomic.Uint64

	forwardsIn       atomic.Int64
	forwardsOut      atomic.Int64
	forwardFailovers atomic.Int64
	streamFailovers  atomic.Int64

	// installMu serialises install-on-demand so concurrent forwarded
	// requests for the same missing shard load it once.
	installMu sync.Mutex
	// rolloutMu serialises the coordinator's catalog writes — a swap's
	// version allocation and two-phase rollout, a join's model fold and
	// the boot seed — so no two writers take one catalog version.
	rolloutMu sync.Mutex

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds an agent over the node's local fleet. Call Start to join (or
// form) the cluster.
func New(cfg Config, fleet *serve.Fleet) (*Agent, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	a := &Agent{
		cfg:     cfg,
		fleet:   fleet,
		cat:     newCatalog(),
		members: newMemberTable(),
		stop:    make(chan struct{}),
	}
	coord := cfg.Join
	if cfg.Coordinator {
		coord = cfg.Advertise
	}
	a.coordAddr.Store(&coord)
	return a, nil
}

// NodeID returns the node's cluster identity.
func (a *Agent) NodeID() string { return a.cfg.NodeID }

// Role reports "coordinator" or "follower", fixed at boot.
func (a *Agent) Role() string {
	if a.cfg.Coordinator {
		return "coordinator"
	}
	return "follower"
}

// Start forms or joins the cluster and launches the run loop, which
// ticks once per heartbeat. A joining node retries until the join target
// answers, bounded by DeadAfter.
func (a *Agent) Start() error {
	if err := a.boot(); err != nil {
		return err
	}
	a.wg.Add(1)
	go a.run()
	return nil
}

// boot forms the cluster (coordinator) or joins it (follower).
func (a *Agent) boot() error {
	if !a.cfg.Coordinator {
		return a.join()
	}
	a.members.observe(a.cfg.NodeID, a.cfg.Advertise, a.cfg.now())
	a.seedCatalogFromFleet()
	a.publishTable()
	return nil
}

// run calls tick on the heartbeat cadence until Close.
func (a *Agent) run() {
	defer a.wg.Done()
	t := time.NewTicker(a.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
			a.tick(a.cfg.now())
		}
	}
}

// Close stops the background loops. It does not close the fleet.
func (a *Agent) Close() {
	a.stopOnce.Do(func() { close(a.stop) })
	a.wg.Wait()
}

// seedCatalogFromFleet folds the local fleet's models (loaded from disk
// at boot) into the catalog so any member can materialise them.
func (a *Agent) seedCatalogFromFleet() {
	a.rolloutMu.Lock()
	defer a.rolloutMu.Unlock()
	for _, m := range localModels(a.fleet) {
		if _, _, ok := a.cat.get(m.Name); ok {
			continue
		}
		v := a.cat.nextVersion(m.Name)
		a.cat.stage(m.Name, v, m.Data)
		a.cat.commit(m.Name, v)
	}
}

// localModels exports a fleet's loaded detectors as catalog payloads.
func localModels(f *serve.Fleet) []CatalogModel {
	var out []CatalogModel
	for _, name := range f.Names() {
		det, err := f.Detector(name)
		if err != nil {
			continue
		}
		var buf bytes.Buffer
		if err := det.Save(&buf); err != nil {
			continue
		}
		out = append(out, CatalogModel{Name: name, Version: 1, Data: buf.Bytes()})
	}
	return out
}

// publishTable recomputes the routing table from the member table and
// catalog and stores it as the node's view (coordinator only).
func (a *Agent) publishTable() {
	t := Table{
		Epoch:       a.epoch.Add(1),
		Coordinator: a.cfg.NodeID,
		Members:     a.members.snapshot(),
		Shards:      a.cat.names(),
	}
	a.view.Store(buildView(t))
}

// tick is one beat of the node's control loop. The coordinator sweeps
// membership, republishing the table whenever a member's state changes —
// that is the rebalance: a new table means a new alive set, and ownership
// follows the ring. A follower heartbeats the coordinator, adopting a
// fresher table from the response; while the coordinator is unreachable
// the beat fails and the follower serves on its last table.
func (a *Agent) tick(now time.Time) {
	if !a.cfg.Coordinator {
		a.heartbeat()
		return
	}
	// The coordinator is its own heartbeat: without this, the sweep would
	// expire the coordinator's own entry.
	changed := a.members.observe(a.cfg.NodeID, a.cfg.Advertise, now)
	if a.members.sweep(now, a.cfg.SuspectAfter, a.cfg.DeadAfter) || changed {
		a.publishTable()
		a.cfg.Logf("cluster: %s republished table epoch %d", a.cfg.NodeID, a.epoch.Load())
	}
}

// viewEpoch is the epoch of the node's current view (0 before any table).
func (a *Agent) viewEpoch() uint64 {
	if v := a.view.Load(); v != nil {
		return v.table.Epoch
	}
	return 0
}

// StatsFields implements serve.ClusterHook: the cluster identity keys
// /stats merges into its snapshot.
func (a *Agent) StatsFields() map[string]any {
	alive := 0
	if v := a.view.Load(); v != nil {
		alive = len(aliveMembers(v.table.Members))
	}
	return map[string]any{
		"node_id":       a.cfg.NodeID,
		"role":          a.Role(),
		"members_alive": alive,
		"forwards_in":   a.forwardsIn.Load(),
		"forwards_out":  a.forwardsOut.Load(),
	}
}

// Status is the body of GET /v1/cluster.
type Status struct {
	NodeID      string   `json:"node_id"`
	Role        string   `json:"role"`
	Coordinator string   `json:"coordinator"`
	Table       Table    `json:"table"`
	OwnedShards []string `json:"owned_shards"`
	ForwardsIn  int64    `json:"forwards_in"`
	ForwardsOut int64    `json:"forwards_out"`
	Failovers   int64    `json:"forward_failovers"`
}

// Status implements serve.ClusterHook.
func (a *Agent) Status() any {
	st := Status{
		NodeID:      a.cfg.NodeID,
		Role:        a.Role(),
		ForwardsIn:  a.forwardsIn.Load(),
		ForwardsOut: a.forwardsOut.Load(),
		Failovers:   a.forwardFailovers.Load() + a.streamFailovers.Load(),
	}
	if v := a.view.Load(); v != nil {
		st.Coordinator = v.table.Coordinator
		st.Table = v.table
		for _, s := range v.table.Shards {
			if v.owner(s) == a.cfg.NodeID {
				st.OwnedShards = append(st.OwnedShards, s)
			}
		}
	}
	return st
}

// errRedirect reports a request that must go to the coordinator instead.
type errRedirect struct{ coordinator string }

func (e *errRedirect) Error() string {
	return fmt.Sprintf("not the coordinator (try %s)", e.coordinator)
}

// ensureLocal guarantees the local fleet serves a shard, installing the
// committed catalog version on demand (fetching the payload from the
// coordinator when this node's catalog replica lacks it). It is the heal
// path that makes stale routing harmless: whoever receives a forwarded
// request can always serve it.
func (a *Agent) ensureLocal(shard string) error {
	if _, err := a.fleet.Detector(shard); err == nil {
		return nil
	}
	a.installMu.Lock()
	defer a.installMu.Unlock()
	if _, err := a.fleet.Detector(shard); err == nil {
		return nil // raced another install
	}
	_, data, ok := a.cat.get(shard)
	if !ok {
		m, err := a.fetchModel(shard)
		if err != nil {
			return fmt.Errorf("cluster: shard %q not in catalog: %w", shard, err)
		}
		a.cat.stage(m.Name, m.Version, m.Data)
		a.cat.commit(m.Name, m.Version)
		data = m.Data
	}
	if err := a.install(shard, data); err != nil {
		return err
	}
	a.cfg.Logf("cluster: %s installed shard %q on demand", a.cfg.NodeID, shard)
	return nil
}

// installCommitted applies a committed catalog version to the local fleet
// when this node serves the shard (it owns it, or already has it loaded —
// a commit must swap live copies everywhere, not only on the owner).
func (a *Agent) installCommitted(name string, data []byte) error {
	_, derr := a.fleet.Detector(name)
	loaded := derr == nil
	owns := false
	if v := a.view.Load(); v != nil {
		owns = v.owner(name) == a.cfg.NodeID
	}
	if !loaded && !owns {
		return nil // not serving this shard; the catalog replica suffices
	}
	return a.install(name, data)
}

// install decodes a committed catalog payload into the local fleet, which
// applies its prepare hook as it does on every install.
func (a *Agent) install(name string, data []byte) error {
	det, err := detector.Load(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("cluster: decoding shard %q: %w", name, err)
	}
	_, _, err = a.fleet.LoadOrSwap(name, det, "cluster")
	return err
}
