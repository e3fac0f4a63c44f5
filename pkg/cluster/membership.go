// Package cluster is the multi-node fleet control plane: it turns N
// trusthmdd daemons into one fleet. The coordinator — the node booted
// with Config.Coordinator, for the cluster's lifetime — tracks node
// membership via heartbeats, owns the cluster-wide consistent-hash
// placement of shards onto nodes, pushes admin hot swaps fleet-wide with a
// two-phase stage/commit protocol, and rebalances ownership when a node
// joins or dies. Every node runs the same Agent; the coordinator is the
// one whose membership table is authoritative.
//
// The design is deliberately crash-stop and single-coordinator: there is
// no quorum, no log, no election — the supervisory pattern of a DAQ
// control unit over many identical acquisition nodes, not a consensus
// database. No follower ever takes the role, so a partition cannot leave
// two coordinators. While the coordinator is unreachable, followers keep
// serving on their last table (forwards and streams fall over to ring
// successors), and swaps, joins and membership changes wait for it.
// Placement disagreements during convergence are
// harmless: a forwarded request is always served where it lands (loop
// guard + install-on-demand from the replicated model catalog), so a
// stale routing table costs an extra hop, never a wrong or lost answer.
package cluster

import (
	"sort"
	"sync"
	"time"
)

// Member states: a member is alive while its heartbeats arrive, suspect
// once SuspectAfter has passed without one, and dead after DeadAfter.
// Suspect members keep their shard ownership (a suspicion is usually a
// scheduling hiccup, and moving shards is the expensive reaction); dead
// members leave the ring, which remaps only the arc of shards they owned.
const (
	StateAlive   = "alive"
	StateSuspect = "suspect"
	StateDead    = "dead"
)

// Member is one node's entry in the membership table.
type Member struct {
	ID    string `json:"id"`
	Addr  string `json:"addr"`
	State string `json:"state"`
}

// Table is the cluster's routing state, computed by the coordinator and
// pulled by followers through heartbeat responses. Shard placement is not
// stored — it is the consistent hash of Shards over the alive member IDs,
// so every node with the same table computes the same owners.
type Table struct {
	// Epoch increments on every membership or shard-set change; followers
	// compare epochs to know when to refresh.
	Epoch uint64 `json:"epoch"`
	// Coordinator is the node ID the table came from.
	Coordinator string   `json:"coordinator"`
	Members     []Member `json:"members"`
	// Shards is the sorted cluster-wide shard (model) name set.
	Shards []string `json:"shards"`
}

// memberEntry is the coordinator's bookkeeping for one node.
type memberEntry struct {
	id       string
	addr     string
	state    string
	lastSeen time.Time
}

// memberTable is the coordinator-side membership state machine. It is
// driven by two inputs — observe (a heartbeat or join arrived) and sweep
// (time passed) — and reports whether the routing-relevant state changed
// so the caller knows to bump the table epoch. A fake clock drives it in
// tests; production passes time.Now.
type memberTable struct {
	mu      sync.Mutex
	members map[string]*memberEntry
}

func newMemberTable() *memberTable {
	return &memberTable{members: make(map[string]*memberEntry)}
}

// observe records a sign of life from a node (join or heartbeat),
// creating or reviving its entry. It returns true when the routing state
// changed: a new member, an address change, or a suspect/dead member
// coming back alive.
func (t *memberTable) observe(id, addr string, now time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.members[id]
	if !ok {
		t.members[id] = &memberEntry{id: id, addr: addr, state: StateAlive, lastSeen: now}
		return true
	}
	changed := e.state != StateAlive || e.addr != addr
	e.addr = addr
	e.state = StateAlive
	e.lastSeen = now
	return changed
}

// sweep advances the expiry state machine: alive -> suspect after
// suspectAfter without a heartbeat, suspect -> dead after deadAfter. It
// returns true when any member's state changed. Dead members stay listed
// (their entry is the tombstone that lets a heartbeat revive them); only
// their ring membership is gone.
func (t *memberTable) sweep(now time.Time, suspectAfter, deadAfter time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	changed := false
	for _, e := range t.members {
		silent := now.Sub(e.lastSeen)
		next := e.state
		switch {
		case silent >= deadAfter:
			next = StateDead
		case silent >= suspectAfter && e.state == StateAlive:
			next = StateSuspect
		}
		if next != e.state {
			e.state = next
			changed = true
		}
	}
	return changed
}

// snapshot returns the members sorted by ID.
func (t *memberTable) snapshot() []Member {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Member, 0, len(t.members))
	for _, e := range t.members {
		out = append(out, Member{ID: e.id, Addr: e.addr, State: e.state})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// aliveMembers extracts the IDs eligible for shard ownership from a
// member list: alive and suspect nodes (suspicion does not move shards).
func aliveMembers(members []Member) []string {
	out := make([]string, 0, len(members))
	for _, m := range members {
		if m.State != StateDead {
			out = append(out, m.ID)
		}
	}
	return out
}
