package cluster

import (
	"reflect"
	"testing"
	"time"
)

// The membership state machine is driven by a fake clock: observe and
// sweep take explicit times, so the alive -> suspect -> dead transitions
// are tested deterministically, with no sleeping.

const (
	tSuspect = 3 * time.Second
	tDead    = 6 * time.Second
)

func memberStates(t *memberTable) map[string]string {
	out := make(map[string]string)
	for _, m := range t.snapshot() {
		out[m.ID] = m.State
	}
	return out
}

func TestMembershipExpiry(t *testing.T) {
	mt := newMemberTable()
	t0 := time.Unix(1000, 0)

	if !mt.observe("n1", "http://a", t0) {
		t.Fatal("first observe must report a change")
	}
	if !mt.observe("n2", "http://b", t0) {
		t.Fatal("first observe must report a change")
	}
	if mt.observe("n1", "http://a", t0.Add(2*time.Second)) {
		t.Fatal("a fresh heartbeat from an alive member is not a routing change")
	}

	// Nothing has been silent long enough: sweep is a no-op.
	if mt.sweep(t0.Add(2*time.Second), tSuspect, tDead) {
		t.Fatal("sweep before SuspectAfter must not change state")
	}

	// n2 has been silent 4s (>= SuspectAfter), n1 only 2s thanks to its
	// later heartbeat. Suspect members keep their ring membership.
	if !mt.sweep(t0.Add(4*time.Second), tSuspect, tDead) {
		t.Fatal("sweep past SuspectAfter must report a change")
	}
	got := memberStates(mt)
	if got["n1"] != StateAlive || got["n2"] != StateSuspect {
		t.Fatalf("states after first sweep: %v", got)
	}
	if ids := aliveMembers(mt.snapshot()); !reflect.DeepEqual(ids, []string{"n1", "n2"}) {
		t.Fatalf("suspect members must keep shard eligibility, got %v", ids)
	}

	// A heartbeat revives the suspect.
	if !mt.observe("n2", "http://b", t0.Add(5*time.Second)) {
		t.Fatal("reviving a suspect is a routing change")
	}
	if memberStates(mt)["n2"] != StateAlive {
		t.Fatal("observe must revive a suspect to alive")
	}

	// Silence past DeadAfter: alive -> dead directly (the suspect phase
	// is skipped when the sweep cadence was slower than the decay).
	if !mt.sweep(t0.Add(20*time.Second), tSuspect, tDead) {
		t.Fatal("sweep past DeadAfter must report a change")
	}
	got = memberStates(mt)
	if got["n1"] != StateDead || got["n2"] != StateDead {
		t.Fatalf("states after long silence: %v", got)
	}
	if ids := aliveMembers(mt.snapshot()); len(ids) != 0 {
		t.Fatalf("dead members must leave the ring, got %v", ids)
	}

	// Dead entries are tombstones: a heartbeat resurrects them.
	if !mt.observe("n1", "http://a", t0.Add(21*time.Second)) {
		t.Fatal("resurrecting a dead member is a routing change")
	}
	if memberStates(mt)["n1"] != StateAlive {
		t.Fatal("observe must resurrect a dead member")
	}
	// ... and the resurrected entry does not immediately re-expire.
	if mt.sweep(t0.Add(22*time.Second), tSuspect, tDead) {
		t.Fatal("a just-resurrected member must not re-expire")
	}
}

func TestMembershipAddressChange(t *testing.T) {
	mt := newMemberTable()
	t0 := time.Unix(0, 0)
	mt.observe("n1", "http://old", t0)
	if !mt.observe("n1", "http://new", t0.Add(time.Second)) {
		t.Fatal("an address change is a routing change")
	}
	if ms := mt.snapshot(); ms[0].Addr != "http://new" {
		t.Fatalf("address not updated: %+v", ms[0])
	}
}
