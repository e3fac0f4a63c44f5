package serve

import (
	"strconv"

	"trusthmd/pkg/cluster/ring"
)

// Consistent-hash routing: requests that carry a device key instead of an
// explicit model name are mapped onto the fleet's shards through a hash
// ring, so a given device always lands on the same shard while the fleet
// membership is stable, and loading or unloading a shard only remaps the
// ~1/n of devices nearest to it on the ring — the rest keep their shard
// (and therefore their warm result-cache entries).
//
// The ring itself lives in pkg/cluster/ring — one tested implementation
// shared by all three routing levels (device→shard and device→replica
// here, shard→node in pkg/cluster); this file is the serve-layer alias
// over it.

// ringReplicas is the number of virtual nodes per shard.
const ringReplicas = ring.DefaultVNodes

// hashRing is the serve-layer view of one consistent-hash ring: the same
// immutable snapshot semantics, with the replica-index convenience lookup
// layered on top.
type hashRing struct {
	r *ring.Ring
}

// buildRing constructs the ring for the given shard names (order does not
// matter). Returns nil for an empty fleet.
func buildRing(names []string) *hashRing {
	r := ring.New(names, ringReplicas)
	if r == nil {
		return nil
	}
	return &hashRing{r: r}
}

// lookup maps a device key to its shard: the first virtual node at or
// clockwise after the key's hash, wrapping around the ring.
func (h *hashRing) lookup(device string) string {
	if h == nil {
		return ""
	}
	return h.r.Lookup(device)
}

// Replica routing: within a replica group the same consistent-hash shape
// maps a device key onto a *home* replica, so a device keeps hitting the
// same coalescer and result cache while the group size is stable, and
// resizing a group only remaps the ~1/n of devices nearest the changed
// replica. The ring members are the replica indices themselves — affinity
// depends only on the group size, so a hot swap (same size, fresh
// replicas) preserves every device's home slot.

// buildReplicaRing constructs the within-group ring for n replicas.
// Returns nil for n < 2: a single replica needs no ring.
func buildReplicaRing(n int) *hashRing {
	if n < 2 {
		return nil
	}
	labels := make([]string, n)
	for i := range labels {
		labels[i] = strconv.Itoa(i)
	}
	return buildRing(labels)
}

// lookupReplica maps a device key onto a replica index. A nil ring (one
// replica) always answers 0.
func (h *hashRing) lookupReplica(device string) int {
	label := h.lookup(device)
	if label == "" {
		return 0
	}
	idx, err := strconv.Atoi(label)
	if err != nil {
		return 0 // unreachable: labels are built from strconv.Itoa
	}
	return idx
}
