package serve

import (
	"strconv"

	"trusthmd/pkg/cluster/ring"
)

// Consistent-hash routing: requests that carry a device key instead of an
// explicit model name are mapped onto the fleet's shards through a
// ring.Ring (Fleet.ring), so a given device always lands on the same shard
// while the fleet membership is stable, and loading or unloading a shard
// only remaps the ~1/n of devices nearest to it on the ring — the rest
// keep their shard (and therefore their warm result-cache entries).
//
// Within a replica group the same ring shape maps a device key onto a
// *home* replica (group.ring), so a device keeps hitting the same
// coalescer and result cache while the group size is stable. The ring
// members are the replica indices themselves — affinity depends only on
// the group size, so a hot swap (same size, fresh replicas) preserves
// every device's home slot.

// newReplicaRing constructs the within-group ring for n replicas.
// Returns nil for n < 2: a single replica needs no ring.
func newReplicaRing(n int) *ring.Ring {
	if n < 2 {
		return nil
	}
	labels := make([]string, n)
	for i := range labels {
		labels[i] = strconv.Itoa(i)
	}
	return ring.New(labels, 0)
}

// replicaIndex maps a device key onto a replica index. A nil ring (one
// replica) always answers 0.
func replicaIndex(r *ring.Ring, device string) int {
	// The labels are strconv.Itoa output, so Atoi fails only on the nil
	// ring's "" — which homes everything on replica 0.
	idx, _ := strconv.Atoi(r.Lookup(device))
	return idx
}
