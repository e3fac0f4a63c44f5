package serve

import (
	"fmt"
	"testing"

	"trusthmd/pkg/detector"
)

// The ring's own properties (determinism, spread, minimal remap) are
// pinned by pkg/cluster/ring's tests; the cases here pin what the fleet
// builds on top — that resolve keeps them across its own membership
// bookkeeping (sorted names, ring rebuilt on Load/Unload) — and the
// replica-index mapping.

// routedFleet loads one detector under each name, in the given order.
func routedFleet(t *testing.T, names ...string) *Fleet {
	t.Helper()
	d, _ := testDetector(t)
	f, err := NewFleet(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	for _, name := range names {
		if _, err := f.Load(name, d); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// shardFor resolves a device-only request to its shard name.
func shardFor(t *testing.T, f *Fleet, device string) string {
	t.Helper()
	g, err := f.resolve("", device)
	if err != nil {
		t.Fatal(err)
	}
	return g.name
}

func TestRingDeterministicAndOrderless(t *testing.T) {
	a := routedFleet(t, "alpha", "beta", "gamma")
	b := routedFleet(t, "gamma", "alpha", "beta")
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("device-%d", i)
		if shardFor(t, a, key) != shardFor(t, b, key) {
			t.Fatalf("device routing depends on load order for %q", key)
		}
	}
	// An empty fleet has no ring: a device key resolves to an error, not a
	// nil dereference.
	empty, err := NewFleet(map[string]*detector.Detector{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	if _, err := empty.resolve("", "x"); err == nil {
		t.Fatal("empty fleet resolved a device")
	}
}

func TestRingSpreadsDevices(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	f := routedFleet(t, names...)
	counts := map[string]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		counts[shardFor(t, f, fmt.Sprintf("device-%d", i))]++
	}
	for _, name := range names {
		share := float64(counts[name]) / n
		// With 128 virtual nodes per shard the split stays near 1/4; a
		// shard starved below 10% or hogging above 50% means the ring is
		// broken, not merely unlucky.
		if share < 0.10 || share > 0.50 {
			t.Fatalf("shard %s serves %.1f%% of devices: %v", name, 100*share, counts)
		}
	}
}

// TestRingMinimalRemapping: when a shard is unloaded only its devices
// remap — everyone else keeps their shard (and therefore their warm
// caches) — and reloading it hands exactly those devices back.
func TestRingMinimalRemapping(t *testing.T) {
	f := routedFleet(t, "a", "b", "c", "d")
	const n = 4000
	before := make([]string, n)
	for i := range before {
		before[i] = shardFor(t, f, fmt.Sprintf("device-%d", i))
	}
	if err := f.Unload("d"); err != nil {
		t.Fatal(err)
	}
	for i, was := range before {
		is := shardFor(t, f, fmt.Sprintf("device-%d", i))
		if was == "d" {
			if is == "d" {
				t.Fatalf("device-%d still routes to the unloaded shard", i)
			}
			continue // had to move
		}
		if was != is {
			t.Fatalf("device-%d moved between surviving shards (%s -> %s)", i, was, is)
		}
	}
	d, _ := testDetector(t)
	if _, err := f.Load("d", d); err != nil {
		t.Fatal(err)
	}
	for i, was := range before {
		if is := shardFor(t, f, fmt.Sprintf("device-%d", i)); is != was {
			t.Fatalf("device-%d did not return to its shard after reload (%s -> %s)", i, was, is)
		}
	}
}

// TestReplicaRingMinimalRemap is minimal remapping one level down, as a
// sweep over group sizes: growing a replica group from n to n+1 must send
// devices ONLY to the new replica (survivors keep their home slot and
// their warm caches), and shrinking back must remap only the removed
// replica's devices.
func TestReplicaRingMinimalRemap(t *testing.T) {
	const devices = 2000
	for n := 2; n <= 8; n++ {
		small := newReplicaRing(n)
		big := newReplicaRing(n + 1)
		gained, moved := 0, 0
		for i := 0; i < devices; i++ {
			key := fmt.Sprintf("device-%d", i)
			was, is := replicaIndex(small, key), replicaIndex(big, key)
			if is == n {
				gained++ // picked up by the added replica — the only legal move
				continue
			}
			if was != is {
				moved++
			}
		}
		if moved != 0 {
			t.Fatalf("grow %d->%d: %d devices moved between surviving replicas", n, n+1, moved)
		}
		if gained == 0 {
			t.Fatalf("grow %d->%d: the new replica picked up no devices", n, n+1)
		}
		// Shrink is the same comparison read backwards: devices homed on the
		// removed replica must land elsewhere, everyone else must stay put.
		for i := 0; i < devices; i++ {
			key := fmt.Sprintf("device-%d", i)
			was, is := replicaIndex(big, key), replicaIndex(small, key)
			if was == n {
				if is == n {
					t.Fatalf("shrink %d->%d: device %q still routes to the removed replica", n+1, n, key)
				}
				continue
			}
			if was != is {
				t.Fatalf("shrink %d->%d: device %q moved between surviving replicas (%d -> %d)", n+1, n, key, was, is)
			}
		}
	}
}

// TestReplicaRingSpreads: every replica in a group takes a meaningful
// share of the device space (no starved slot, no hog).
func TestReplicaRingSpreads(t *testing.T) {
	const n = 3
	r := newReplicaRing(n)
	counts := make([]int, n)
	const devices = 3000
	for i := 0; i < devices; i++ {
		counts[replicaIndex(r, fmt.Sprintf("device-%d", i))]++
	}
	for idx, c := range counts {
		share := float64(c) / devices
		if share < 0.10 || share > 0.60 {
			t.Fatalf("replica %d homes %.1f%% of devices: %v", idx, 100*share, counts)
		}
	}
	if newReplicaRing(1) != nil {
		t.Fatal("single-replica group should have a nil ring")
	}
	if replicaIndex(nil, "x") != 0 {
		t.Fatal("nil ring must home everything on replica 0")
	}
}
