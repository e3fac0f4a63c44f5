package cluster

import (
	"bytes"
	"reflect"
	"testing"
)

func TestCatalogStageCommit(t *testing.T) {
	c := newCatalog()

	if _, _, ok := c.get("m"); ok {
		t.Fatal("empty catalog must not report a committed version")
	}
	if v := c.nextVersion("m"); v != 1 {
		t.Fatalf("first version of a new name: got %d want 1", v)
	}

	// Commit of an unstaged version must fail — the two-phase protocol
	// depends on commit being able to detect a missing stage.
	if _, ok := c.commit("m", 1); ok {
		t.Fatal("committing an unstaged version must fail")
	}

	c.stage("m", 1, []byte("v1"))
	if _, _, ok := c.get("m"); ok {
		t.Fatal("staged-but-uncommitted must not be visible")
	}
	data, ok := c.commit("m", 1)
	if !ok || !bytes.Equal(data, []byte("v1")) {
		t.Fatalf("commit v1: ok=%v data=%q", ok, data)
	}
	if v, data, ok := c.get("m"); !ok || v != 1 || !bytes.Equal(data, []byte("v1")) {
		t.Fatalf("get after commit: v=%d data=%q ok=%v", v, data, ok)
	}
	// Commits are idempotent (the retry path of a partial phase-2 failure).
	if _, ok := c.commit("m", 1); !ok {
		t.Fatal("re-committing the committed version must succeed")
	}

	if v := c.nextVersion("m"); v != 2 {
		t.Fatalf("next version after v1: got %d want 2", v)
	}
	c.stage("m", 2, []byte("v2"))
	if _, ok := c.commit("m", 2); !ok {
		t.Fatal("commit v2 failed")
	}
	// Roll back to v1: the previous payload must still be retained.
	data, ok = c.commit("m", 1)
	if !ok || !bytes.Equal(data, []byte("v1")) {
		t.Fatalf("rollback commit v1: ok=%v data=%q", ok, data)
	}
	if v, _, _ := c.get("m"); v != 1 {
		t.Fatalf("committed version after rollback: got %d want 1", v)
	}
}

// TestCatalogCommitZero: version 0 reverts a name to uncommitted — the
// rollback target when a brand-new name fails mid-rollout.
func TestCatalogCommitZero(t *testing.T) {
	c := newCatalog()
	c.stage("m", 1, []byte("v1"))
	c.commit("m", 1)
	if _, ok := c.commit("m", 0); !ok {
		t.Fatal("commit 0 must succeed")
	}
	if _, _, ok := c.get("m"); ok {
		t.Fatal("commit 0 must revert the name to uncommitted")
	}
	if got := c.names(); len(got) != 0 {
		t.Fatalf("uncommitted names must not be shards, got %v", got)
	}
	// Commit 0 of an unknown name is a no-op, not an error.
	if _, ok := c.commit("ghost", 0); !ok {
		t.Fatal("commit 0 of an unknown name must be ok")
	}
}

func TestCatalogAbort(t *testing.T) {
	c := newCatalog()
	c.stage("m", 1, []byte("v1"))
	c.commit("m", 1)
	c.stage("m", 2, []byte("v2"))
	c.abort("m", 2)
	if _, ok := c.commit("m", 2); ok {
		t.Fatal("an aborted stage must not be committable")
	}
	// Abort must never touch the committed version.
	c.abort("m", 1)
	if v, _, ok := c.get("m"); !ok || v != 1 {
		t.Fatalf("abort clobbered the committed version: v=%d ok=%v", v, ok)
	}
}

// TestCatalogPrune: payload retention is bounded, but the committed
// version and its rollback target always survive.
func TestCatalogPrune(t *testing.T) {
	c := newCatalog()
	for v := uint64(1); v <= 10; v++ {
		c.stage("m", v, []byte{byte(v)})
		c.commit("m", v)
	}
	e := c.entries["m"]
	if len(e.versions) > keepVersions {
		t.Fatalf("retained %d payloads, cap is %d", len(e.versions), keepVersions)
	}
	if _, ok := e.versions[10]; !ok {
		t.Fatal("committed payload pruned")
	}
	if _, ok := e.versions[9]; !ok {
		t.Fatal("rollback payload pruned")
	}
}

func TestCatalogNamesAndExport(t *testing.T) {
	c := newCatalog()
	c.stage("b", 1, []byte("b1"))
	c.commit("b", 1)
	c.stage("a", 1, []byte("a1"))
	c.commit("a", 1)
	c.stage("z", 1, []byte("z1")) // staged only: not a shard

	if got := c.names(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("names: %v", got)
	}
	models := c.committedModels()
	if len(models) != 2 || models[0].Name != "a" || models[1].Name != "b" {
		t.Fatalf("committedModels: %+v", models)
	}
	if !bytes.Equal(models[0].Data, []byte("a1")) {
		t.Fatalf("exported payload: %q", models[0].Data)
	}
}
