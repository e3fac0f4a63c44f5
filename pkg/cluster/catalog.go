package cluster

import (
	"sort"
	"sync"
)

// catalog is one node's replica of the cluster model catalog: for each
// shard name, the gob-encoded model bytes by catalog version and which
// version is committed. The coordinator's catalog is the source of truth;
// stage/commit requests replicate entries onto every member during a
// fleet-wide swap, the join response seeds a new member, and ensureLocal
// fetches missing entries on demand — so any node can materialise any
// committed shard without touching the node the model was uploaded to.
//
// Catalog versions are a distribution sequence per name, independent of
// each local fleet's own version counter (which increments per install on
// that node).
type catalog struct {
	mu      sync.Mutex
	entries map[string]*catEntry
}

// keepVersions bounds how many version payloads a name retains: the
// committed one, its predecessor (the rollback target of a failed
// two-phase commit), and one staged candidate.
const keepVersions = 3

type catEntry struct {
	versions  map[uint64][]byte
	committed uint64 // 0 = nothing committed
	prev      uint64 // previously committed version, rollback target
}

// CatalogModel is the wire form of one catalog entry (join responses and
// on-demand fetches carry the bytes; status listings zero them out).
type CatalogModel struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	Data    []byte `json:"data,omitempty"`
}

func newCatalog() *catalog {
	return &catalog{entries: make(map[string]*catEntry)}
}

func (c *catalog) entry(name string) *catEntry {
	e, ok := c.entries[name]
	if !ok {
		e = &catEntry{versions: make(map[uint64][]byte)}
		c.entries[name] = e
	}
	return e
}

// stage stores a version's payload without committing it.
func (c *catalog) stage(name string, version uint64, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entry(name)
	e.versions[version] = data
	c.pruneLocked(e)
}

// abort drops a staged (uncommitted) version.
func (c *catalog) abort(name string, version uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok || version == e.committed {
		return
	}
	delete(e.versions, version)
}

// commit makes a staged version the committed one; ok is false when the
// payload is unknown. Committing the already-committed version is a no-op
// (commits are idempotent — the retry after a partial failure depends on
// it). Version 0 reverts the name to uncommitted: the rollback target for
// a name that had no prior version.
func (c *catalog) commit(name string, version uint64) (data []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, found := c.entries[name]
	if version == 0 {
		if found {
			e.prev, e.committed = e.committed, 0
		}
		return nil, true
	}
	if !found {
		return nil, false
	}
	data, ok = e.versions[version]
	if !ok {
		return nil, false
	}
	if e.committed != version {
		e.prev, e.committed = e.committed, version
	}
	c.pruneLocked(e)
	return data, true
}

// committed returns the committed payload for a name.
func (c *catalog) get(name string) (version uint64, data []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, found := c.entries[name]
	if !found || e.committed == 0 {
		return 0, nil, false
	}
	return e.committed, e.versions[e.committed], true
}

// nextVersion allocates the next catalog version for a name.
func (c *catalog) nextVersion(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entry(name)
	max := e.committed
	for v := range e.versions {
		if v > max {
			max = v
		}
	}
	return max + 1
}

// names lists every name with a committed version, sorted — the cluster's
// shard set.
func (c *catalog) names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.entries))
	for name, e := range c.entries {
		if e.committed != 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// committedModels exports every committed entry with its payload — the
// join response that seeds a new member's catalog.
func (c *catalog) committedModels() []CatalogModel {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CatalogModel, 0, len(c.entries))
	for name, e := range c.entries {
		if e.committed == 0 {
			continue
		}
		out = append(out, CatalogModel{Name: name, Version: e.committed, Data: e.versions[e.committed]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// pruneLocked drops surplus version payloads, never the committed one or
// its rollback target.
func (c *catalog) pruneLocked(e *catEntry) {
	if len(e.versions) <= keepVersions {
		return
	}
	vs := make([]uint64, 0, len(e.versions))
	for v := range e.versions {
		if v != e.committed && v != e.prev {
			vs = append(vs, v)
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	for _, v := range vs {
		if len(e.versions) <= keepVersions {
			break
		}
		delete(e.versions, v)
	}
}
