package server

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/score"
)

// engineKey identifies one scoring engine: an instance version with one set
// of scorer extensions. Every solve, extend and sweep cell of the same
// version (and the same weights/costs fingerprint) shares one engine, so the
// O(|U|·|C|) competition-row precompute and the engine's worker set are paid
// once per version instead of once per request.
type engineKey struct {
	name    string
	version uint64
	opts    uint64
}

// engineEntry is one cached engine with a refcount. Eviction (or cache close)
// marks the entry dead; the engine's workers are released when the last
// in-flight user drops its reference.
//
// A live entry is also a WARM SOURCE for later versions of its name: a miss
// for a newer version diffs the two versions' snapshots (core.SnapshotDelta)
// and rebuilds from the entry via score.NewFromPrevious — only the dirty
// accumulators, carrying the clean empty-schedule grid across.
type engineEntry struct {
	key  engineKey
	en   *score.Engine
	refs int
	dead bool
	used int64 // LRU tick of the last acquire
}

// engineCache is a small refcounted LRU of scoring engines. Engines hold
// worker goroutines and O(|T|·|U|) precompute, so the cache is bounded like
// the result cache but must not close an engine somebody is mid-solve on —
// hence refcounts instead of the result cache's value semantics.
//
// Superseded entries. A mutation does not touch the cache: the engine of
// the version it superseded stays cached as the warm source for the next
// version. An engine is cached only while its version is live, and caching
// one drops the newest older entry of its name and options (the source it
// was built from, or would have been). So per name and options at most one
// superseded entry is cached, the newest, and none once an engine of the
// live version is cached. LRU pressure and invalidate may drop it sooner.
type engineCache struct {
	workers  int
	capacity int
	// sink, when set (by the server before traffic), is attached to every
	// engine this cache builds so batched scoring reports into the shared
	// score metrics. Nil leaves engines uninstrumented.
	sink *score.Sink

	mu     sync.Mutex
	m      map[engineKey]*engineEntry
	tick   int64
	closed bool
	// current returns the live store version of a name (false = not live).
	// Consulted under mu before caching a freshly built engine: an insert
	// for a superseded version would squat in the LRU past the invalidation
	// that should have covered it, so it is handed out privately instead.
	current func(name string) (uint64, bool)

	hits       atomic.Int64
	misses     atomic.Int64
	warmBuilds atomic.Int64
	staleDrops atomic.Int64
}

func newEngineCache(workers, capacity int) *engineCache {
	if capacity < 1 {
		capacity = 1
	}
	return &engineCache{workers: workers, capacity: capacity, m: make(map[engineKey]*engineEntry)}
}

// setCurrent installs the live-version oracle consulted before caching a
// built engine. Install before traffic; nil disables the staleness guard.
func (ec *engineCache) setCurrent(fn func(name string) (uint64, bool)) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	ec.current = fn
}

// acquire returns the engine for the key, building it on a miss, plus a
// release func the caller must invoke exactly once when its run is done, and
// reused — true when the engine (or its precompute, via a warm delta
// rebuild) came from the cache rather than a cold build; the resolve metrics
// split warm/fallback on it. opts carries the request's extensions; the
// cache imposes its worker count.
//
// A miss prefers a WARM build from the newest older cached version of the
// same name and options: the dirty set is read off the two snapshots
// (core.SnapshotDelta) and the new engine is built via
// score.NewFromPrevious — reusing the clean precompute and empty-schedule
// grid, bit-identical to a cold build. A source with over half its events or
// intervals dirty builds cold instead, and so does any warm-path error.
// Either way the source, now superseded, is dropped once the new engine is
// cached.
func (ec *engineCache) acquire(key engineKey, inst *core.Instance, opts core.ScorerOptions) (en *score.Engine, release func(), reused bool, err error) {
	opts.Workers = ec.workers
	ec.mu.Lock()
	if e, ok := ec.m[key]; ok && !e.dead {
		e.refs++
		ec.tick++
		e.used = ec.tick
		ec.mu.Unlock()
		ec.hits.Add(1)
		return e.en, ec.releaseFunc(e), true, nil
	}
	closed := ec.closed
	// Scan for the warm source: the newest live entry of an older version
	// with the same name and option fingerprint. Pin it (refs) so eviction
	// cannot close it mid-build.
	var src *engineEntry
	if !closed {
		for _, e := range ec.m {
			if e.dead || e.key.name != key.name || e.key.opts != key.opts || e.key.version >= key.version {
				continue
			}
			if src == nil || e.key.version > src.key.version {
				src = e
			}
		}
		if src != nil {
			src.refs++
		}
	}
	ec.mu.Unlock()
	ec.misses.Add(1)

	// Build outside the lock: engine construction is O(|U|·|C|) and must not
	// stall acquires of other instances.
	warm := false
	if src != nil {
		if d := core.SnapshotDelta(src.en.Instance(), inst); !tooDirty(d, inst) {
			if en, err = score.NewFromPrevious(src.en, inst, opts, d); err == nil {
				warm = true
				ec.warmBuilds.Add(1)
			}
		}
	}
	releaseSrc := func() {}
	if src != nil {
		releaseSrc = ec.releaseFunc(src)
	}
	if en == nil {
		if en, err = score.New(inst, opts); err != nil {
			releaseSrc()
			return nil, nil, false, err
		}
	}
	en.SetSink(ec.sink)
	if closed {
		// Shutdown straggler: hand out a private engine, never cache it.
		releaseSrc()
		return en, en.Close, warm, nil
	}

	ec.mu.Lock()
	if ec.closed {
		// close() ran while we were building: do not insert into a cache
		// nobody will close again — hand the engine out privately.
		ec.mu.Unlock()
		releaseSrc()
		return en, en.Close, warm, nil
	}
	if e, ok := ec.m[key]; ok && !e.dead {
		// Another request built the same engine first; use the shared one.
		e.refs++
		ec.tick++
		e.used = ec.tick
		ec.mu.Unlock()
		en.Close()
		releaseSrc()
		return e.en, ec.releaseFunc(e), true, nil
	}
	if ec.current != nil {
		if v, live := ec.current(key.name); !live || v != key.version {
			// The version this engine was built for is no longer live: a
			// mutation (or delete) raced the build, and its invalidation
			// may already have swept the cache. Caching now would re-insert
			// a dead version; serve the caller privately instead.
			ec.staleDrops.Add(1)
			ec.mu.Unlock()
			releaseSrc()
			return en, en.Close, warm, nil
		}
	}
	ec.tick++
	e := &engineEntry{key: key, en: en, refs: 1, used: ec.tick}
	ec.m[key] = e
	if src != nil && !src.dead {
		// The fresh entry is the better warm source for every later
		// version; drop the source now instead of waiting for LRU
		// pressure. Its engine closes when the last holder (including our
		// pin) releases.
		delete(ec.m, src.key)
		src.dead = true
	}
	ec.evictLocked()
	ec.mu.Unlock()
	releaseSrc()
	return en, ec.releaseFunc(e), warm, nil
}

// tooDirty reports whether a warm rebuild would redo so much of the
// instance — over half its events or intervals — that it would approach
// cold cost while the carried grid pins memory.
func tooDirty(d core.ScorerDelta, inst *core.Instance) bool {
	return 2*len(d.Events) > inst.NumEvents() ||
		2*(len(d.CompIntervals)+len(d.ActIntervals)) > inst.NumIntervals()
}

// releaseFunc builds the idempotent reference drop for an entry.
func (ec *engineCache) releaseFunc(e *engineEntry) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			ec.mu.Lock()
			e.refs--
			stop := e.dead && e.refs == 0
			ec.mu.Unlock()
			if stop {
				e.en.Close()
			}
		})
	}
}

// evictLocked trims the cache to capacity, least-recently-acquired first.
// Busy engines are unmapped but keep running until their last user releases.
// Callers hold ec.mu.
func (ec *engineCache) evictLocked() {
	for len(ec.m) > ec.capacity {
		var victim engineKey
		var oldest int64
		found := false
		for k, e := range ec.m {
			if !found || e.used < oldest {
				victim, oldest, found = k, e.used, true
			}
		}
		e := ec.m[victim]
		delete(ec.m, victim)
		e.dead = true
		if e.refs == 0 {
			e.en.Close()
		}
	}
}

// invalidate drops every cached engine of the named instance (all versions
// and option fingerprints), e.g. when the instance is deleted. In-flight
// runs keep their engine until they release it.
func (ec *engineCache) invalidate(name string) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	for k, e := range ec.m {
		if k.name == name {
			delete(ec.m, k)
			e.dead = true
			if e.refs == 0 {
				e.en.Close()
			}
		}
	}
}

// close marks the cache closed and releases every idle engine. Engines still
// referenced stop when their runs release them; later acquires get private,
// uncached engines.
func (ec *engineCache) close() {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	ec.closed = true
	for k, e := range ec.m {
		delete(ec.m, k)
		e.dead = true
		if e.refs == 0 {
			e.en.Close()
		}
	}
}

// EngineCacheStats is the /stats view of the engine cache.
type EngineCacheStats struct {
	// Workers is the per-engine worker count (sesd -parallel; 1 = sequential
	// scoring).
	Workers int `json:"workers"`
	// Engines is the number of currently cached engines.
	Engines int `json:"engines"`
	// Hits and Misses count acquire outcomes; a high hit rate means solves
	// are reusing the per-version precompute and worker sets.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// WarmBuilds counts misses answered by a delta-aware rebuild from an
	// older cached version instead of a cold O(|U|·|C|) precompute.
	WarmBuilds int64 `json:"warm_builds,omitempty"`
	// StaleDrops counts built engines served privately because their
	// version lost a race with a mutation or deletion.
	StaleDrops int64 `json:"stale_drops,omitempty"`
}

// len reports the number of currently cached engines (for the metrics gauge).
func (ec *engineCache) len() int {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return len(ec.m)
}

// stats samples the cache counters.
func (ec *engineCache) stats() EngineCacheStats {
	ec.mu.Lock()
	n := len(ec.m)
	workers := ec.workers
	ec.mu.Unlock()
	if workers < 1 {
		workers = 1
	}
	return EngineCacheStats{
		Workers:    workers,
		Engines:    n,
		Hits:       ec.hits.Load(),
		Misses:     ec.misses.Load(),
		WarmBuilds: ec.warmBuilds.Load(),
		StaleDrops: ec.staleDrops.Load(),
	}
}
