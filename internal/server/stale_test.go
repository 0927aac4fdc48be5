package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/score"
	"repro/internal/seio"
)

// The result cache must refuse inserts whose version is no longer the live
// store version: a solve that snapshotted version N and raced past the PATCH
// to N+1 would otherwise re-insert an entry the invalidation already swept.
func TestCachePutStaleDrop(t *testing.T) {
	cache := NewCache(8)
	var cur atomic.Uint64
	cur.Store(2)
	cache.SetCurrent(func(name string) (uint64, bool) {
		if name == "gone" {
			return 0, false
		}
		return cur.Load(), true
	})

	mk := func(name string, v uint64) cacheKey {
		return cacheKey{name: name, version: v, algorithm: "HOR-I", k: 3}
	}
	cache.Put(mk("x", 1), seio.SolveResponse{K: 1}) // stale: live is 2
	cache.Put(mk("x", 3), seio.SolveResponse{K: 3}) // stale: from the future
	cache.Put(mk("gone", 1), seio.SolveResponse{})  // deleted instance
	if n := cache.Len(); n != 0 {
		t.Fatalf("stale inserts cached %d entries", n)
	}
	cache.Put(mk("x", 2), seio.SolveResponse{K: 2}) // live: kept
	if _, ok := cache.Get(mk("x", 2)); !ok {
		t.Fatal("live-version insert was dropped")
	}
	if st := cache.Stats(); st.StaleDrops != 3 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 3 stale drops and 1 entry", st)
	}
}

// InvalidateInstance must remove exactly the named instance's entries (the
// per-name index) and leave every other instance warm.
func TestCacheInvalidateScoped(t *testing.T) {
	cache := NewCache(64)
	for i := 0; i < 4; i++ {
		for _, name := range []string{"a", "b", "c"} {
			cache.Put(cacheKey{name: name, version: 1, algorithm: "HOR", k: i}, seio.SolveResponse{K: i})
		}
	}
	if n := cache.InvalidateInstance("b"); n != 4 {
		t.Fatalf("invalidated %d entries of b, want 4", n)
	}
	if n := cache.Len(); n != 8 {
		t.Fatalf("cache holds %d entries after scoped invalidation, want 8", n)
	}
	for i := 0; i < 4; i++ {
		if _, ok := cache.Get(cacheKey{name: "a", version: 1, algorithm: "HOR", k: i}); !ok {
			t.Fatalf("entry of a lost to b's invalidation")
		}
		if _, ok := cache.Get(cacheKey{name: "b", version: 1, algorithm: "HOR", k: i}); ok {
			t.Fatalf("entry of b survived its invalidation")
		}
	}
	if n := cache.InvalidateInstance("b"); n != 0 {
		t.Fatalf("second invalidation removed %d", n)
	}
	// Eviction must also maintain the name index: filling a tiny cache and
	// invalidating must not panic or remove the wrong entries.
	small := NewCache(2)
	for i := 0; i < 5; i++ {
		small.Put(cacheKey{name: "x", version: 1, k: i}, seio.SolveResponse{})
	}
	if n := small.InvalidateInstance("x"); n != 2 {
		t.Fatalf("small cache invalidated %d, want 2", n)
	}
}

// Concurrent PATCH-style version bumps + invalidations against concurrent
// Puts of the version each writer last observed. Invariant at every quiet
// point: the cache only ever holds entries of the live version.
func TestCacheInvalidationRace(t *testing.T) {
	cache := NewCache(256)
	var cur atomic.Uint64
	cur.Store(1)
	cache.SetCurrent(func(string) (uint64, bool) { return cur.Load(), true })

	const writers = 4
	const rounds = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := cur.Load() // snapshot, may be stale by Put time
				key := cacheKey{name: "x", version: v, algorithm: "ALG", k: w*1000 + i%17}
				cache.Put(key, seio.SolveResponse{K: key.k})
				cache.Get(key)
			}
		}(w)
	}
	for r := 0; r < rounds; r++ {
		cur.Add(1) // publish the new version first, like Store.Mutate
		cache.InvalidateInstance("x")
	}
	close(stop)
	wg.Wait()

	// Everything still cached must be the final live version: any stale Put
	// either lost the version check or was swept by a later invalidation.
	final := cur.Load()
	cache.mu.Lock()
	for key := range cache.items {
		if key.version != final {
			cache.mu.Unlock()
			t.Fatalf("dead version %d squatting in cache (live %d)", key.version, final)
		}
	}
	if len(cache.items) != cache.ll.Len() {
		cache.mu.Unlock()
		t.Fatal("items index and list diverged")
	}
	for name, set := range cache.byName {
		for key := range set {
			if key.name != name {
				cache.mu.Unlock()
				t.Fatalf("byName[%q] holds key of %q", name, key.name)
			}
		}
	}
	cache.mu.Unlock()
	if cache.Stats().StaleDrops == 0 {
		t.Log("race produced no stale drops this run (timing-dependent)")
	}
}

// Invalidating one instance must not pay for the rest of the cache: the
// per-name index makes the 1-entry invalidation O(1) even with 100k
// bystander entries (the old implementation scanned the whole list under
// c.mu). Run with -bench InvalidateInstance.
func BenchmarkCacheInvalidateInstance(b *testing.B) {
	const bystanders = 100_000
	cache := NewCache(bystanders + 2)
	for i := 0; i < bystanders; i++ {
		cache.Put(cacheKey{name: fmt.Sprintf("other-%d", i%1000), version: 1, k: i}, seio.SolveResponse{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.Put(cacheKey{name: "hot", version: 1, k: 0}, seio.SolveResponse{})
		cache.InvalidateInstance("hot")
	}
}

// The engine cache must apply the same stale-insert rule: an engine built
// for a version that lost a race with a mutation is handed out privately and
// never cached.
func TestEngineCacheStaleDrop(t *testing.T) {
	inst := engineTestInstance(t)
	ec := newEngineCache(0, 4)
	defer ec.close()
	var cur atomic.Uint64
	cur.Store(1)
	ec.setCurrent(func(string) (uint64, bool) { return cur.Load(), true })

	en, rel, _, err := ec.acquire(engineKey{name: "a", version: 1}, inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if st := ec.stats(); st.Engines != 1 || st.StaleDrops != 0 {
		t.Fatalf("live acquire: %+v", st)
	}

	// The store moves on; an acquire still pinned to the dead version gets a
	// working private engine but must not (re-)enter the cache.
	cur.Store(2)
	ec.invalidate("a")
	en2, rel2, warm2, err := ec.acquire(engineKey{name: "a", version: 1}, inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if en2 == en {
		t.Fatal("dead engine resurrected")
	}
	if warm2 {
		t.Error("cold private build reported as reused")
	}
	s := core.NewSchedule(inst)
	_ = en2.Score(s, 0, 0)
	rel2()
	if st := ec.stats(); st.Engines != 0 || st.StaleDrops != 1 {
		t.Fatalf("stale acquire: %+v", st)
	}
}

// A miss for a newer version must warm-build from the newest older cached
// engine when the snapshot chain shows a small dirty set, drop the
// superseded source, and build cold when the chain shows most of the
// instance dirty or the instances are unrelated.
func TestEngineCacheWarmAcquire(t *testing.T) {
	v1 := engineTestInstance(t)
	ec := newEngineCache(0, 4)
	defer ec.close()
	acquire := func(ver uint64, inst *core.Instance) (*score.Engine, bool) {
		t.Helper()
		en, rel, warm, err := ec.acquire(engineKey{name: "a", version: ver}, inst, core.ScorerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rel()
		return en, warm
	}

	acquire(1, v1)
	v2 := v1.Snapshot()
	v2.SetInterest(0, 0, 0.5)
	en2, warm := acquire(2, v2)
	if !warm {
		t.Error("warm delta rebuild not reported as reused")
	}
	st := ec.stats()
	if st.WarmBuilds != 1 {
		t.Fatalf("acquire of the mutated version: %+v, want 1 warm build", st)
	}
	if st.Engines != 1 {
		t.Fatalf("warm source not superseded: %d engines cached", st.Engines)
	}
	if _, ok := ec.m[engineKey{name: "a", version: 1}]; ok {
		t.Fatal("superseded version-1 entry still mapped")
	}
	cold, err := score.New(v2, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	s := core.NewSchedule(v2)
	for e := 0; e < v2.NumEvents(); e++ {
		for ti := 0; ti < v2.NumIntervals(); ti++ {
			if w, c := en2.Score(s, e, ti), cold.Score(s, e, ti); w != c {
				t.Fatalf("Score(%d,%d): warm %x, cold %x", e, ti, w, c)
			}
		}
	}

	// A mutation touching most of the instance makes a warm rebuild
	// pointless: the next version builds cold and still supersedes.
	v3 := v2.Snapshot()
	for e := 0; e < v3.NumEvents(); e++ {
		v3.SetInterest(1, e, 0.5)
	}
	if _, warm := acquire(3, v3); warm {
		t.Error("too-dirty source warm-built")
	}
	if st := ec.stats(); st.WarmBuilds != 1 || st.Engines != 1 {
		t.Fatalf("after too-dirty acquire: %+v, want 1 warm build, 1 engine", st)
	}

	// An unrelated instance under the same name shares no column.
	if _, warm := acquire(4, engineTestInstance(t)); warm {
		t.Error("unrelated instance warm-built")
	}
}

// Hammer acquire / invalidate concurrently under -race while a mutator
// extends the snapshot chain. The cache must stay consistent (no panics,
// bounded size) and serve the final version bit-identically to a cold
// engine.
func TestEngineCacheRace(t *testing.T) {
	type version struct {
		v    uint64
		inst *core.Instance
	}
	ec := newEngineCache(0, 3)
	defer ec.close()
	var cur atomic.Pointer[version]
	cur.Store(&version{1, engineTestInstance(t)})
	ec.setCurrent(func(string) (uint64, bool) { return cur.Load().v, true })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c := cur.Load()
				en, rel, _, err := ec.acquire(engineKey{name: "a", version: c.v}, c.inst, core.ScorerOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				_ = en.Score(core.NewSchedule(c.inst), 0, 0)
				rel()
			}
		}()
	}
	for r := 0; r < 60; r++ {
		c := cur.Load()
		next := c.inst.Snapshot()
		next.SetInterest(r%next.NumUsers(), r%next.NumEvents(), 0.5)
		cur.Store(&version{c.v + 1, next})
		if r%10 == 9 {
			ec.invalidate("a")
		}
	}
	close(stop)
	wg.Wait()

	final := cur.Load()
	en, rel, _, err := ec.acquire(engineKey{name: "a", version: final.v}, final.inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	cold, err := score.New(final.inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	s := core.NewSchedule(final.inst)
	for e := 0; e < final.inst.NumEvents(); e++ {
		if w, c := en.Score(s, e, 0), cold.Score(s, e, 0); w != c {
			t.Fatalf("final Score(%d,0): cached %x, cold %x", e, w, c)
		}
	}
	if n := ec.stats().Engines; n > 3 {
		t.Fatalf("cache grew past capacity: %d", n)
	}
}

// Two mutations of one name whose post-mutation hooks run in reverse order
// (the hooks run after Store.Mutate releases the name lock, so nothing
// orders them) must still leave the next solve a warm build, bit-identical
// to a cold one.
func TestReorderedMutationHooksStayWarm(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1, Queue: 4})
	if _, _, err := srv.store.Put("x", engineTestInstance(t)); err != nil {
		t.Fatal(err)
	}
	inst, info, err := srv.store.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	_, rel, _, err := srv.engines.acquire(engineKey{name: "x", version: info.Version}, inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rel()

	for _, req := range []seio.MutateRequest{
		{Interest: []seio.CellUpdate{{User: 3, Index: 1, Value: 0.25}}},
		{Activity: []seio.CellUpdate{{User: 5, Index: 2, Value: 0.75}}},
	} {
		if _, err := srv.store.Mutate("x", req); err != nil {
			t.Fatal(err)
		}
	}
	// The hook of the second mutation lands first.
	srv.afterMutation("x")
	srv.afterMutation("x")

	inst, info, err = srv.store.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	en, rel, warm, err := srv.engines.acquire(engineKey{name: "x", version: info.Version}, inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if st := srv.engines.stats(); !warm || st.WarmBuilds != 1 {
		t.Fatalf("solve after reordered hooks: warm=%v, stats %+v; want a warm build", warm, st)
	}
	cold, err := score.New(inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	for _, name := range algo.Names() {
		run := func(en *score.Engine) *algo.Result {
			sched, err := algo.NewWithEngine(name, 3, en)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sched.ScheduleCtx(context.Background(), inst, 4)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		w, c := run(en), run(cold)
		if w.Utility != c.Utility || w.Counters != c.Counters {
			t.Errorf("%s: warm Ω=%v %+v, cold Ω=%v %+v", name, w.Utility, w.Counters, c.Utility, c.Counters)
		}
	}
}

// End-to-end PATCH vs solve race through the HTTP API: whatever interleaving
// happens, the result cache must never end up holding a dead version, and
// the engine cache keeps to its superseded-entry rule (see engineCache): at
// most the newest superseded engine per name and options stays cached, as
// the warm source, until an engine of the live version is cached.
func TestConcurrentMutateAndSolve(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 3, Queue: 64})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/fest", testInstanceJSON(t, 4, 60, 3), http.StatusCreated, nil)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var out seio.SolveResponse
				do(t, c, "POST", ts.URL+"/instances/fest/solve",
					jsonBody(t, seio.SolveRequest{Algorithm: "HOR-I", K: 2 + (g+i)%3}), http.StatusOK, &out)
			}
		}(g)
	}
	for i := 0; i < 25; i++ {
		do(t, c, "PATCH", ts.URL+"/instances/fest",
			jsonBody(t, seio.MutateRequest{Interest: []seio.CellUpdate{{User: i % 60, Index: i % 12, Value: 0.5}}}),
			http.StatusOK, nil)
	}
	close(stop)
	wg.Wait()

	_, info, err := srv.store.Get("fest")
	if err != nil {
		t.Fatal(err)
	}
	srv.cache.mu.Lock()
	for key := range srv.cache.items {
		if key.version != info.Version {
			srv.cache.mu.Unlock()
			t.Fatalf("result cache holds dead version %d (live %d)", key.version, info.Version)
		}
	}
	srv.cache.mu.Unlock()
	// superseded lists the cached engines of versions older than the live
	// one, per option fingerprint.
	superseded := func() map[uint64][]uint64 {
		srv.engines.mu.Lock()
		defer srv.engines.mu.Unlock()
		out := make(map[uint64][]uint64)
		for key := range srv.engines.m {
			if key.version > info.Version {
				t.Fatalf("engine cache holds version %d past the live %d", key.version, info.Version)
			}
			if key.version < info.Version {
				out[key.opts] = append(out[key.opts], key.version)
			}
		}
		return out
	}
	for opts, vs := range superseded() {
		if len(vs) > 1 {
			t.Fatalf("engine cache holds superseded versions %v for opts %x (live %d); at most one may stay as the warm source", vs, opts, info.Version)
		}
	}
	// A solve of the live version (k=5 misses the result cache) caches its
	// engine, which drops the superseded warm source.
	do(t, c, "POST", ts.URL+"/instances/fest/solve",
		jsonBody(t, seio.SolveRequest{Algorithm: "HOR-I", K: 5}), http.StatusOK, nil)
	if left := superseded(); len(left) > 0 {
		t.Fatalf("engine cache still holds superseded versions %v after a solve of live version %d", left, info.Version)
	}
}
