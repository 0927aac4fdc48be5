package algo

import (
	"context"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/score"
)

// HORI is the Horizontal Assignment with Incremental Updating algorithm
// HOR-I (Section 3.4, Algorithm 3). It keeps HOR's layer-at-a-time
// horizontal selection policy but replaces HOR's full per-layer score
// recomputation with a per-interval incremental pass guarded by a
// per-interval bound Φ: iterating an interval's list in descending stored
// score, each stale entry is recomputed only while its stored score (an
// upper bound) reaches the running Φ; once one entry falls below Φ, every
// later entry must too, and the interval's true top is already known.
//
// HOR-I returns exactly HOR's schedule (Proposition 6) and is identical to
// HOR when k ≤ |T| (a single layer needs no updates).
type HORI struct {
	// Opts enables the Section 2.1 problem extensions.
	Opts core.ScorerOptions
	// Engine, when set, is the shared scoring engine to use; otherwise a
	// private engine is built from Opts for the run.
	Engine *score.Engine
}

// Name implements Scheduler.
func (HORI) Name() string { return "HOR-I" }

type horiState struct {
	inst  *core.Instance
	en    *score.Engine
	s     *core.Schedule
	lists [][]item
	// dirty[t] marks interval t as possibly holding stale entries;
	// clean intervals are skipped by the per-layer update sweep.
	dirty []bool
	g     *guard
	c     Counters
}

// Schedule implements Scheduler.
func (a HORI) Schedule(inst *core.Instance, k int) (*Result, error) {
	return a.ScheduleCtx(context.Background(), inst, k)
}

// ScheduleCtx implements Scheduler.
func (a HORI) ScheduleCtx(ctx context.Context, inst *core.Instance, k int) (*Result, error) {
	if k <= 0 {
		return nil, ErrBadK
	}
	g := newGuard(ctx, k)
	if err := g.point(); err != nil {
		return nil, err
	}
	start := time.Now()
	en, release, err := engineFor(a.Engine, inst, a.Opts)
	if err != nil {
		return nil, err
	}
	defer release()
	st := &horiState{
		inst:  inst,
		en:    en,
		s:     core.NewSchedule(inst),
		lists: make([][]item, inst.NumIntervals()),
		dirty: make([]bool, inst.NumIntervals()),
		g:     g,
	}
	nE, nT := inst.NumEvents(), inst.NumIntervals()

	// First layer: generate and score everything, like HOR
	// (Algorithm 3, lines 3-7) — the full frontier in one batch fan-out.
	f := newFrontier(nE, nT)
	if err := f.score(g, en, st.s, 0, nT, st.s.Valid, &st.c); err != nil {
		return nil, err
	}
	for t := 0; t < nT; t++ {
		st.lists[t] = f.list(t, nil)
	}
	for st.s.Len() < k {
		made, err := st.selectLayer(k)
		if err != nil {
			return nil, err
		}
		if made == 0 {
			break
		}
		if st.s.Len() >= k {
			break
		}
		// Next layer: incremental per-interval updates
		// (Algorithm 3, lines 8-20). Intervals with no stale entries
		// are skipped outright.
		for t := 0; t < nT; t++ {
			if st.dirty[t] {
				if err := st.updateIntervalPass(t); err != nil {
					return nil, err
				}
			}
		}
	}
	return finish(st.en, st.s, st.c, start), nil
}

// markStale flags every entry of interval t's list stale; called when t
// receives an assignment and its denominators change.
func (st *horiState) markStale(t int) {
	for i := range st.lists[t] {
		st.lists[t][i].updated = false
	}
	st.dirty[t] = len(st.lists[t]) > 0
}

// updateIntervalPass runs the incremental update of one interval
// (Algorithm 3, lines 10-19): iterate the list in stored-score order,
// pruning invalid entries; recompute stale entries while their stored score
// reaches the interval bound Φ; leave the rest stale (their true scores are
// below Φ). The list is re-sorted afterwards so its head is the interval's
// exact top. The pass polls the run's context between recomputations.
func (st *horiState) updateIntervalPass(t int) error {
	items := st.lists[t]
	out := items[:0]
	// The first valid stale entry must always update, so Φ starts below
	// any representable score (scores can be negative in the
	// profit-oriented variant).
	phi := math.Inf(-1)
	stopped := false
	staleLeft := false
	for idx, it := range items {
		if stopped {
			// Everything below the cutoff stays stale and untouched;
			// bulk-copy without examining.
			out = append(out, items[idx:]...)
			break
		}
		st.c.Examined++
		if !st.s.Valid(int(it.e), t) {
			continue // prune
		}
		if it.updated {
			out = append(out, it)
			continue
		}
		if it.score >= phi {
			// Each recomputation feeds Φ, which decides whether the next
			// entry is recomputed at all — a sequential dependency, so this
			// pass uses the engine's single-evaluation path (which still
			// shards the user pass itself on large instances).
			it.score = st.en.Score(st.s, int(it.e), t)
			it.updated = true
			st.c.ScoreEvals++
			if err := st.g.step(); err != nil {
				return err
			}
			if it.score > phi {
				phi = it.score
			}
			out = append(out, it)
			continue
		}
		// Stored score below Φ: this and all later entries keep their
		// stale upper bounds (Algorithm 3, line 17).
		out = append(out, it)
		stopped = true
		staleLeft = true
	}
	sortItems(out)
	st.lists[t] = out
	st.dirty[t] = staleLeft
	return nil
}

// selectLayer performs one horizontal selection layer over the persistent
// lists (Algorithm 3, lines 21-30). It mirrors HOR's layer loop with one
// extra rule: an interval's candidate may be consumed only if it is updated;
// when the interval's head is stale, the interval is incrementally updated
// first, which restores the exactness of its top and preserves the HOR
// equivalence. Returns the number of assignments made.
func (st *horiState) selectLayer(k int) (int, error) {
	nT := len(st.lists)
	done := make([]bool, nT) // interval already assigned this layer (or exhausted)
	made := 0
	for st.s.Len() < k {
		bestT := -1
		var bestIt item
		for t := 0; t < nT; t++ {
			if done[t] {
				continue
			}
			it, ok, err := st.head(t)
			if err != nil {
				return made, err
			}
			if !ok {
				done[t] = true
				continue
			}
			if bestT < 0 || betterFull(it.score, it.e, t, bestIt.score, bestIt.e, bestT) {
				bestT, bestIt = t, it
			}
		}
		if bestT < 0 {
			break
		}
		st.c.Examined++
		if err := st.s.Assign(int(bestIt.e), bestT); err != nil {
			panic("algo: HOR-I layer assignment failed: " + err.Error())
		}
		st.markStale(bestT)
		done[bestT] = true
		made++
		if err := st.g.selected(st.s.Len()); err != nil {
			return made, err
		}
	}
	return made, nil
}

// head returns interval t's exact top candidate: the first list entry after
// pruning invalid ones, incrementally updating the interval when the head is
// stale. ok is false when the interval has no valid entries left.
func (st *horiState) head(t int) (it item, ok bool, err error) {
	for {
		items := st.lists[t]
		// Prune invalid entries off the head.
		i := 0
		for i < len(items) {
			st.c.Examined++
			if st.s.Valid(int(items[i].e), t) {
				break
			}
			i++
		}
		if i > 0 {
			items = items[i:]
			st.lists[t] = items
		}
		if len(items) == 0 {
			return item{}, false, nil
		}
		if items[0].updated {
			return items[0], true, nil
		}
		// Head is stale: its stored upper bound may hide a lower true
		// score, so run the interval's incremental pass before trusting
		// the head (this is Algorithm 3's lines 27-30 fallback, applied
		// eagerly to guarantee Proposition 6).
		if err := st.updateIntervalPass(t); err != nil {
			return item{}, false, err
		}
	}
}
