package algo

import (
	"context"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/score"
)

// TOP is the first baseline of the evaluation (Section 4.1): it scores every
// assignment once against the empty schedule and greedily consumes the
// global top-k valid assignments without ever recomputing a score. TOP
// therefore performs the minimum possible number of score computations
// (|E|·|T|) — it is the lower envelope of the computation plots — but its
// utility suffers because it happily piles events into the few
// highest-yield intervals, which then cannibalize each other's attendance.
type TOP struct {
	// Opts enables the Section 2.1 problem extensions.
	Opts core.ScorerOptions
	// Engine, when set, is the shared scoring engine to use; otherwise a
	// private engine is built from Opts for the run.
	Engine *score.Engine
}

// Name implements Scheduler.
func (TOP) Name() string { return "TOP" }

// Schedule implements Scheduler.
func (a TOP) Schedule(inst *core.Instance, k int) (*Result, error) {
	return a.ScheduleCtx(context.Background(), inst, k)
}

// ScheduleCtx implements Scheduler.
func (a TOP) ScheduleCtx(ctx context.Context, inst *core.Instance, k int) (*Result, error) {
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
	s := core.NewSchedule(inst)
	var c Counters

	nE, nT := inst.NumEvents(), inst.NumIntervals()
	type pair struct {
		item
		t int
	}
	// TOP's entire score work is one frontier: every (event, interval) pair
	// against the empty schedule, scored in a single batch fan-out.
	f := newFrontier(nE, nT)
	if err := f.score(g, en, s, 0, nT, allPairs, &c); err != nil {
		return nil, err
	}
	all := make([]pair, 0, nE*nT)
	for i, cd := range f.cands {
		all = append(all, pair{item{e: int32(cd.Event), score: f.vals[i]}, cd.Interval})
	}
	sort.Slice(all, func(i, j int) bool {
		return betterFull(all[i].score, all[i].e, all[i].t, all[j].score, all[j].e, all[j].t)
	})
	for _, p := range all {
		if s.Len() >= k {
			break
		}
		c.Examined++
		if err := g.step(); err != nil {
			return nil, err
		}
		if s.Valid(int(p.e), p.t) {
			if err := s.Assign(int(p.e), p.t); err != nil {
				return nil, err
			}
			if err := g.selected(s.Len()); err != nil {
				return nil, err
			}
		}
	}
	return finish(en, s, c, start), nil
}

// RAND is the second baseline (Section 4.1): it assigns events to intervals
// uniformly at random, subject only to validity. It performs no score
// computations at all and anchors the bottom of the utility plots.
type RAND struct {
	// Seed drives the deterministic random stream; two RAND runs with the
	// same seed and instance produce the same schedule.
	Seed uint64
	// Opts enables the Section 2.1 problem extensions (they only affect
	// the reported utility: RAND never scores assignments).
	Opts core.ScorerOptions
	// Engine, when set, is the shared scoring engine; RAND only uses it to
	// report the final utility.
	Engine *score.Engine
}

// Name implements Scheduler.
func (RAND) Name() string { return "RAND" }

// Schedule implements Scheduler.
func (r RAND) Schedule(inst *core.Instance, k int) (*Result, error) {
	return r.ScheduleCtx(context.Background(), inst, k)
}

// ScheduleCtx implements Scheduler.
func (r RAND) ScheduleCtx(ctx context.Context, inst *core.Instance, k int) (*Result, error) {
	if k <= 0 {
		return nil, ErrBadK
	}
	g := newGuard(ctx, k)
	if err := g.point(); err != nil {
		return nil, err
	}
	start := time.Now()
	en, release, err := engineFor(r.Engine, inst, r.Opts)
	if err != nil {
		return nil, err
	}
	defer release()
	s := core.NewSchedule(inst)
	var c Counters

	nE, nT := inst.NumEvents(), inst.NumIntervals()
	// Walk a random permutation of all pairs so the schedule is uniform
	// over valid possibilities yet termination is certain even when k
	// exceeds the number of feasible assignments.
	perm := randx.New(r.Seed).Perm(nE * nT)
	for _, idx := range perm {
		if s.Len() >= k {
			break
		}
		e, t := idx/nT, idx%nT
		c.Examined++
		if err := g.step(); err != nil {
			return nil, err
		}
		if s.Valid(e, t) {
			if err := s.Assign(e, t); err != nil {
				return nil, err
			}
			if err := g.selected(s.Len()); err != nil {
				return nil, err
			}
		}
	}
	return finish(en, s, c, start), nil
}
