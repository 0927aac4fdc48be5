package algo

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/score"
)

// HOR is the Horizontal Assignment algorithm (Section 3.3, Algorithm 2).
//
// HOR selects assignments in layers: in each iteration it recomputes the
// scores of all valid assignments once, then selects (up to) one assignment
// per interval — the interval's top — without any mid-layer recomputation.
// Because at most one event joins each interval per layer, skipping the
// updates inside a layer costs little solution quality (the paper reports
// identical utility to ALG in >70% of runs, ≤1.3% difference otherwise)
// while eliminating ALG's per-selection update sweep entirely when k ≤ |T|.
type HOR struct {
	// Opts enables the Section 2.1 problem extensions.
	Opts core.ScorerOptions
	// Engine, when set, is the shared scoring engine to use; otherwise a
	// private engine is built from Opts for the run.
	Engine *score.Engine
}

// Name implements Scheduler.
func (HOR) Name() string { return "HOR" }

// Schedule implements Scheduler.
func (a HOR) Schedule(inst *core.Instance, k int) (*Result, error) {
	return a.ScheduleCtx(context.Background(), inst, k)
}

// ScheduleCtx implements Scheduler.
func (a HOR) ScheduleCtx(ctx context.Context, inst *core.Instance, k int) (*Result, error) {
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
	lists := make([][]item, nT)
	f := newFrontier(nE, nT)
	valid := s.Valid // bound once, so no layer allocates
	for s.Len() < k {
		// Layer start: regenerate and score every valid assignment
		// (Algorithm 2, lines 3-8). The whole layer frontier — every valid
		// assignment across every interval — is one batch fan-out.
		if err := f.score(g, en, s, 0, nT, valid, &c); err != nil {
			return nil, err
		}
		for t := 0; t < nT; t++ {
			lists[t] = f.list(t, lists[t])
		}
		assigned, err := horSelectLayer(s, lists, k, &c, g)
		if err != nil {
			return nil, err
		}
		if assigned == 0 {
			break // no valid assignment anywhere: k is unreachable
		}
	}
	return finish(en, s, c, start), nil
}

// horSelectLayer runs the horizontal selection of one layer (Algorithm 2,
// lines 9-14): a per-interval cursor M starts at each list head; the global
// top of M is popped; if its event was taken by an earlier pop in this layer
// the cursor advances to the interval's next available event, otherwise the
// assignment is made and the interval is done for the layer. Returns the
// number of assignments made.
func horSelectLayer(s *core.Schedule, lists [][]item, k int, c *Counters, g *guard) (int, error) {
	nT := len(lists)
	pos := make([]int, nT) // cursor into each interval's list
	// live[t] tells whether interval t still holds a candidate in M.
	live := make([]bool, nT)
	for t := 0; t < nT; t++ {
		live[t] = len(lists[t]) > 0
	}
	made := 0
	for s.Len() < k {
		// Pop the global top of M.
		bestT := -1
		for t := 0; t < nT; t++ {
			if !live[t] {
				continue
			}
			it := lists[t][pos[t]]
			if bestT < 0 || betterFull(it.score, it.e, t, lists[bestT][pos[bestT]].score, lists[bestT][pos[bestT]].e, bestT) {
				bestT = t
			}
		}
		if bestT < 0 {
			break // M exhausted
		}
		c.Examined++
		it := lists[bestT][pos[bestT]]
		if _, taken := s.AssignedInterval(int(it.e)); !taken {
			if err := s.Assign(int(it.e), bestT); err != nil {
				// Entries were valid at layer start and the interval
				// has not been touched since; this cannot happen.
				panic("algo: HOR layer assignment failed: " + err.Error())
			}
			live[bestT] = false // one assignment per interval per layer
			made++
			if err := g.selected(s.Len()); err != nil {
				return made, err
			}
			continue
		}
		// The event was claimed by another interval this layer: advance
		// to the interval's next entry whose event is still available
		// (Algorithm 2, lines 13-14).
		p := pos[bestT] + 1
		for p < len(lists[bestT]) {
			c.Examined++
			if _, taken := s.AssignedInterval(int(lists[bestT][p].e)); !taken {
				break
			}
			p++
		}
		pos[bestT] = p
		if p == len(lists[bestT]) {
			live[bestT] = false
		}
	}
	return made, nil
}
