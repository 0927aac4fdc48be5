package algo

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/score"
)

// Extend grows an existing feasible schedule by up to extra greedy
// selections, without disturbing the assignments already made. It is the
// re-planning workflow of a real organizer — "we found budget for three more
// events" — and the building block the incremental event-planning variants
// cited by the paper ([6] Cheng et al., ICDE 2017) study.
//
// Extend runs ALG's greedy loop from the base schedule, so
// Extend(inst, empty, k) is ALG's run — schedule and counters — which the
// tests assert. The base schedule is not modified; the returned Result holds
// an extended copy.
func Extend(inst *core.Instance, base *core.Schedule, extra int, opts core.ScorerOptions) (*Result, error) {
	if err := checkExtend(inst, base, extra); err != nil {
		return nil, err
	}
	start := time.Now()
	en, err := score.New(inst, opts)
	if err != nil {
		return nil, err
	}
	defer en.Close()
	return extendWith(context.Background(), en, base, extra, start)
}

// ExtendWithEngine is Extend against a shared scoring engine (which pins the
// instance), with the same cooperative cancellation and progress contract as
// Scheduler.ScheduleCtx. sesd uses it so extends of one instance version
// reuse the version's engine.
func ExtendWithEngine(ctx context.Context, en *score.Engine, base *core.Schedule, extra int) (*Result, error) {
	if err := checkExtend(en.Instance(), base, extra); err != nil {
		return nil, err
	}
	return extendWith(ctx, en, base, extra, time.Now())
}

func checkExtend(inst *core.Instance, base *core.Schedule, extra int) error {
	if extra <= 0 {
		return ErrBadK
	}
	if base == nil {
		return errors.New("algo: Extend needs a base schedule (use NewSchedule for an empty one)")
	}
	if base.Instance() != inst {
		return errors.New("algo: base schedule belongs to a different instance")
	}
	return nil
}

// extendWith is the greedy loop of ALG and Extend. It scores every interval
// of every unassigned event against base, then repeats up to extra times:
// scan all available assignments for the top valid one, select it, and
// rescore the still-feasible unassigned events of the selected interval.
func extendWith(ctx context.Context, en *score.Engine, base *core.Schedule, extra int, start time.Time) (*Result, error) {
	g := newGuard(ctx, extra)
	if err := g.point(); err != nil {
		return nil, err
	}
	s := base.Clone()
	var c Counters
	nE, nT := en.Instance().NumEvents(), en.Instance().NumIntervals()
	unassigned := func(e, _ int) bool {
		_, taken := s.AssignedInterval(e)
		return !taken
	}
	// The update sweep examines every unassigned event of the selected
	// interval and rescores the feasible ones.
	column := func(e, t int) bool {
		if !unassigned(e, t) {
			return false
		}
		c.Examined++
		return s.Feasible(e, t)
	}
	scores := make([]float64, nE*nT)
	f := newFrontier(nE, nT)
	fill := func() {
		for i, cd := range f.cands {
			scores[cd.Event*nT+cd.Interval] = f.vals[i]
		}
	}
	if err := f.score(g, en, s, 0, nT, unassigned, &c); err != nil {
		return nil, err
	}
	fill()

	target := s.Len() + extra
	for s.Len() < target {
		if err := g.point(); err != nil {
			return nil, err
		}
		bestE, bestT := -1, -1
		bestScore := 0.0
		for e := 0; e < nE; e++ {
			if _, taken := s.AssignedInterval(e); taken {
				continue
			}
			for t := 0; t < nT; t++ {
				c.Examined++
				if !s.Feasible(e, t) {
					continue
				}
				sv := scores[e*nT+t]
				if bestE < 0 || betterFull(sv, int32(e), t, bestScore, int32(bestE), bestT) {
					bestE, bestT, bestScore = e, t, sv
				}
			}
		}
		if bestE < 0 {
			break // no valid assignment remains
		}
		if err := s.Assign(bestE, bestT); err != nil {
			return nil, err
		}
		if err := g.selected(s.Len() - base.Len()); err != nil {
			return nil, err
		}
		if s.Len() >= target {
			break // no selection follows, so no update is needed
		}
		if err := f.score(g, en, s, bestT, bestT+1, column, &c); err != nil {
			return nil, err
		}
		fill()
	}
	return finish(en, s, c, start), nil
}
