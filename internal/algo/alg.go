package algo

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/score"
)

// ALG is the greedy algorithm of Bikakis et al. (ICDE 2018), outlined in
// Section 3.1 of the paper, and the comparison baseline for INC/HOR/HOR-I.
//
// ALG first scores every (event, interval) pair, then repeats k times:
// scan all available assignments for the top valid one, select it, and
// recompute from scratch the scores of every assignment bound to the
// selected assignment's interval. Complexity (paper):
// O(|U||C| + |E||T||U| + k|E||T| + k|E||U| − k²|T| − k²|U|).
//
// Both scoring phases are independent candidate frontiers — the initial
// |E|×|T| grid and each selection's interval-column recompute — so each runs
// as one engine batch fan-out. The loop is shared with Extend (extend.go):
// ALG is Extend from the empty schedule.
type ALG struct {
	// Opts enables the Section 2.1 problem extensions.
	Opts core.ScorerOptions
	// Engine, when set, is the shared scoring engine to use (its instance
	// must be the one scheduled); otherwise a private engine is built from
	// Opts for the run.
	Engine *score.Engine
}

// Name implements Scheduler.
func (ALG) Name() string { return "ALG" }

// Schedule implements Scheduler.
func (a ALG) Schedule(inst *core.Instance, k int) (*Result, error) {
	return a.ScheduleCtx(context.Background(), inst, k)
}

// ScheduleCtx implements Scheduler.
func (a ALG) ScheduleCtx(ctx context.Context, inst *core.Instance, k int) (*Result, error) {
	if k <= 0 {
		return nil, ErrBadK
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	en, release, err := engineFor(a.Engine, inst, a.Opts)
	if err != nil {
		return nil, err
	}
	defer release()
	return extendWith(ctx, en, core.NewSchedule(inst), k, start)
}
