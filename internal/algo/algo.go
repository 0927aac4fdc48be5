// Package algo implements the scheduling algorithms of the paper: the prior
// greedy ALG (Section 3.1, from Bikakis et al. ICDE 2018), the three
// contributions INC (Section 3.2), HOR (Section 3.3) and HOR-I (Section 3.4),
// and the TOP and RAND baselines of the evaluation (Section 4.1).
//
// Every scheduler is instrumented with the two counters the paper's
// evaluation reports besides wall time: the number of assignment-score
// computations (each costing one pass over the |U| users — Figures 5e–5h)
// and the number of assignments examined (Figure 10b).
package algo

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/score"
)

// Counters collects the work metrics of a scheduler run.
type Counters struct {
	// ScoreEvals counts Eq. 4 evaluations. The paper's "number of
	// computations" metric is ScoreEvals × |U| (each evaluation touches
	// every user once); use Computations for that figure-ready value.
	ScoreEvals int64
	// Examined counts assignment accesses: list entries traversed,
	// score-matrix cells scanned for selection, and candidates checked
	// for validity. This is the Figure 10b "search space" metric.
	Examined int64
}

// Computations returns the paper's computation count: ScoreEvals × |U|.
func (c Counters) Computations(numUsers int) int64 {
	return c.ScoreEvals * int64(numUsers)
}

// Result is the outcome of a scheduler run.
type Result struct {
	Schedule *core.Schedule
	// Utility is Ω(Schedule), recomputed from scratch by the scorer so
	// the reported value never depends on an algorithm's bookkeeping.
	Utility float64
	Counters
	Elapsed time.Duration
}

// Scheduler solves an SES instance: it selects up to k valid assignments
// maximizing (approximately) the total utility Ω.
type Scheduler interface {
	// Name returns the paper's name for the algorithm (ALG, INC, ...).
	Name() string
	// Schedule builds a feasible schedule with at most k assignments.
	// Fewer than k assignments are returned only when no further valid
	// assignment exists. It is ScheduleCtx with a background context.
	Schedule(inst *core.Instance, k int) (*Result, error)
	// ScheduleCtx is Schedule with cooperative cancellation: the selection
	// and scoring loops poll ctx periodically and abandon the run with
	// ctx.Err() once it is cancelled, so a long solve never holds a worker
	// past its caller's interest. A Progress callback attached to ctx via
	// WithProgress is invoked after every selection.
	ScheduleCtx(ctx context.Context, inst *core.Instance, k int) (*Result, error)
}

// ErrBadK is returned when k is not positive.
var ErrBadK = errors.New("algo: k must be positive")

// New returns the scheduler with the given paper name (case-sensitive:
// "ALG", "INC", "HOR", "HOR-I", "TOP", "RAND"). RAND is seeded with seed;
// the deterministic algorithms ignore it.
func New(name string, seed uint64) (Scheduler, error) {
	return NewWithOptions(name, seed, core.ScorerOptions{})
}

// NewWithOptions returns the named scheduler with the Section 2.1 problem
// extensions enabled (user weights, profit-oriented event costs) and, via
// opts.Workers, parallel scoring.
func NewWithOptions(name string, seed uint64, opts core.ScorerOptions) (Scheduler, error) {
	switch name {
	case "ALG":
		return ALG{Opts: opts}, nil
	case "INC":
		return INC{Opts: opts}, nil
	case "HOR":
		return HOR{Opts: opts}, nil
	case "HOR-I":
		return HORI{Opts: opts}, nil
	case "TOP":
		return TOP{Opts: opts}, nil
	case "RAND":
		return RAND{Seed: seed, Opts: opts}, nil
	}
	return nil, fmt.Errorf("algo: unknown scheduler %q", name)
}

// NewWithEngine returns the named scheduler bound to a shared scoring engine.
// The engine pins the instance: ScheduleCtx fails if called with any other.
// Sharing an engine amortizes its O(|U|·|C|) precompute and worker set across
// runs — sesd binds one engine per instance version to every solve and sweep
// cell of that version.
func NewWithEngine(name string, seed uint64, en *score.Engine) (Scheduler, error) {
	s, err := New(name, seed)
	if err != nil {
		return nil, err
	}
	return WithEngine(s, en), nil
}

// WithEngine rebinds one of the built-in schedulers to a shared engine.
// Schedulers of unknown concrete types are returned unchanged.
func WithEngine(s Scheduler, en *score.Engine) Scheduler {
	switch v := s.(type) {
	case ALG:
		v.Engine = en
		return v
	case INC:
		v.Engine = en
		return v
	case HOR:
		v.Engine = en
		return v
	case HORI:
		v.Engine = en
		return v
	case TOP:
		v.Engine = en
		return v
	case RAND:
		v.Engine = en
		return v
	}
	return s
}

// engineFor resolves the engine a run scores with: the scheduler's shared
// Engine when set (validated against inst), otherwise a private engine built
// from opts whose workers the returned release func stops when the run ends.
func engineFor(shared *score.Engine, inst *core.Instance, opts core.ScorerOptions) (*score.Engine, func(), error) {
	if shared != nil {
		if shared.Instance() != inst {
			return nil, nil, errors.New("algo: scoring engine was built for a different instance")
		}
		return shared, func() {}, nil
	}
	en, err := score.New(inst, opts)
	if err != nil {
		return nil, nil, err
	}
	return en, en.Close, nil
}

// Names lists the available scheduler names in the order the paper's plots
// use.
func Names() []string { return []string{"ALG", "INC", "HOR", "HOR-I", "TOP", "RAND"} }

// betterScoreEvent reports whether (s1, e1) beats (s2, e2) under the shared
// deterministic tie-break: higher score first, then smaller event index.
// Every algorithm uses this ordering so the INC ≡ ALG and HOR-I ≡ HOR
// equivalences (Propositions 3 and 6) hold exactly, not just in utility.
func betterScoreEvent(s1 float64, e1 int32, s2 float64, e2 int32) bool {
	if s1 != s2 {
		return s1 > s2
	}
	return e1 < e2
}

// betterFull extends betterScoreEvent with the interval index as the final
// tie-break for cross-interval comparisons.
func betterFull(s1 float64, e1 int32, t1 int, s2 float64, e2 int32, t2 int) bool {
	if s1 != s2 {
		return s1 > s2
	}
	if e1 != e2 {
		return e1 < e2
	}
	return t1 < t2
}

// item is one assignment α_e^t inside an interval's assignment list L_t.
// The interval is implied by the list holding the item.
type item struct {
	e int32
	// score is the exact Eq. 4 score if updated, otherwise a stale value
	// from an earlier schedule state. Stale scores are upper bounds on
	// the exact score (the monotonicity behind Proposition 1).
	score   float64
	updated bool
}

// sortItems orders a list descending by score with the event index as the
// tie-break, the canonical order of the interval-based assignment
// organization (Section 3.2.2).
func sortItems(items []item) {
	sort.Slice(items, func(i, j int) bool {
		return betterScoreEvent(items[i].score, items[i].e, items[j].score, items[j].e)
	})
}

// frontier is one batch of candidate assignments scored against a schedule
// state, enumerated interval-major: the i-th interval of the scored range
// holds cands[starts[i]:starts[i+1]], with Eq. 4 scores in vals. Its buffers
// are reused from one scoring to the next.
type frontier struct {
	nE     int
	cands  []score.Candidate
	vals   []float64
	starts []int
}

// newFrontier returns a frontier sized for every pair of an nE×nT instance,
// so no later scoring allocates.
func newFrontier(nE, nT int) *frontier {
	return &frontier{
		nE:     nE,
		cands:  make([]score.Candidate, 0, nE*nT),
		vals:   make([]float64, 0, nE*nT),
		starts: make([]int, 0, nT+1),
	}
}

// allPairs keeps every (event, interval) pair.
func allPairs(int, int) bool { return true }

// score collects the pairs (e, t), t0 ≤ t < t1, that keep admits, scores
// them against s in one engine batch and accounts the evaluations. A
// candidate's Eq. 4 sum is computed on its own, so the enumeration order
// never changes a value.
func (f *frontier) score(g *guard, en *score.Engine, s *core.Schedule, t0, t1 int, keep func(e, t int) bool, c *Counters) error {
	f.cands, f.starts = f.cands[:0], f.starts[:0]
	for t := t0; t < t1; t++ {
		f.starts = append(f.starts, len(f.cands))
		for e := 0; e < f.nE; e++ {
			if keep(e, t) {
				f.cands = append(f.cands, score.Candidate{Event: e, Interval: t})
			}
		}
	}
	f.starts = append(f.starts, len(f.cands))
	f.vals = f.vals[:len(f.cands)]
	if err := en.ScoreBatch(g.ctx, s, f.cands, f.vals); err != nil {
		return err
	}
	c.ScoreEvals += int64(len(f.cands))
	return g.batch(len(f.cands))
}

// list writes the t-th scored interval's candidates into dst as updated items
// in list order, reusing dst's storage when it is large enough.
func (f *frontier) list(t int, dst []item) []item {
	lo, hi := f.starts[t], f.starts[t+1]
	if cap(dst) < hi-lo {
		dst = make([]item, 0, hi-lo)
	}
	dst = dst[:0]
	for i := lo; i < hi; i++ {
		dst = append(dst, item{e: int32(f.cands[i].Event), score: f.vals[i], updated: true})
	}
	sortItems(dst)
	return dst
}

// finish assembles the Result shared by all schedulers.
func finish(en *score.Engine, s *core.Schedule, c Counters, start time.Time) *Result {
	return &Result{
		Schedule: s,
		Utility:  en.Utility(s),
		Counters: c,
		Elapsed:  time.Since(start),
	}
}
