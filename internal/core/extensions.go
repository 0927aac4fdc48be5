package core

import "fmt"

// ScorerOptions enables the problem extensions Section 2.1 sketches as
// "trivial modifications": weighting users (e.g. by influence) and the
// profit-oriented SES variant (per-event organization cost/fee).
//
// Both extensions preserve the upper-bound monotonicity that INC and HOR-I
// rely on (Proposition 1): user weights scale each user's σ term by a
// constant, and costs shift each event's scores by a constant, so stale
// scores remain upper bounds and all equivalence guarantees (Propositions 3
// and 6) continue to hold — which the extension tests assert.
type ScorerOptions struct {
	// UserWeights weights each user's attendance contribution (length
	// |U|, values ≥ 0). nil means unweighted (all ones). With weights,
	// "expected attendance" becomes expected *weighted* attendance —
	// e.g. influence-reach instead of head-count.
	UserWeights []float64
	// EventCost is the organization cost of each candidate event (length
	// |E|, values ≥ 0). nil means free events. With costs, every
	// assignment score and the total utility subtract the cost of the
	// scheduled events, turning SES into its profit-oriented variant.
	// Scores may then be negative: scheduling an unprofitable event still
	// happens if k demands it, mirroring the original problem's "exactly
	// k events" contract.
	EventCost []float64
	// Workers > 1 asks the scoring engine (internal/score) built from these
	// options to shard Eq. 4 user passes and candidate batches across that
	// many goroutines (GOMAXPROCS is the sensible ceiling). core.Scorer
	// itself always scores sequentially; the engine's fixed user-shard
	// boundaries make parallel results bit-identical to its sequential
	// fallback for every worker count.
	Workers int
}

// Validate checks the options' dimensions and ranges against the instance
// without building a scorer: the check NewScorerWithOptions runs before its
// O(|U|·|C|) precompute.
func (o ScorerOptions) Validate(inst *Instance) error {
	if o.UserWeights != nil {
		if len(o.UserWeights) != inst.NumUsers() {
			return fmt.Errorf("core: %d user weights for %d users", len(o.UserWeights), inst.NumUsers())
		}
		for u, w := range o.UserWeights {
			if w < 0 {
				return fmt.Errorf("core: negative weight %v for user %d", w, u)
			}
		}
	}
	if o.EventCost != nil {
		if len(o.EventCost) != inst.NumEvents() {
			return fmt.Errorf("core: %d event costs for %d events", len(o.EventCost), inst.NumEvents())
		}
		for e, c := range o.EventCost {
			if c < 0 {
				return fmt.Errorf("core: negative cost %v for event %d", c, e)
			}
		}
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", o.Workers)
	}
	return nil
}

// NewScorerWithOptions builds a scorer applying the extensions. A zero
// options value behaves exactly like NewScorer.
func NewScorerWithOptions(inst *Instance, opts ScorerOptions) (*Scorer, error) {
	if err := opts.Validate(inst); err != nil {
		return nil, err
	}
	sc := NewScorer(inst)
	sc.cost = opts.EventCost
	if opts.UserWeights != nil {
		// Fold the weights into scorer-private activity columns so the hot
		// loops stay identical: one multiply already paid at setup.
		sc.act = make([][]float32, inst.NumIntervals())
		for t := range sc.act {
			sc.act[t] = weightedActivity(inst.activity[t], opts.UserWeights)
		}
	}
	return sc, nil
}

// weightedActivity returns σ(·, t) scaled by the user weights, one
// independent multiply per cell.
func weightedActivity(src []float32, w []float64) []float32 {
	dst := make([]float32, len(src))
	for u := range dst {
		dst[u] = src[u] * float32(w[u])
	}
	return dst
}

// eventCost returns the profit-variant cost of event e (0 when unset).
func (sc *Scorer) eventCost(e int) float64 {
	if sc.cost == nil {
		return 0
	}
	return sc.cost[e]
}

// scoreActivityCol returns the (possibly weighted) activity column used by
// score computations.
func (sc *Scorer) scoreActivityCol(t int) []float32 {
	if sc.act != nil {
		return sc.act[t]
	}
	return sc.inst.activity[t]
}
