package core

// The Eq. 4 kernel.
//
// Every scheduler's hot path — and sesd's warm re-solve loop — bottoms out in
// the same computation: the Eq. 4 gain of one assignment α_e^t accumulated
// over a range of users, plus the per-interval interest-sum accumulation that
// maintains the denominators that gain reads (the scorer's competing sums and
// the schedule's assigned sums). The instance representation alone decides
// which loop runs:
//
//   - dense instances score through denseScoreRange (this file): branch-free
//     scalar loops over the event-major layout, the reference
//     implementation;
//   - sparse instances score through sparseScoreRange (kernel_sparse.go),
//     which iterates only a column's nonzeros in ascending user order and is
//     bit-identical to the dense loop (every skipped µ = 0 term contributes
//     exactly +0.0).
//
// Accumulation dispatches the same way (Instance.addInterestColInto), so a
// sparse and a dense build of one problem produce the same bits everywhere.

// ShardUsers is the fixed user-shard width of the parallel scoring engine
// (internal/score reduces Eq. 4 passes in shards of exactly this many users,
// in shard order, which is what makes parallel results bit-identical). It is
// declared here because the sparse kernel precomputes per-shard state
// against this grid: each column's [start, end) nonzero offsets per shard
// are resolved once at Scorer construction instead of binary-searching on
// every ScoreUsers call.
const ShardUsers = 8192

// KernelName reports which Eq. 4 loop the scorer runs: "sparse" on a sparse
// instance, "scalar" on a dense one.
func (sc *Scorer) KernelName() string {
	if sc.inst.sparse != nil {
		return "sparse"
	}
	return "scalar"
}

// scoreUserRange computes the Eq. 4 gain of α_e^t over users [lo, hi),
// excluding the event's organization cost: the single point every scoring
// path funnels through.
func (sc *Scorer) scoreUserRange(s *Schedule, e, t, lo, hi int) float64 {
	if sc.inst.sparse != nil {
		return sc.sparseScoreRange(s, e, t, lo, hi)
	}
	return sc.denseScoreRange(s, e, t, lo, hi)
}

// denseScoreRange is one pass over four parallel arrays (µ column, activity
// column, competing sum, assigned sum), specialized per denominator case so
// intervals without competition or assignments skip the work entirely; see
// denomEps (score.go) for why the denominators carry an epsilon instead of a
// zero-check branch.
func (sc *Scorer) denseScoreRange(s *Schedule, e, t, lo, hi int) float64 {
	mu := sc.inst.interestCol(e)[lo:hi]
	act := sc.scoreActivityCol(t)[lo:hi]
	comp := sc.compSum[t]
	assigned := s.assignedInterestSum(t)

	gain := 0.0
	switch {
	case comp == nil && assigned == nil:
		for u, mf := range mu {
			m := float64(mf)
			gain += float64(act[u]) * m / (m + denomEps)
		}
	case assigned == nil:
		comp := comp[lo:hi]
		for u, mf := range mu {
			m := float64(mf)
			gain += float64(act[u]) * m / (comp[u] + m + denomEps)
		}
	case comp == nil:
		assigned := assigned[lo:hi]
		for u, mf := range mu {
			a := assigned[u]
			m := float64(mf)
			gain += float64(act[u]) * ((a+m)/(a+m+denomEps) - a/(a+denomEps))
		}
	default:
		comp := comp[lo:hi]
		assigned := assigned[lo:hi]
		for u, mf := range mu {
			a := assigned[u]
			m := float64(mf)
			oldD := comp[u] + a
			gain += float64(act[u]) * ((a+m)/(oldD+m+denomEps) - a/(oldD+denomEps))
		}
	}
	return gain
}
