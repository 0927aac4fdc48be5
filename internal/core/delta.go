package core

import (
	"fmt"
	"slices"
)

// ScorerDelta names the parts of a Scorer's precompute that differ between
// two snapshots of one instance chain, at the granularity the precompute is
// stored: interest edits dirty candidate-event columns, competing edits (and
// newly announced competing events) dirty per-interval competing sums,
// activity edits dirty per-interval activity columns. It is the contract
// between the snapshot chain (SnapshotDelta reads it off the shared
// columns) and NewScorerFromDelta / the scoring engine's warm rebuild
// (which know what each change invalidates).
//
// A delta built by hand must be complete: an index missing from it makes the
// warm scorer silently reuse stale state. Indices may repeat and arrive
// unsorted; out-of-range indices are rejected (the warm build fails and the
// caller falls back to a cold one).
type ScorerDelta struct {
	// Events lists candidate events whose interest column changed.
	// The Scorer itself stores no per-event state — interest columns live
	// in the instance — but the engine's cached empty-schedule grid does,
	// so the dirty set travels here.
	Events []int
	// CompIntervals lists intervals whose competing-interest sum changed:
	// a competing event in the interval had cells edited, or a new
	// competing event was announced there. compSum[t] is rebuilt for these.
	CompIntervals []int
	// ActIntervals lists intervals with changed activity cells; the
	// weighted activity columns (ScorerOptions.UserWeights) are rebuilt
	// for these.
	ActIntervals []int
}

// Empty reports whether the delta dirties nothing.
func (d ScorerDelta) Empty() bool {
	return len(d.Events) == 0 && len(d.CompIntervals) == 0 && len(d.ActIntervals) == 0
}

// SnapshotDelta returns the dirty set from prev to next, two snapshots of
// one instance chain, sorted and deduplicated. A column is clean exactly
// when both instances hold the same backing column (or both columns are
// empty): copy-on-write gives a column a fresh backing before its first
// write, so a shared backing is an unchanged column, and the comparison
// costs O(|E|+|C|+|T|) whatever |U| is. A competing-sum interval is dirty
// when any of its competing columns, or its competing membership, differs.
//
// The report is sound for any pair of instances, since a shared backing
// holds the same values on both sides; unrelated instances simply come back
// all dirty. A shape or representation mismatch reports every index of
// next dirty.
func SnapshotDelta(prev, next *Instance) ScorerDelta {
	nE, nT := next.NumEvents(), next.NumIntervals()
	if prev.numUsers != next.numUsers || prev.NumEvents() != nE || prev.NumIntervals() != nT ||
		prev.IsSparse() != next.IsSparse() {
		return ScorerDelta{Events: upTo(nE), CompIntervals: upTo(nT), ActIntervals: upTo(nT)}
	}
	var d ScorerDelta
	for e := 0; e < nE; e++ {
		if !sameInterestCol(prev, next, e) {
			d.Events = append(d.Events, e)
		}
	}
	dirtyComp := make([]bool, nT)
	for c := 0; c < max(prev.NumCompeting(), next.NumCompeting()); c++ {
		switch {
		case c >= next.NumCompeting():
			dirtyComp[prev.Competing[c].Interval] = true
		case c >= prev.NumCompeting():
			dirtyComp[next.Competing[c].Interval] = true
		case prev.Competing[c].Interval != next.Competing[c].Interval:
			dirtyComp[prev.Competing[c].Interval] = true
			dirtyComp[next.Competing[c].Interval] = true
		case !sameInterestCol(prev, next, nE+c):
			dirtyComp[next.Competing[c].Interval] = true
		}
	}
	for t := 0; t < nT; t++ {
		if dirtyComp[t] {
			d.CompIntervals = append(d.CompIntervals, t)
		}
		if !sameBacking(prev.activity[t], next.activity[t]) {
			d.ActIntervals = append(d.ActIntervals, t)
		}
	}
	return d
}

// sameInterestCol reports whether interest column h of a and b (same
// representation) is one backing column.
func sameInterestCol(a, b *Instance, h int) bool {
	if a.sparse != nil {
		return sameBacking(a.sparse[h].Users, b.sparse[h].Users) && sameBacking(a.sparse[h].Mu, b.sparse[h].Mu)
	}
	return sameBacking(a.interest[h], b.interest[h])
}

// sameBacking reports whether two slices view the same memory, counting any
// two empty slices as the same.
func sameBacking[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// upTo returns 0, 1, ..., n-1.
func upTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// validate rejects out-of-range indices against the instance's shape.
func (d ScorerDelta) validate(inst *Instance) error {
	for _, e := range d.Events {
		if e < 0 || e >= inst.NumEvents() {
			return fmt.Errorf("core: delta event %d out of range [0,%d)", e, inst.NumEvents())
		}
	}
	for _, t := range d.CompIntervals {
		if t < 0 || t >= inst.NumIntervals() {
			return fmt.Errorf("core: delta competing interval %d out of range [0,%d)", t, inst.NumIntervals())
		}
	}
	for _, t := range d.ActIntervals {
		if t < 0 || t >= inst.NumIntervals() {
			return fmt.Errorf("core: delta activity interval %d out of range [0,%d)", t, inst.NumIntervals())
		}
	}
	return nil
}

// markSet returns a membership bitmap over [0, n) for the given indices.
func markSet(idx []int, n int) []bool {
	m := make([]bool, n)
	for _, i := range idx {
		m[i] = true
	}
	return m
}

// NewScorerFromDelta builds a scorer for inst by reusing the clean parts of
// prev's precompute and rebuilding only what the delta dirtied. The result
// is BIT-IDENTICAL to NewScorerWithOptions(inst, opts) — shared slices are
// immutable after construction, and every rebuilt piece runs the exact cold
// construction loop over the same operands in the same order:
//
//   - clean intervals share prev's compSum[t] slice; dirty ones re-run
//     NewScorer's accumulation restricted to that interval, which adds the
//     interval's competing columns in the same ascending-index order the
//     cold build does.
//   - with UserWeights, clean weighted-activity columns are shared with
//     prev and dirty ones recomputed cell by cell; each cell is a single
//     independent multiply, so per-column rebuild matches the cold build.
//   - on a sparse instance, clean events share prev's shard-offset columns
//     and dirty ones are rebuilt (see shardOffsets).
//
// prev must have been built for an earlier snapshot of the same instance
// chain, not written since, with the same options (same
// UserWeights/EventCost values); d is normally SnapshotDelta(prev's
// instance, inst). Shape or option mismatches return an error and the
// caller should fall back to a cold build. Mutations never change |E|, |T|
// or |U| (AddCompeting grows |C|, which only dirties its interval's
// competing sum), so a shape mismatch means the delta does not describe
// prev→inst.
func NewScorerFromDelta(prev *Scorer, inst *Instance, opts ScorerOptions, d ScorerDelta) (*Scorer, error) {
	if prev == nil {
		return nil, fmt.Errorf("core: warm scorer build without a previous scorer")
	}
	if err := opts.Validate(inst); err != nil {
		return nil, err
	}
	if err := d.validate(inst); err != nil {
		return nil, err
	}
	p := prev.inst
	if p.NumUsers() != inst.NumUsers() || p.NumIntervals() != inst.NumIntervals() || p.NumEvents() != inst.NumEvents() {
		return nil, fmt.Errorf("core: warm scorer shape mismatch: prev %d×%d×%d vs %d×%d×%d users×events×intervals",
			p.NumUsers(), p.NumEvents(), p.NumIntervals(), inst.NumUsers(), inst.NumEvents(), inst.NumIntervals())
	}
	if (prev.act != nil) != (opts.UserWeights != nil) {
		return nil, fmt.Errorf("core: warm scorer weight-option mismatch with previous scorer")
	}
	if len(p.Competing) > len(inst.Competing) {
		return nil, fmt.Errorf("core: warm scorer competing set shrank (%d -> %d)", len(p.Competing), len(inst.Competing))
	}

	sc := &Scorer{
		inst:     inst,
		compSum:  make([][]float64, inst.NumIntervals()),
		cost:     opts.EventCost,
		shardOff: shardOffsets(inst, prev.shardOff, d.Events),
	}
	dirtyComp := markSet(d.CompIntervals, inst.NumIntervals())
	for t := range sc.compSum {
		if !dirtyComp[t] {
			// compSum slices are never written after construction, so
			// sharing is safe and exact.
			sc.compSum[t] = prev.compSum[t]
			continue
		}
		// Re-run the cold accumulation for this interval: competing
		// columns are added in ascending index order, exactly as the
		// NewScorer loop over inst.Competing visits them.
		var sum []float64
		base := len(inst.Events)
		for ci, c := range inst.Competing {
			if c.Interval != t {
				continue
			}
			if sum == nil {
				sum = make([]float64, inst.NumUsers())
			}
			inst.addInterestColInto(base+ci, sum)
		}
		sc.compSum[t] = sum
	}

	if opts.UserWeights != nil {
		// Weighted columns are never written after construction: clean
		// ones are shared, dirty ones recomputed.
		sc.act = slices.Clone(prev.act)
		for _, t := range d.ActIntervals {
			sc.act[t] = weightedActivity(inst.activity[t], opts.UserWeights)
		}
	}

	return sc, nil
}
