package dataset

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// Stats summarizes an instance's statistical structure — the properties the
// paper's evaluation commentary reasons about (interest spread per dataset,
// competing mass per interval, sparsity). It gives the dataset substitution
// claims of README "Deviations from the paper" a measurable form.
type Stats struct {
	Events, Intervals, Competing, Users int

	// InterestMean/Std aggregate µ over all (user, candidate event) cells.
	InterestMean, InterestStd float64
	// ZeroInterestFrac is the fraction of zero µ cells (clustering:
	// near zero for synthetic, substantial for Meetup-style data).
	ZeroInterestFrac float64
	// EventPopularitySpread is the ratio between the interpolated 90th and
	// 10th percentiles of the NONZERO per-event mean interests: ≈1 when
	// every event looks alike (Unf — assignment scores cluster, bounds
	// prune nothing) and large for heterogeneous popularity (Zip, real
	// data). Restricting to nonzero means and interpolating keeps the
	// value finite (JSON-safe) and meaningful for |E| < 10, where raw
	// index-based percentiles degenerated to min/max and a zero p10
	// reported +Inf. With no nonzero means at all the spread is 1 (all
	// events are equally unpopular).
	EventPopularitySpread float64
	// CompetingMassMean is the mean per-user per-interval competing
	// interest sum — the C that drives the stacking gain.
	CompetingMassMean float64
	// ActivityMean aggregates σ.
	ActivityMean float64
}

// Measure computes Stats with one pass over the instance. On sparse
// instances the interest passes iterate the nonzero lists — O(nonzeros), the
// whole point of the representation — and report exactly the Stats a dense
// build of the same content reports (the dense loops add exact zeros for
// the cells the sparse loops skip).
func Measure(inst *core.Instance) Stats {
	st := Stats{
		Events:    inst.NumEvents(),
		Intervals: inst.NumIntervals(),
		Competing: inst.NumCompeting(),
		Users:     inst.NumUsers(),
	}
	nU, nE := inst.NumUsers(), inst.NumEvents()
	var sum, sumSq float64
	zeros := 0
	eventMean := make([]float64, nE)
	if cols := inst.SparseInterest(); cols != nil {
		for e := 0; e < nE; e++ {
			for _, v32 := range cols[e].Mu {
				v := float64(v32)
				sum += v
				sumSq += v * v
				eventMean[e] += v
			}
			zeros += nU - len(cols[e].Users)
			eventMean[e] /= float64(nU)
		}
	} else {
		for e := 0; e < nE; e++ {
			for u := 0; u < nU; u++ {
				v := inst.Interest(u, e)
				sum += v
				sumSq += v * v
				if v == 0 {
					zeros++
				}
				eventMean[e] += v
			}
			eventMean[e] /= float64(nU)
		}
	}
	n := float64(nU * nE)
	st.InterestMean = sum / n
	st.InterestStd = math.Sqrt(math.Max(0, sumSq/n-st.InterestMean*st.InterestMean))
	st.ZeroInterestFrac = float64(zeros) / n
	st.EventPopularitySpread = popularitySpread(eventMean)
	// Competing mass per (user, interval).
	if inst.NumCompeting() > 0 {
		var mass float64
		if cols := inst.SparseInterest(); cols != nil {
			for c := 0; c < inst.NumCompeting(); c++ {
				for _, v := range cols[nE+c].Mu {
					mass += float64(v)
				}
			}
		} else {
			for c := 0; c < inst.NumCompeting(); c++ {
				for u := 0; u < nU; u++ {
					mass += inst.CompetingInterest(u, c)
				}
			}
		}
		st.CompetingMassMean = mass / float64(nU*inst.NumIntervals())
	}
	var act float64
	for t := 0; t < inst.NumIntervals(); t++ {
		for u := 0; u < nU; u++ {
			act += inst.Activity(u, t)
		}
	}
	st.ActivityMean = act / float64(nU*inst.NumIntervals())
	return st
}

// popularitySpread computes the p90/p10 ratio over the nonzero means with
// interpolated percentiles. 1 when fewer than one nonzero mean exists.
func popularitySpread(eventMean []float64) float64 {
	nz := make([]float64, 0, len(eventMean))
	for _, m := range eventMean {
		if m > 0 {
			nz = append(nz, m)
		}
	}
	if len(nz) == 0 {
		return 1
	}
	sort.Float64s(nz)
	return percentile(nz, 0.9) / percentile(nz, 0.1)
}

// percentile returns the linearly interpolated p-quantile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p * float64(len(sorted)-1)
	lo := int(rank)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := rank - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// String renders the stats for the sesgen banner and logs.
func (st Stats) String() string {
	spread := fmt.Sprintf("%.1f", st.EventPopularitySpread)
	if math.IsInf(st.EventPopularitySpread, 1) {
		spread = "inf"
	}
	return fmt.Sprintf(
		"|E|=%d |T|=%d |C|=%d |U|=%d  µ: mean %.3f ± %.3f, %.0f%% zeros, event-popularity spread %s  C-mass %.2f  σ mean %.3f",
		st.Events, st.Intervals, st.Competing, st.Users,
		st.InterestMean, st.InterestStd, 100*st.ZeroInterestFrac, spread,
		st.CompetingMassMean, st.ActivityMean)
}
