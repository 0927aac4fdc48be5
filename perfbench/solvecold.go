package main

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// solveCold is the paper's own experiment on the library path: one caller
// in a closed loop runs ALG, INC, HOR and HOR-I in turn on dense Zip
// instances, each solve on a fresh engine with sequential scoring and the
// auto kernel, as ses.Solve does. Its time goes to the core kernel, score
// and algo; it never reaches seio, server or persist, so a change there
// should leave its end-to-end metrics unchanged.
func solveCold(ctx context.Context, r *run, sz sizes) error {
	var insts []*core.Instance
	err := r.setup(sz.setupReps, func() { insts = nil }, func() (time.Duration, error) {
		var gen time.Duration
		for i := 0; i < sz.coldInstances; i++ {
			var inst *core.Instance
			var err error
			r.tr.do("dataset.generate", func() {
				t0 := time.Now()
				inst, err = dataset.ByName("Zip", dataset.Params{K: sz.coldK, NumUsers: sz.coldUsers, Seed: r.seed*1000 + uint64(i), CompetingMin: competingPerInterval, CompetingMax: competingPerInterval})
				gen += time.Since(t0)
			})
			if err != nil {
				return 0, err
			}
			insts = append(insts, inst)
		}
		return gen, nil
	})
	if err != nil {
		return err
	}

	// times[i][a] are the solve times of algorithm a on instance i; first
	// keeps each pair's first result for the output checks.
	times := make([][][]float64, len(insts))
	first := make([][]algoStat, len(insts))
	for i := range insts {
		times[i] = make([][]float64, len(algoNames))
		first[i] = make([]algoStat, len(algoNames))
	}
	// gaps are the caller's own time between one solve's end and the next
	// solve's start: the closed loop's generator lag.
	var gaps []float64
	r.beginWindow()
	deadline := time.Now().Add(r.window)
	var lastEnd time.Time
	for round := 0; round < len(insts) || time.Now().Before(deadline); round++ {
		i := round % len(insts)
		for a, name := range algoNames {
			if !lastEnd.IsZero() {
				gaps = append(gaps, ms(time.Since(lastEnd)))
			}
			st, err := r.solveOnce(ctx, name, insts[i], sz.coldK)
			lastEnd = time.Now()
			r.attempted++
			if err != nil {
				r.failed++
				return err
			}
			times[i][a] = append(times[i][a], st.solveMS)
			if round < len(insts) {
				first[i][a] = st
			} else {
				f := first[i][a]
				r.check(st.evals == f.evals && st.examined == f.examined,
					"instance %d %s: counters %d/%d, first run %d/%d", i, name, st.evals, st.examined, f.evals, f.examined)
			}
		}
	}
	r.endWindow()
	r.layer["loadgen.lag_p99_ms"] = quantile(sortedCopy(gaps), 0.99)

	// Per instance, a round costs the sum of its algorithms' median solve
	// times; the HOR-I figures average each instance's median, so a run's
	// value does not jump between instances as the round count changes.
	var roundMS, horiMS float64
	var horiAll []float64
	for i := range insts {
		for a := range algoNames {
			roundMS += median(times[i][a])
		}
		horiMS += median(times[i][hori])
		horiAll = append(horiAll, times[i][hori]...)
	}
	r.e2e["solves_per_s"] = float64(len(insts)*len(algoNames)) / (roundMS / 1000)
	r.e2e["solve_p50_ms"] = horiMS / float64(len(insts))
	r.e2e["fresh_solve_p50_ms"] = r.e2e["solve_p50_ms"]
	r.e2e["first_answer_s"] = r.e2e["solve_p50_ms"] / 1000
	r.layer["solve_tail_ms"], _ = tail(horiAll)

	// Propositions 3 and 6: INC ≡ ALG and HOR-I ≡ HOR, schedule and utility.
	for i := range insts {
		for _, pair := range [][2]int{{0, 1}, {2, 3}} {
			a, b := first[i][pair[0]].schedule, first[i][pair[1]].schedule
			r.check(sameSchedule(a, b), "instance %d: %s and %s schedules differ", i, algoNames[pair[0]], algoNames[pair[1]])
			ua, ub := core.NewScorer(insts[i]).Utility(a), core.NewScorer(insts[i]).Utility(b)
			r.check(ua == ub, "instance %d: %s utility %v, %s utility %v", i, algoNames[pair[0]], ua, algoNames[pair[1]], ub)
		}
	}

	if !r.traced() {
		return nil
	}
	// The algorithm rows come from the run itself: median solve time over
	// every solve, counters summed over one solve per instance (exact).
	solved := map[string]algoStat{}
	for a, name := range algoNames {
		var all []float64
		st := algoStat{schedule: first[0][a].schedule}
		for i := range insts {
			all = append(all, times[i][a]...)
			st.evals += first[i][a].evals
			st.examined += first[i][a].examined
		}
		st.solveMS = median(all)
		solved[name] = st
	}
	inst := insts[0]
	return r.probeLayers(ctx, inst, nil, sz.coldK, solved)
}

// hori is HOR-I's index in algoNames.
const hori = 3

// sameSchedule reports whether two schedules hold the same assignments.
func sameSchedule(a, b *core.Schedule) bool {
	x, y := a.SortedAssignments(), b.SortedAssignments()
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}
