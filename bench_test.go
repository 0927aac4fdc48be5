package ses

// Benchmarks regenerating every figure of the paper's evaluation, one
// parent benchmark per figure, with sub-benchmarks per dataset × algorithm
// at the figure's characteristic parameter point. `go test -bench=.` runs
// the whole suite at a small scale whose parameter ratios match the paper
// (see internal/exp and EXPERIMENTS.md); cmd/sesbench sweeps the full
// parameter grids and prints the figure-shaped tables.
//
// Ablation benchmarks at the bottom isolate three design choices: the Φ
// bound's sensitivity to the interest distribution, the per-interval
// denominator cache, and the cost of the horizontal worst case.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/score"
)

// benchUsers keeps the suite fast while preserving the |U|-dominated cost
// model (every score evaluation scans all users).
const benchUsers = 1000

// instCache shares generated instances across sub-benchmarks.
var instCache = map[string]*core.Instance{}

func benchInstance(b *testing.B, ds string, p dataset.Params) *core.Instance {
	b.Helper()
	key := fmt.Sprintf("%s/%+v", ds, p)
	if inst, ok := instCache[key]; ok {
		return inst
	}
	inst, err := dataset.ByName(ds, p)
	if err != nil {
		b.Fatal(err)
	}
	instCache[key] = inst
	return inst
}

// runAlgos benchmarks each algorithm on the instance at schedule size k.
func runAlgos(b *testing.B, inst *core.Instance, k int, names []string) {
	b.Helper()
	for _, name := range names {
		s, err := algo.New(name, 1)
		if err != nil {
			b.Fatal(err)
		}
		if name == "HOR-I" && k <= inst.NumIntervals() {
			continue // identical to HOR (Section 3.4); skip as the paper does
		}
		b.Run(name, func(b *testing.B) {
			var evals int64
			for i := 0; i < b.N; i++ {
				res, err := s.Schedule(inst, k)
				if err != nil {
					b.Fatal(err)
				}
				evals = res.ScoreEvals
			}
			b.ReportMetric(float64(evals), "score-evals")
			b.ReportMetric(float64(evals)*float64(inst.NumUsers()), "computations")
		})
	}
}

var allNames = []string{"ALG", "INC", "HOR", "HOR-I", "TOP", "RAND"}

// BenchmarkFig5 — effect of the number of scheduled events k (Figure 5:
// utility 5a-d, computations 5e-h, time 5i-l). The benchmark point is the
// large-k regime k = 2·|T|/1.5 where HOR-I separates from HOR.
func BenchmarkFig5(b *testing.B) {
	const k0 = 20 // scaled default (paper: 100)
	for _, ds := range []string{"Meetup", "Concerts", "Unf", "Zip"} {
		b.Run(ds, func(b *testing.B) {
			for _, k := range []int{k0, 2 * k0} {
				inst := benchInstance(b, ds, dataset.Params{
					K: k, NumUsers: benchUsers, Seed: 1,
					NumEvents: 3 * k, NumIntervals: 3 * k0 / 2,
				})
				b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
					runAlgos(b, inst, k, allNames)
				})
			}
		})
	}
}

// BenchmarkFig6 — effect of the number of time intervals |T| (Figure 6).
// Two points: few intervals (k/2, multi-layer horizontal selection) and
// many (3k/2, single layer).
func BenchmarkFig6(b *testing.B) {
	const k = 20
	for _, ds := range []string{"Unf", "Zip"} {
		b.Run(ds, func(b *testing.B) {
			for _, iv := range []int{k / 2, 3 * k / 2} {
				inst := benchInstance(b, ds, dataset.Params{
					K: k, NumUsers: benchUsers, Seed: 1,
					NumEvents: 3 * k, NumIntervals: iv,
				})
				b.Run(fmt.Sprintf("T=%d", iv), func(b *testing.B) {
					runAlgos(b, inst, k, allNames)
				})
			}
		})
	}
}

// BenchmarkFig7 — effect of the number of candidate events |E| (Figure 7),
// on Concerts and Unf as in the paper.
func BenchmarkFig7(b *testing.B) {
	const k = 20
	for _, ds := range []string{"Concerts", "Unf"} {
		b.Run(ds, func(b *testing.B) {
			for _, e := range []int{k, 10 * k} {
				inst := benchInstance(b, ds, dataset.Params{
					K: k, NumUsers: benchUsers, Seed: 1,
					NumEvents: e, NumIntervals: 3 * k / 2,
				})
				b.Run(fmt.Sprintf("E=%d", e), func(b *testing.B) {
					runAlgos(b, inst, k, []string{"ALG", "INC", "HOR", "TOP", "RAND"})
				})
			}
		})
	}
}

// BenchmarkFig8 — effect of the number of users |U| (Figure 8) on Unf at
// |T| = 0.65k (the 8b setting where every method is defined).
func BenchmarkFig8(b *testing.B) {
	const k = 20
	for _, users := range []int{benchUsers, 5 * benchUsers} {
		inst := benchInstance(b, "Unf", dataset.Params{
			K: k, NumUsers: users, Seed: 1,
			NumEvents: 3 * k, NumIntervals: 13,
		})
		b.Run(fmt.Sprintf("U=%d", users), func(b *testing.B) {
			runAlgos(b, inst, k, allNames)
		})
	}
}

// BenchmarkFig9 — effect of the number of available locations (Figure 9) on
// Unf at |T| = 0.65k: fewer locations mean more conflicts and a smaller
// feasible search space.
func BenchmarkFig9(b *testing.B) {
	const k = 20
	for _, locs := range []int{5, 70} {
		inst := benchInstance(b, "Unf", dataset.Params{
			K: k, NumUsers: benchUsers, Seed: 1,
			NumEvents: 3 * k, NumIntervals: 13, NumLocations: locs,
		})
		b.Run(fmt.Sprintf("locations=%d", locs), func(b *testing.B) {
			runAlgos(b, inst, k, allNames)
		})
	}
}

// BenchmarkFig10a — the HOR/HOR-I worst case w.r.t. k and |T|
// (k mod |T| = 1, Propositions 5 and 7) across all four datasets.
func BenchmarkFig10a(b *testing.B) {
	const k = 20
	for _, ds := range []string{"Meetup", "Concerts", "Unf", "Zip"} {
		inst := benchInstance(b, ds, dataset.Params{
			K: k, NumUsers: benchUsers, Seed: 1,
			NumEvents: 3 * k, NumIntervals: k - 1,
		})
		b.Run(ds, func(b *testing.B) {
			runAlgos(b, inst, k, []string{"ALG", "INC", "HOR", "HOR-I", "TOP"})
		})
	}
}

// BenchmarkFig10b — the search-space comparison (assignments examined) of
// ALG vs INC; the examined counter is reported as a metric.
func BenchmarkFig10b(b *testing.B) {
	const k = 20
	inst := benchInstance(b, "Unf", dataset.Params{
		K: k, NumUsers: benchUsers, Seed: 1,
		NumEvents: 3 * k, NumIntervals: 3 * k / 2,
	})
	for _, name := range []string{"ALG", "INC"} {
		s, _ := algo.New(name, 1)
		b.Run(name, func(b *testing.B) {
			var examined int64
			for i := 0; i < b.N; i++ {
				res, err := s.Schedule(inst, k)
				if err != nil {
					b.Fatal(err)
				}
				examined = res.Examined
			}
			b.ReportMetric(float64(examined), "examined")
		})
	}
}

// BenchmarkAblationBounds — how much the Φ bound saves per interest
// distribution: the paper observes the bound-based methods (INC, HOR-I)
// degrade on Unf because uniform scores cluster tightly, while on Zip the
// bound prunes most updates. The score-evals metric is the signal.
func BenchmarkAblationBounds(b *testing.B) {
	const k = 20
	for _, ds := range []string{"Unf", "Zip"} {
		inst := benchInstance(b, ds, dataset.Params{
			K: k, NumUsers: benchUsers, Seed: 1,
			NumEvents: 3 * k, NumIntervals: k / 2, // k > |T|: updates dominate
		})
		b.Run(ds, func(b *testing.B) {
			runAlgos(b, inst, k, []string{"ALG", "INC", "HOR", "HOR-I"})
		})
	}
}

// BenchmarkAblationDenomCache — the per-interval per-user denominator cache
// that makes Eq. 4 an O(|U|) pass: Cached uses the engine's running sums,
// Recompute rebuilds the assigned-interest sum from the event list on every
// evaluation (what a naive implementation of Eq. 4 would do).
func BenchmarkAblationDenomCache(b *testing.B) {
	const k = 20
	inst := benchInstance(b, "Zip", dataset.Params{
		K: k, NumUsers: benchUsers, Seed: 1,
		NumEvents: 3 * k, NumIntervals: k / 2,
	})
	sc := core.NewScorer(inst)
	s := core.NewSchedule(inst)
	// Reserve event 0 as the probe, then pack interval 0 with a few more
	// events so the cache has work to beat. Both variants only read the
	// schedule, so probe feasibility does not matter.
	const probe = 0
	packed := 0
	for e := 1; e < inst.NumEvents() && packed < 3; e++ {
		if s.Valid(e, 0) {
			if err := s.Assign(e, 0); err != nil {
				b.Fatal(err)
			}
			packed++
		}
	}
	if packed == 0 {
		b.Fatal("could not pack interval 0")
	}
	b.Run("Cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = sc.Score(s, probe, 0)
		}
	})
	b.Run("Recompute", func(b *testing.B) {
		events := s.EventsAt(0)
		nU := inst.NumUsers()
		for i := 0; i < b.N; i++ {
			gain := 0.0
			for u := 0; u < nU; u++ {
				a := 0.0
				for _, e := range events {
					a += inst.Interest(u, e)
				}
				c := sc.CompetingSum(u, 0)
				m := inst.Interest(u, probe)
				oldD := c + a
				newD := oldD + m
				if newD == 0 {
					continue
				}
				before := 0.0
				if oldD > 0 {
					before = a / oldD
				}
				gain += inst.Activity(u, 0) * ((a+m)/newD - before)
			}
			_ = gain
		}
	})
}

// BenchmarkScore — the single Eq. 4 evaluation that every complexity bound
// counts; allocation-free by design.
func BenchmarkScore(b *testing.B) {
	inst := benchInstance(b, "Zip", dataset.Params{
		K: 20, NumUsers: benchUsers, Seed: 1,
	})
	sc := core.NewScorer(inst)
	s := core.NewSchedule(inst)
	if err := s.Assign(0, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sc.Score(s, 1, 0)
	}
}

// BenchmarkUtility — full Ω recomputation of a k-sized schedule.
func BenchmarkUtility(b *testing.B) {
	inst := benchInstance(b, "Zip", dataset.Params{
		K: 20, NumUsers: benchUsers, Seed: 1,
	})
	res, err := algo.HOR{}.Schedule(inst, 20)
	if err != nil {
		b.Fatal(err)
	}
	sc := core.NewScorer(inst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sc.Utility(res.Schedule)
	}
}

// BenchmarkGenerate — dataset generation throughput for the three families.
func BenchmarkGenerate(b *testing.B) {
	for _, ds := range []string{"Meetup", "Concerts", "Unf"} {
		b.Run(ds, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dataset.ByName(ds, dataset.Params{K: 10, NumUsers: 500, Seed: uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelScore — the engine's single-evaluation break-even: one
// Eq. 4 evaluation over 100K users, sequential vs user-sharded.
func BenchmarkParallelScore(b *testing.B) {
	inst := benchInstance(b, "Unf", dataset.Params{K: 4, NumUsers: 100_000, Seed: 1})
	s := core.NewSchedule(inst)
	if err := s.Assign(0, 0); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		en, err := score.New(inst, core.ScorerOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = en.Score(s, 1, 0)
			}
		})
		en.Close()
	}
}

// BenchmarkParallelBatch — the engine's frontier fan-out: scoring an
// ALG-style |E|×|T| candidate grid in one ScoreBatch call, sequential vs
// parallel. This is the shape of every scheduler's dominant phase.
func BenchmarkParallelBatch(b *testing.B) {
	inst := benchInstance(b, "Unf", dataset.Params{K: 8, NumUsers: 20_000, Seed: 1})
	s := core.NewSchedule(inst)
	var cands []score.Candidate
	for e := 0; e < inst.NumEvents(); e++ {
		for t := 0; t < inst.NumIntervals(); t++ {
			cands = append(cands, score.Candidate{Event: e, Interval: t})
		}
	}
	out := make([]float64, len(cands))
	for _, workers := range []int{1, 2, 4, 8} {
		en, err := score.New(inst, core.ScorerOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := en.ScoreBatch(context.Background(), s, cands, out); err != nil {
					b.Fatal(err)
				}
			}
		})
		en.Close()
	}
}
