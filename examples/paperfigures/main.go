// Paperfigures: prints the paper's worked artifacts straight from the
// engine — the Figure 2 (ALG) and Figure 4 (HOR) execution tables on the
// Figure 1 running example, and the Theorem 1 hardness construction with
// its certified optimum.
//
// Run with: go run ./examples/paperfigures
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hardness"
	"repro/internal/opt"
	"repro/internal/trace"
)

func main() {
	inst := core.RunningExample()

	fmt.Println("=== Figure 2: ALG on the running example (k = 3) ===")
	fmt.Println("(selected assignment bracketed; * = score updated before this step;")
	fmt.Println(" - = event already scheduled; x = infeasible. The paper prints")
	fmt.Println(" α(e1,t2) = 0.34 in row 2 — Eq. 4 gives 0.13; see README \"Deviations from the paper\".)")
	fmt.Println()
	ta, err := trace.ALG(inst, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ta.Render())

	fmt.Println("=== Figure 4: HOR on the running example (k = 3) ===")
	th, err := trace.HOR(inst, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(th.Render())

	fmt.Println("=== Exact optimum (branch and bound) ===")
	res, err := opt.Solve(inst, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greedy Ω = 1.4073 (Figure 2's schedule); true optimum Ω = %.4f: %v\n",
		res.Utility, res.Schedule)
	fmt.Println("— greedy is not optimal even on the paper's own example.")
	fmt.Println()

	fmt.Println("=== Theorem 1: 3DM-3 → SES reduction ===")
	p := hardness.PerfectInstance(2, []hardness.Triple{{X: 0, Y: 1, Z: 1}})
	red, err := hardness.Reduce(p, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3DM-3: n = %d, m = %d edges → SES: |E| = %d, |T| = %d, |U| = %d, k = %d, δ = %v\n",
		p.N, len(p.Edges), red.Inst.NumEvents(), red.Inst.NumIntervals(),
		red.Inst.NumUsers(), red.K, red.Delta)
	sched, err := red.ScheduleForMatching([]int{0, 1})
	if err != nil {
		log.Fatal(err)
	}
	sc := core.NewScorer(red.Inst)
	fmt.Printf("perfect matching {(0,0,0),(1,1,1)} → schedule %v\n", sched)
	fmt.Printf("utility = %.4f (proof predicts 3n(0.25+δ) + (m−n) = %.4f)\n",
		sc.Utility(sched), red.MatchingUtility(2))
	best, err := opt.Solve(red.Inst, red.K)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exhaustive optimum = %.4f — the matching schedule is optimal, as the reduction requires\n", best.Utility)
}
