// Package trace re-executes the greedy algorithms with full score-table
// recording, producing the step-by-step tables of the paper's Figures 2
// (ALG) and 4 (HOR). The running example rendered through this package
// reproduces the published figures line by line (one erratum aside, see
// README "Deviations from the paper"), which is the strongest possible check
// that the selection and update rules match the paper's.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/score"
)

// traceEngine builds the sequential scoring engine the traces score with.
// Using the engine — not a bare core.Scorer — matters: the engine sums in
// fixed user shards, so traced scores associate floats exactly like the
// algo schedulers and the "selections equal algo's exactly" assertions hold
// at any |U|, not just below one shard.
func traceEngine(inst *core.Instance) (*score.Engine, error) {
	return score.New(inst, core.ScorerOptions{})
}

// Cell is one score-table entry for assignment α_e^t at some step.
type Cell struct {
	Score float64
	// Gone marks assignments of already-selected events (the paper's "–").
	Gone bool
	// Infeasible marks assignments ruled out by location/resource
	// constraints (the paper's "×").
	Infeasible bool
	// Updated marks scores recomputed right before this step's selection
	// (the paper's "Update" column content of the previous row).
	Updated bool
}

// Step is one selection round: the full score table as the algorithm saw it,
// and the assignment it selected.
type Step struct {
	// Table is indexed [event][interval].
	Table    [][]Cell
	Selected core.Assignment
}

// Trace is a recorded greedy execution.
type Trace struct {
	Algorithm string
	Steps     []Step
	inst      *core.Instance
}

// ALG re-runs the paper's baseline greedy with recording. The resulting
// selections are asserted (by tests) to equal algo.ALG's exactly.
func ALG(inst *core.Instance, k int) (*Trace, error) {
	if k <= 0 {
		return nil, algo.ErrBadK
	}
	sc, err := traceEngine(inst)
	if err != nil {
		return nil, err
	}
	s := core.NewSchedule(inst)
	nE, nT := inst.NumEvents(), inst.NumIntervals()
	scores := make([]float64, nE*nT)
	updated := make([]bool, nE*nT)
	for e := 0; e < nE; e++ {
		for t := 0; t < nT; t++ {
			scores[e*nT+t] = sc.Score(s, e, t)
		}
	}
	tr := &Trace{Algorithm: "ALG", inst: inst}
	for s.Len() < k {
		// Snapshot the table exactly as the selection loop sees it.
		step := Step{Table: snapshot(inst, s, scores, updated)}
		for i := range updated {
			updated[i] = false
		}
		bestE, bestT := -1, -1
		bestScore := 0.0
		for e := 0; e < nE; e++ {
			if _, taken := s.AssignedInterval(e); taken {
				continue
			}
			for t := 0; t < nT; t++ {
				if !s.Feasible(e, t) {
					continue
				}
				sv := scores[e*nT+t]
				if bestE < 0 || better(sv, e, t, bestScore, bestE, bestT) {
					bestE, bestT, bestScore = e, t, sv
				}
			}
		}
		if bestE < 0 {
			break
		}
		if err := s.Assign(bestE, bestT); err != nil {
			return nil, err
		}
		step.Selected = core.Assignment{Event: bestE, Interval: bestT}
		tr.Steps = append(tr.Steps, step)
		if s.Len() >= k {
			break
		}
		for e := 0; e < nE; e++ {
			if _, taken := s.AssignedInterval(e); taken {
				continue
			}
			if !s.Feasible(e, bestT) {
				continue
			}
			scores[e*nT+bestT] = sc.Score(s, e, bestT)
			updated[e*nT+bestT] = true
		}
	}
	return tr, nil
}

// HOR re-runs the horizontal algorithm with per-layer recording (the
// paper's Figure 4): each layer snapshots the freshly recomputed table, then
// selections within the layer are recorded against that table.
func HOR(inst *core.Instance, k int) (*Trace, error) {
	if k <= 0 {
		return nil, algo.ErrBadK
	}
	sc, err := traceEngine(inst)
	if err != nil {
		return nil, err
	}
	s := core.NewSchedule(inst)
	nE, nT := inst.NumEvents(), inst.NumIntervals()
	tr := &Trace{Algorithm: "HOR", inst: inst}
	scores := make([]float64, nE*nT)
	updated := make([]bool, nE*nT)
	firstLayer := true
	for s.Len() < k {
		// Layer start: recompute everything valid.
		for e := 0; e < nE; e++ {
			for t := 0; t < nT; t++ {
				if s.Valid(e, t) {
					scores[e*nT+t] = sc.Score(s, e, t)
					updated[e*nT+t] = !firstLayer
				}
			}
		}
		firstLayer = false
		// Select one per interval, greedy over interval tops.
		taken := make([]bool, nT)
		made := 0
		for s.Len() < k {
			bestE, bestT := -1, -1
			bestScore := 0.0
			for t := 0; t < nT; t++ {
				if taken[t] {
					continue
				}
				for e := 0; e < nE; e++ {
					if !s.Valid(e, t) {
						continue
					}
					sv := scores[e*nT+t]
					if bestE < 0 || better(sv, e, t, bestScore, bestE, bestT) {
						bestE, bestT, bestScore = e, t, sv
					}
				}
			}
			if bestE < 0 {
				break
			}
			step := Step{Table: snapshot(inst, s, scores, updated)}
			for i := range updated {
				updated[i] = false
			}
			if err := s.Assign(bestE, bestT); err != nil {
				return nil, err
			}
			taken[bestT] = true
			step.Selected = core.Assignment{Event: bestE, Interval: bestT}
			tr.Steps = append(tr.Steps, step)
			made++
		}
		if made == 0 {
			break
		}
	}
	return tr, nil
}

func better(s1 float64, e1, t1 int, s2 float64, e2, t2 int) bool {
	if s1 != s2 {
		return s1 > s2
	}
	if e1 != e2 {
		return e1 < e2
	}
	return t1 < t2
}

// snapshot captures the current score table with validity markers.
func snapshot(inst *core.Instance, s *core.Schedule, scores []float64, updated []bool) [][]Cell {
	nE, nT := inst.NumEvents(), inst.NumIntervals()
	table := make([][]Cell, nE)
	for e := 0; e < nE; e++ {
		table[e] = make([]Cell, nT)
		_, taken := s.AssignedInterval(e)
		for t := 0; t < nT; t++ {
			c := Cell{Score: scores[e*nT+t], Updated: updated[e*nT+t]}
			switch {
			case taken:
				c.Gone = true
			case !s.Feasible(e, t):
				c.Infeasible = true
			}
			table[e][t] = c
		}
	}
	return table
}

// Render prints the trace as a Figure 2/4-style table: one row per
// selection, one column per assignment α_e^t, with the selected assignment
// bracketed, "–" for assignments of already-scheduled events, "×" for
// infeasible ones, and "*" suffixing freshly updated scores.
func (tr *Trace) Render() string {
	if len(tr.Steps) == 0 {
		return tr.Algorithm + ": no selections\n"
	}
	inst := tr.inst
	nE, nT := inst.NumEvents(), inst.NumIntervals()
	var b strings.Builder
	fmt.Fprintf(&b, "%s trace (%d selections)\n", tr.Algorithm, len(tr.Steps))
	// Header: α(e,t) columns, event-major like Figure 2.
	cols := make([]string, 0, nE*nT)
	for t := 0; t < nT; t++ {
		for e := 0; e < nE; e++ {
			cols = append(cols, fmt.Sprintf("a(%s,%s)", eventName(inst, e), intervalName(inst, t)))
		}
	}
	width := 0
	for _, c := range cols {
		if len(c) > width {
			width = len(c)
		}
	}
	if width < 8 {
		width = 8
	}
	b.WriteString("step  ")
	for _, c := range cols {
		fmt.Fprintf(&b, "%*s  ", width, c)
	}
	b.WriteString("selected\n")
	for i, st := range tr.Steps {
		fmt.Fprintf(&b, "%4d  ", i+1)
		for t := 0; t < nT; t++ {
			for e := 0; e < nE; e++ {
				cell := st.Table[e][t]
				var txt string
				switch {
				case cell.Gone:
					txt = "-"
				case cell.Infeasible:
					txt = "x"
				default:
					txt = fmt.Sprintf("%.2f", cell.Score)
					if cell.Updated {
						txt += "*"
					}
					if st.Selected.Event == e && st.Selected.Interval == t {
						txt = "[" + txt + "]"
					}
				}
				fmt.Fprintf(&b, "%*s  ", width, txt)
			}
		}
		fmt.Fprintf(&b, "a(%s,%s)\n",
			eventName(inst, st.Selected.Event), intervalName(inst, st.Selected.Interval))
	}
	return b.String()
}

func eventName(inst *core.Instance, e int) string {
	if n := inst.Events[e].Name; n != "" {
		return n
	}
	return fmt.Sprintf("e%d", e+1)
}

func intervalName(inst *core.Instance, t int) string {
	if n := inst.Intervals[t].Name; n != "" {
		return n
	}
	return fmt.Sprintf("t%d", t+1)
}
