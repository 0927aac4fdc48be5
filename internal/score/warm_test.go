package score

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
)

// fullGrid returns every (e, t) candidate of the instance.
func fullGrid(inst *core.Instance) []Candidate {
	cands := make([]Candidate, 0, inst.NumEvents()*inst.NumIntervals())
	for e := 0; e < inst.NumEvents(); e++ {
		for tv := 0; tv < inst.NumIntervals(); tv++ {
			cands = append(cands, Candidate{Event: e, Interval: tv})
		}
	}
	return cands
}

// mutateStep applies one mixed mutation to a snapshot and returns the
// successor plus the delta the snapshot chain reports. Varies with step so a
// chain dirties different cells each time; the mutation always changes
// values (never a no-op write) so stale reuse would be visible.
func mutateStep(t *testing.T, inst *core.Instance, step int) (*core.Instance, core.ScorerDelta) {
	t.Helper()
	next := inst.Snapshot()
	nU := next.NumUsers()
	next.SetInterest((step*5)%nU, step%next.NumEvents(), 0.911)
	if nc := next.NumCompeting(); nc > 0 {
		next.SetCompetingInterest((step+3)%nU, step%nc, 0.177)
	}
	next.SetActivity((step*7)%nU, (step+1)%next.NumIntervals(), 0.633)
	return next, core.SnapshotDelta(inst, next)
}

// TestWarmEngineBitIdentical: across a chain of mutations, an engine built
// warm via NewFromPrevious produces bitwise-identical scores to a cold
// engine of the same snapshot — full empty-schedule grids (the cached path),
// partial-schedule batches, single evaluations and utilities — at every
// worker count.
func TestWarmEngineBitIdentical(t *testing.T) {
	base := testInstance(3, 9, 4, 6, 700)
	for _, workers := range []int{0, 3, 8} {
		opts := core.ScorerOptions{Workers: workers}
		cur := base
		prev, err := New(cur, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Populate the previous engine's grid the way a solve would.
		grid := fullGrid(cur)
		out := make([]float64, len(grid))
		if err := prev.ScoreBatch(context.Background(), core.NewSchedule(cur), grid, out); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 4; step++ {
			next, d := mutateStep(t, cur, step)
			cold, err := New(next, opts)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := NewFromPrevious(prev, next, opts, d)
			if err != nil {
				t.Fatal(err)
			}
			co, wo := make([]float64, len(grid)), make([]float64, len(grid))
			empty := core.NewSchedule(next)
			if err := cold.ScoreBatch(context.Background(), empty, grid, co); err != nil {
				t.Fatal(err)
			}
			if err := warm.ScoreBatch(context.Background(), empty, grid, wo); err != nil {
				t.Fatal(err)
			}
			for i := range co {
				if co[i] != wo[i] {
					t.Fatalf("workers=%d step=%d empty-schedule grid[%d]: cold=%x warm=%x",
						workers, step, i, co[i], wo[i])
				}
			}
			s := testSchedule(t, next)
			if err := cold.ScoreBatch(context.Background(), s, grid, co); err != nil {
				t.Fatal(err)
			}
			if err := warm.ScoreBatch(context.Background(), s, grid, wo); err != nil {
				t.Fatal(err)
			}
			for i := range co {
				if co[i] != wo[i] {
					t.Fatalf("workers=%d step=%d partial-schedule grid[%d]: cold=%x warm=%x",
						workers, step, i, co[i], wo[i])
				}
			}
			if cs, ws := cold.Score(s, 0, 0), warm.Score(s, 0, 0); cs != ws {
				t.Fatalf("workers=%d step=%d Score: cold=%x warm=%x", workers, step, cs, ws)
			}
			if cu, wu := cold.Utility(s), warm.Utility(s); cu != wu {
				t.Fatalf("workers=%d step=%d Utility: cold=%x warm=%x", workers, step, cu, wu)
			}
			cold.Close()
			prev.Close()
			cur, prev = next, warm
		}
		prev.Close()
	}
}

// TestGridCacheServesRepeats: a second empty-schedule batch on the same
// engine is served from the grid (GridHits moves, Evals does not) with
// identical values, and a warm engine inherits the clean entries.
func TestGridCacheServesRepeats(t *testing.T) {
	inst := testInstance(4, 6, 3, 2, 300)
	en, err := New(inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	grid := fullGrid(inst)
	a, b := make([]float64, len(grid)), make([]float64, len(grid))
	if err := en.ScoreBatch(context.Background(), core.NewSchedule(inst), grid, a); err != nil {
		t.Fatal(err)
	}
	st1 := en.Stat()
	if st1.GridHits != 0 {
		t.Fatalf("first batch reported %d grid hits", st1.GridHits)
	}
	if err := en.ScoreBatch(context.Background(), core.NewSchedule(inst), grid, b); err != nil {
		t.Fatal(err)
	}
	st2 := en.Stat()
	if st2.GridHits != int64(len(grid)) {
		t.Fatalf("repeat batch: %d grid hits, want %d", st2.GridHits, len(grid))
	}
	if st2.Evals != st1.Evals {
		t.Fatalf("repeat batch recomputed: evals %d -> %d", st1.Evals, st2.Evals)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cached grid[%d] differs: %x vs %x", i, a[i], b[i])
		}
	}

	// A warm successor with a one-event delta recomputes only that row.
	next := inst.Snapshot()
	next.SetInterest(1, 2, 0.5)
	warm, err := NewFromPrevious(en, next, core.ScorerOptions{}, core.SnapshotDelta(inst, next))
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if err := warm.ScoreBatch(context.Background(), core.NewSchedule(next), grid, b); err != nil {
		t.Fatal(err)
	}
	st := warm.Stat()
	wantHits := int64(len(grid) - inst.NumIntervals())
	if st.GridHits != wantHits || st.Evals != int64(inst.NumIntervals()) {
		t.Fatalf("warm batch: hits=%d evals=%d, want hits=%d evals=%d",
			st.GridHits, st.Evals, wantHits, inst.NumIntervals())
	}
}

// TestWarmEngineRejects: option mismatches surface as errors, not silently
// wrong engines.
func TestWarmEngineRejects(t *testing.T) {
	inst := testInstance(5, 4, 3, 1, 50)
	en, err := New(inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	if _, err := NewFromPrevious(nil, inst, core.ScorerOptions{}, core.ScorerDelta{}); err == nil {
		t.Fatal("nil previous engine accepted")
	}
	w := make([]float64, inst.NumUsers())
	if _, err := NewFromPrevious(en, inst, core.ScorerOptions{UserWeights: w}, core.ScorerDelta{}); err == nil {
		t.Fatal("weight-option mismatch accepted")
	}
	if _, err := NewFromPrevious(en, inst, core.ScorerOptions{}, core.ScorerDelta{Events: []int{99}}); err == nil {
		t.Fatal("out-of-range delta accepted")
	}
}

// TestGridCacheConcurrent: overlapping empty-schedule batches on one shared
// engine (the sesd sharing pattern) race-cleanly agree on every value.
func TestGridCacheConcurrent(t *testing.T) {
	inst := testInstance(6, 10, 5, 4, 900)
	en, err := New(inst, core.ScorerOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	grid := fullGrid(inst)
	ref := make([]float64, len(grid))
	sc := core.NewScorer(inst)
	for i, cd := range grid {
		ref[i] = sc.Score(core.NewSchedule(inst), cd.Event, cd.Interval)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, len(grid))
			for r := 0; r < 3; r++ {
				if err := en.ScoreBatch(context.Background(), core.NewSchedule(inst), grid, out); err != nil {
					t.Error(err)
					return
				}
				for i := range out {
					if out[i] != ref[i] {
						t.Errorf("concurrent grid[%d] = %x, want %x", i, out[i], ref[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
