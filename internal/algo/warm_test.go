package algo

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/score"
)

// resolveMutate applies a small deterministic mutation for step i, the way
// the server applies a MutateRequest.
func resolveMutate(inst *core.Instance, i int) {
	inst.SetInterest((i*7)%inst.NumUsers(), (i*3)%inst.NumEvents(), float64(i%10)/10)
	if nC := inst.NumCompeting(); nC > 0 {
		inst.SetCompetingInterest((i*11)%inst.NumUsers(), (i*5)%nC, float64((i+3)%10)/10)
	}
	inst.SetActivity((i*13)%inst.NumUsers(), (i*2)%inst.NumIntervals(), float64((i+5)%10)/10)
}

func sameResult(t *testing.T, label string, warm, cold *Result) {
	t.Helper()
	if warm.Utility != cold.Utility {
		t.Errorf("%s: utility %v warm vs %v cold", label, warm.Utility, cold.Utility)
	}
	if warm.Counters != cold.Counters {
		t.Errorf("%s: counters %+v warm vs %+v cold", label, warm.Counters, cold.Counters)
	}
	gw, gc := warm.Schedule.Assignments(), cold.Schedule.Assignments()
	if len(gw) != len(gc) {
		t.Fatalf("%s: %d selections warm vs %d cold", label, len(gw), len(gc))
	}
	for j := range gw {
		if gw[j] != gc[j] {
			t.Errorf("%s: selection %d = %+v warm vs %+v cold", label, j, gw[j], gc[j])
		}
	}
}

// solveOn runs the named scheduler (seed 9, k 5) on en's instance — the same
// call sesd makes for a re-solve.
func solveOn(t *testing.T, name string, en *score.Engine) *Result {
	t.Helper()
	sched, err := NewWithEngine(name, 9, en)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.ScheduleCtx(context.Background(), en.Instance(), 5)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// The bit-identity gate of the incremental re-solve feature: across a chain of
// mutations, every scheduler run on a warm delta-rebuilt engine must be
// bit-identical — utility, ScoreEvals, Examined, selection sequence — to the
// same scheduler on a cold engine of the mutated instance, at every worker
// count. This is the algo-level half of the CI parallel-equality gate
// (engine-level bit-identity lives in score's TestWarmEngineBitIdentical).
func TestResolveExactMatchesCold(t *testing.T) {
	for _, workers := range []int{0, 3, 8} {
		opts := core.ScorerOptions{Workers: workers}
		inst := randomInstance(61, 14, 6, 5, 150, 5)
		warm, err := score.New(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		for step := 1; step <= 3; step++ {
			next := inst.Snapshot()
			resolveMutate(next, step)
			w2, err := score.NewFromPrevious(warm, next, opts, core.SnapshotDelta(inst, next))
			if err != nil {
				t.Fatal(err)
			}
			warm.Close()
			warm, inst = w2, next
			cold, err := score.New(inst, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range Names() {
				rw := solveOn(t, name, warm)
				rc := solveOn(t, name, cold)
				label := name + " w=" + string(rune('0'+workers))
				sameResult(t, label, rw, rc)
			}
			cold.Close()
		}
		warm.Close()
	}
}
