package score

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/seio"
)

// sparsify zeroes two thirds of the interest cells (deterministically) so a
// sparse copy carries real nonzero lists rather than full columns.
func sparsify(inst *core.Instance) {
	for u := 0; u < inst.NumUsers(); u++ {
		for e := 0; e < inst.NumEvents(); e++ {
			if (u+e)%3 != 0 {
				inst.SetInterest(u, e, 0)
			}
		}
		for c := 0; c < inst.NumCompeting(); c++ {
			if (u+c)%3 != 1 {
				inst.SetCompetingInterest(u, c, 0)
			}
		}
	}
}

// requireMsgBits fails unless the message built from the engine's scorer is
// bit-identical to the cold NewScheduleMsg of the same schedule.
func requireMsgBits(t *testing.T, label string, en *Engine, s *core.Schedule) {
	t.Helper()
	got := seio.ScheduleMsgFrom(en.Scorer(), s)
	want := seio.NewScheduleMsg(en.Instance(), s)
	if math.Float64bits(got.Utility) != math.Float64bits(want.Utility) {
		t.Fatalf("%s: utility %x from engine vs %x cold", label, got.Utility, want.Utility)
	}
	if len(got.Assignments) != len(want.Assignments) || len(want.Assignments) == 0 {
		t.Fatalf("%s: %d assignments from engine vs %d cold", label, len(got.Assignments), len(want.Assignments))
	}
	for i, w := range want.Assignments {
		g := got.Assignments[i]
		if math.Float64bits(g.Expected) != math.Float64bits(w.Expected) {
			t.Fatalf("%s: assignment %d expected %x from engine vs %x cold", label, i, g.Expected, w.Expected)
		}
		if g != w {
			t.Fatalf("%s: assignment %d = %+v from engine vs %+v cold", label, i, g, w)
		}
	}
}

// TestScheduleMsgFromEngineBitIdentical: a response built from the solving
// engine's scorer carries exactly the bits of the cold NewScheduleMsg — on
// dense and sparse instances, cold and warm engines (after a one-cell
// interest, competing and activity mutation), with and without user weights
// and event costs, at every worker count. A weighted or costed engine still
// reports the plain Eq. 3 and Eq. 2 values.
func TestScheduleMsgFromEngineBitIdentical(t *testing.T) {
	dense := testInstance(41, 8, 4, 5, core.ShardUsers+900)
	sparsify(dense)
	nU, nE := dense.NumUsers(), dense.NumEvents()
	weights := make([]float64, nU)
	for u := range weights {
		weights[u] = 0.25 + float64(u%5)
	}
	costs := make([]float64, nE)
	for e := range costs {
		costs[e] = 3 * float64(e%3)
	}
	for _, rep := range []struct {
		label string
		inst  *core.Instance
	}{{"dense", dense}, {"sparse", sparseCopy(t, dense)}} {
		for _, opt := range []struct {
			label string
			opts  core.ScorerOptions
		}{{"plain", core.ScorerOptions{}}, {"weighted+costed", core.ScorerOptions{UserWeights: weights, EventCost: costs}}} {
			for _, workers := range []int{0, 3} {
				label := fmt.Sprintf("%s/%s/w%d", rep.label, opt.label, workers)
				opts := opt.opts
				opts.Workers = workers
				cold, err := New(rep.inst, opts)
				if err != nil {
					t.Fatal(err)
				}
				s := testSchedule(t, rep.inst)
				requireMsgBits(t, label+"/cold", cold, s)
				if opts.UserWeights == nil {
					if cold.Scorer().Plain() != cold.Scorer() {
						t.Fatalf("%s: Plain of an unoptioned scorer is not the scorer itself", label)
					}
				} else if cold.Utility(s) == seio.ScheduleMsgFrom(cold.Scorer(), s).Utility {
					t.Fatalf("%s: weighted utility equals the plain one; the case proves nothing", label)
				}

				next, d := mutateStep(t, rep.inst, 1)
				warm, err := NewFromPrevious(cold, next, opts, d)
				if err != nil {
					t.Fatal(err)
				}
				requireMsgBits(t, label+"/warm", warm, testSchedule(t, next))
				warm.Close()
				cold.Close()
			}
		}
	}
}
