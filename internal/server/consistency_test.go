package server

import (
	"context"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/score"
	"repro/internal/seio"
)

// TestVersionedCacheConsistency is the server-level half of the incremental
// re-solve equality gate: drive PATCH → solve → PATCH → re-solve chains over
// HTTP — so every post-mutation solve runs on whatever engine the cache
// warm-rebuilt from the previous version — and require each response bit-identical
// (utility, assignments, ScoreEvals, Examined) to a cold in-process solve of
// the instance document the server itself serves back at that version.
// Table-driven over dense and sparse representations and scoring worker
// counts, because the warm path must not depend on either.
func TestVersionedCacheConsistency(t *testing.T) {
	sparseDoc, denseDoc := sparseUpload(t, 120, 17)
	muts := []seio.MutateRequest{
		{Interest: []seio.CellUpdate{{User: 3, Index: 0, Value: 0.8}},
			Activity: []seio.CellUpdate{{User: 5, Index: 1, Value: 0.6}}},
		{Interest: []seio.CellUpdate{{User: 7, Index: 2, Value: 0.1}}},
		{Interest: []seio.CellUpdate{{User: 3, Index: 1, Value: 0.4}},
			Activity: []seio.CellUpdate{{User: 2, Index: 0, Value: 0.9}}},
	}
	for _, tc := range []struct {
		label string
		doc   []byte
	}{{"dense", denseDoc}, {"sparse", sparseDoc}} {
		for _, workers := range []int{0, 3, 8} {
			t.Run(fmt.Sprintf("%s/w%d", tc.label, workers), func(t *testing.T) {
				srv, ts := newTestServer(t, Config{Workers: 2, Queue: 16, ScoreWorkers: workers})
				c := ts.Client()
				do(t, c, "PUT", ts.URL+"/instances/x", tc.doc, http.StatusCreated, nil)

				for step, m := range muts {
					var info seio.InstanceInfo
					do(t, c, "PATCH", ts.URL+"/instances/x", jsonBody(t, m), http.StatusOK, &info)
					if info.Version != uint64(step+2) {
						t.Fatalf("step %d: version %d, want %d", step, info.Version, step+2)
					}

					// The cold reference input is the document the server
					// itself serves at this version — no shared state with
					// the warm path below.
					resp, err := c.Get(ts.URL + "/instances/x")
					if err != nil {
						t.Fatal(err)
					}
					inst, err := seio.ReadInstance(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Fatal(err)
					}
					cold, err := score.New(inst, core.ScorerOptions{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}

					for _, name := range algo.Names() {
						var warm seio.SolveResponse
						body := jsonBody(t, seio.SolveRequest{Algorithm: name, K: 3, Seed: 5})
						do(t, c, "POST", ts.URL+"/instances/x/solve", body, http.StatusOK, &warm)
						if warm.Cached {
							t.Fatalf("step %d %s: first solve claimed cached", step, name)
						}
						sched, err := algo.NewWithEngine(name, 5, cold)
						if err != nil {
							t.Fatal(err)
						}
						res, err := sched.ScheduleCtx(context.Background(), inst, 3)
						if err != nil {
							t.Fatal(err)
						}
						ref := seio.NewScheduleMsg(inst, res.Schedule)
						label := fmt.Sprintf("step %d %s", step, name)
						if warm.Schedule.Utility != ref.Utility {
							t.Errorf("%s: utility %v warm vs %v cold", label, warm.Schedule.Utility, ref.Utility)
						}
						if warm.ScoreEvals != res.ScoreEvals || warm.Examined != res.Examined {
							t.Errorf("%s: counters %d/%d warm vs %d/%d cold",
								label, warm.ScoreEvals, warm.Examined, res.ScoreEvals, res.Examined)
						}
						if len(warm.Schedule.Assignments) != len(ref.Assignments) {
							t.Fatalf("%s: %d assignments warm vs %d cold",
								label, len(warm.Schedule.Assignments), len(ref.Assignments))
						}
						for i := range ref.Assignments {
							if warm.Schedule.Assignments[i] != ref.Assignments[i] {
								t.Errorf("%s: assignment %d = %+v warm vs %+v cold",
									label, i, warm.Schedule.Assignments[i], ref.Assignments[i])
							}
						}

						// The identical re-solve must come from the result
						// cache, byte-equal in the fields that matter.
						var again seio.SolveResponse
						do(t, c, "POST", ts.URL+"/instances/x/solve", body, http.StatusOK, &again)
						if !again.Cached {
							t.Errorf("%s: repeat solve missed the cache", label)
						}
						if again.Schedule.Utility != warm.Schedule.Utility || again.ScoreEvals != warm.ScoreEvals {
							t.Errorf("%s: cached replay diverged", label)
						}
					}
					cold.Close()
				}
				if srv.engines.warmBuilds.Load() == 0 {
					t.Error("mutation chain never exercised the warm-rebuild path")
				}
			})
		}
	}
}
