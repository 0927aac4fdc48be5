package server

import (
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/seio"
)

// getInstance fetches the document the server serves for name.
func getInstance(t *testing.T, c *http.Client, url string) *core.Instance {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	inst, err := seio.ReadInstance(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// requirePlainMsg fails unless msg is exactly the cold NewScheduleMsg of the
// schedule it describes on inst.
func requirePlainMsg(t *testing.T, label string, inst *core.Instance, msg seio.ScheduleMsg) {
	t.Helper()
	s, err := msg.Replay(inst)
	if err != nil {
		t.Fatal(err)
	}
	if want := seio.NewScheduleMsg(inst, s); !reflect.DeepEqual(msg, want) {
		t.Fatalf("%s: response schedule\n%+v\nwant the plain evaluation\n%+v", label, msg, want)
	}
}

// TestWeightedResponsesReportPlainValues pins the reporting semantics of the
// engine-built responses: user weights and event costs steer the solve, but
// the response's utility and expected attendance are the plain Eq. 3 and
// Eq. 2 values — exactly what NewScheduleMsg computes — on the solve, extend
// and sweep-job paths.
func TestWeightedResponsesReportPlainValues(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Queue: 8})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/x", testInstanceJSON(t, 3, 40, 9), http.StatusCreated, nil)
	inst := getInstance(t, c, ts.URL+"/instances/x")

	weights := make([]float64, inst.NumUsers())
	for u := range weights {
		weights[u] = float64(u%4) + 0.5
	}
	costs := make([]float64, inst.NumEvents())
	for e := range costs {
		costs[e] = 0.1 * float64(e%3)
	}

	var solved seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/x/solve",
		jsonBody(t, seio.SolveRequest{Algorithm: "HOR-I", K: 3, UserWeights: weights, EventCosts: costs}), http.StatusOK, &solved)
	requirePlainMsg(t, "solve", inst, solved.Schedule)

	var extended seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/x/extend",
		jsonBody(t, seio.ExtendRequest{Base: solved.Schedule.Assignments[:1], Extra: 2, UserWeights: weights}), http.StatusOK, &extended)
	requirePlainMsg(t, "extend", inst, extended.Schedule)

	var st seio.JobStatusMsg
	do(t, c, "POST", ts.URL+"/instances/x/jobs",
		jsonBody(t, seio.JobRequest{Algorithms: []string{"ALG", "HOR"}, Ks: []int{2}, EventCosts: costs}), http.StatusAccepted, &st)
	st = pollJob(t, c, ts.URL, st.ID, 10*time.Second)
	if st.Status != seio.JobDone {
		t.Fatalf("job finished %q", st.Status)
	}
	for _, cell := range st.Cells {
		requirePlainMsg(t, "job cell "+cell.Algorithm, inst, cell.Result.Schedule)
	}
}

// TestSummarizeMatchesTwoBuildOutput: /summarize builds one scorer for both
// the schedule message and the report text, and its response is exactly the
// one the separate NewScheduleMsg and ses.Summarize builds produced.
func TestSummarizeMatchesTwoBuildOutput(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Queue: 4})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/x", testInstanceJSON(t, 4, 60, 2), http.StatusCreated, nil)
	inst := getInstance(t, c, ts.URL+"/instances/x")

	var solved seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/x/solve", jsonBody(t, seio.SolveRequest{K: 4}), http.StatusOK, &solved)
	var got seio.SummarizeResponse
	do(t, c, "POST", ts.URL+"/instances/x/summarize",
		jsonBody(t, seio.SummarizeRequest{Schedule: solved.Schedule.Assignments}), http.StatusOK, &got)

	s, err := solved.Schedule.Replay(inst)
	if err != nil {
		t.Fatal(err)
	}
	want := seio.SummarizeResponse{
		Instance: got.Instance,
		Schedule: seio.NewScheduleMsg(inst, s),
		Text:     ses.Summarize(inst, s).String(),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("summarize response\n%+v\nwant the two-build output\n%+v", got, want)
	}
}
