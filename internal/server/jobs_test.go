package server

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/seio"
)

// pollJob polls GET /jobs/{id} until the job leaves the running state or the
// deadline passes, returning the final status.
func pollJob(t *testing.T, c *http.Client, base, id string, deadline time.Duration) seio.JobStatusMsg {
	t.Helper()
	var st seio.JobStatusMsg
	stop := time.Now().Add(deadline)
	for {
		do(t, c, "GET", base+"/jobs/"+id, nil, http.StatusOK, &st)
		if st.Status != seio.JobRunning {
			return st
		}
		if time.Now().After(stop) {
			t.Fatalf("job %s still running after %v: %+v", id, deadline, st.Counts)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobSweepMatchesSolve is the acceptance scenario: a sweep over
// {ALG, INC, HOR, HOR-I} × {k, 2k} must return per-cell utilities, schedules
// and counters bitwise-identical to synchronous /solve responses for the
// same instance version — and to running the algo package directly on the
// uploaded bytes.
func TestJobSweepMatchesSolve(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, Queue: 16})
	c := ts.Client()

	body := testInstanceJSON(t, 3, 50, 13)
	do(t, c, "PUT", ts.URL+"/instances/sweep", body, http.StatusCreated, nil)
	local, err := seio.ReadInstance(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}

	algos := []string{"ALG", "INC", "HOR", "HOR-I"}
	ks := []int{3, 6}

	// Synchronous baselines first, so the job's cache hits (if any) are
	// checked against independently computed responses.
	type cellKey struct {
		a string
		k int
	}
	solved := map[cellKey]seio.SolveResponse{}
	for _, a := range algos {
		for _, k := range ks {
			var resp seio.SolveResponse
			do(t, c, "POST", ts.URL+"/instances/sweep/solve",
				jsonBody(t, seio.SolveRequest{Algorithm: a, K: k}), http.StatusOK, &resp)
			solved[cellKey{a, k}] = resp
		}
	}

	var st seio.JobStatusMsg
	do(t, c, "POST", ts.URL+"/instances/sweep/jobs",
		jsonBody(t, seio.JobRequest{Algorithms: algos, Ks: ks}), http.StatusAccepted, &st)
	if st.ID == "" || len(st.Cells) != len(algos)*len(ks) {
		t.Fatalf("bad submit response: %+v", st)
	}
	st = pollJob(t, c, ts.URL, st.ID, 30*time.Second)
	if st.Status != seio.JobDone || st.Counts.Done != len(st.Cells) {
		t.Fatalf("job did not complete cleanly: status %s, counts %+v", st.Status, st.Counts)
	}

	for _, cell := range st.Cells {
		if cell.Result == nil {
			t.Fatalf("done cell %s k=%d has no result", cell.Algorithm, cell.K)
		}
		sync := solved[cellKey{cell.Algorithm, cell.K}]
		if cell.Result.Schedule.Utility != sync.Schedule.Utility {
			t.Errorf("%s k=%d: job utility %v != solve utility %v",
				cell.Algorithm, cell.K, cell.Result.Schedule.Utility, sync.Schedule.Utility)
		}
		if cell.Result.Instance.Version != sync.Instance.Version {
			t.Errorf("%s k=%d: job version %d != solve version %d",
				cell.Algorithm, cell.K, cell.Result.Instance.Version, sync.Instance.Version)
		}
		// Independent in-process check on the identical upload bytes.
		sched, err := algo.New(cell.Algorithm, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sched.Schedule(local, cell.K)
		if err != nil {
			t.Fatal(err)
		}
		if cell.Result.Schedule.Utility != want.Utility {
			t.Errorf("%s k=%d: job utility %v != in-process %v",
				cell.Algorithm, cell.K, cell.Result.Schedule.Utility, want.Utility)
		}
		for i, a := range cell.Result.Schedule.Assignments {
			wa := want.Schedule.Assignments()[i]
			if a.Event != wa.Event || a.Interval != wa.Interval {
				t.Errorf("%s k=%d: assignment %d drifted: e%d→t%d vs e%d→t%d",
					cell.Algorithm, cell.K, i, a.Event, a.Interval, wa.Event, wa.Interval)
			}
		}
	}

	// A mutation AFTER submit must not have leaked into the job: the job
	// pins the snapshot it was submitted against.
	stats := srv.Snapshot()
	if stats.Jobs.Submitted != 1 || stats.Jobs.CellsDone != int64(len(st.Cells)) {
		t.Errorf("job stats wrong: %+v", stats.Jobs)
	}
	var listing seio.JobListResponse
	do(t, c, "GET", ts.URL+"/jobs", nil, http.StatusOK, &listing)
	if len(listing.Jobs) != 1 || listing.Jobs[0].ID != st.ID {
		t.Errorf("bad job listing: %+v", listing)
	}

	// A late DELETE on a completed job is a no-op: the job must keep
	// reporting done, not get demoted to cancelled.
	do(t, c, "DELETE", ts.URL+"/jobs/"+st.ID, nil, http.StatusOK, &st)
	if st.Status != seio.JobDone || st.Counts.Done != len(st.Cells) {
		t.Errorf("DELETE demoted a finished job: status %q, counts %+v", st.Status, st.Counts)
	}
}

// TestJobCancellation pins the DELETE contract on a slow sweep: the running
// cell is cancelled mid-solve, queued cells retire immediately, and the job
// reports cancelled with no cell ever demoted from done.
func TestJobCancellation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Queue: 8})
	c := ts.Client()

	// A large user count makes each ALG cell take tens of milliseconds —
	// long enough that the DELETE lands mid-run.
	do(t, c, "PUT", ts.URL+"/instances/slow", testInstanceJSON(t, 12, 20000, 3), http.StatusCreated, nil)

	var st seio.JobStatusMsg
	do(t, c, "POST", ts.URL+"/instances/slow/jobs",
		jsonBody(t, seio.JobRequest{Algorithms: []string{"ALG"}, Ks: []int{12, 11, 10, 9}}),
		http.StatusAccepted, &st)

	// Wait until a cell is actually running, then cancel.
	deadline := time.Now().Add(10 * time.Second)
	for st.Counts.Running == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no cell started running: %+v", st.Counts)
		}
		do(t, c, "GET", ts.URL+"/jobs/"+st.ID, nil, http.StatusOK, &st)
	}
	var atCancel seio.JobStatusMsg
	do(t, c, "DELETE", ts.URL+"/jobs/"+st.ID, nil, http.StatusOK, &atCancel)
	if atCancel.Status == seio.JobDone {
		// The sweep won the race: every cell retired between the poll that
		// saw one running and the DELETE (engine/grid reuse makes later
		// cells very fast). Nothing was in flight to cancel; the
		// no-demotion contract is covered by TestJobSweepMatchesSolve.
		t.Logf("sweep finished before the cancel landed; counts %+v", atCancel.Counts)
		return
	}

	final := pollJob(t, c, ts.URL, st.ID, 10*time.Second)
	if final.Status != seio.JobCancelled {
		t.Fatalf("cancelled job reports status %q", final.Status)
	}
	if final.Counts.Cancelled == 0 {
		t.Fatal("cancellation retired no cells")
	}
	for i, cell := range final.Cells {
		// Cancellation is cooperative: a cell that was mid-run at DELETE may
		// legitimately finish "done" if no guard fired before its last
		// candidate. The hard contracts: a cell still PENDING at DELETE must
		// never start (it retires cancelled), and done cells stay done.
		if atCancel.Cells[i].State == seio.CellQueued && cell.State != seio.CellCancelled {
			t.Errorf("cell %d (%s k=%d) was queued at DELETE but finished %q",
				i, cell.Algorithm, cell.K, cell.State)
		}
		if atCancel.Cells[i].State == seio.CellDone && cell.State != seio.CellDone {
			t.Errorf("cell %d was done at DELETE but later reported %q", i, cell.State)
		}
	}

	// Cancelling again is a harmless no-op; the job stays pollable.
	do(t, c, "DELETE", ts.URL+"/jobs/"+st.ID, nil, http.StatusOK, &st)
	if st.Status != seio.JobCancelled {
		t.Errorf("re-cancel changed status to %q", st.Status)
	}
}

// TestJobsConcurrent hammers submit/poll/cancel from many goroutines while a
// writer keeps mutating the underlying instance, under -race. Invariants:
// cell states only move forward (a done cell is never re-reported as
// anything else), every job reaches a terminal state, and the pool drains
// cleanly on shutdown.
func TestJobsConcurrent(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 4, Queue: 32})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/x", testInstanceJSON(t, 4, 60, 17), http.StatusCreated, nil)

	terminal := func(s string) bool {
		return s == seio.CellDone || s == seio.CellFailed || s == seio.CellCancelled
	}

	const submitters = 4
	ids := make(chan string, submitters*4)
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				var st seio.JobStatusMsg
				do(t, c, "POST", ts.URL+"/instances/x/jobs",
					jsonBody(t, seio.JobRequest{Algorithms: []string{"ALG", "HOR"}, Ks: []int{3, 4}}),
					http.StatusAccepted, &st)
				ids <- st.ID

				// Poll a few times, asserting per-cell state monotonicity;
				// cancel every other job mid-flight.
				prev := map[int]string{}
				if (w+i)%2 == 0 {
					do(t, c, "DELETE", ts.URL+"/jobs/"+st.ID, nil, http.StatusOK, &st)
				}
				for p := 0; p < 10; p++ {
					do(t, c, "GET", ts.URL+"/jobs/"+st.ID, nil, http.StatusOK, &st)
					for ci, cell := range st.Cells {
						if was, ok := prev[ci]; ok && terminal(was) && cell.State != was {
							t.Errorf("job %s cell %d changed terminal state %q → %q", st.ID, ci, was, cell.State)
						}
						prev[ci] = cell.State
					}
					if st.Status != seio.JobRunning {
						break
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(w)
	}
	// Concurrent writer: the store publishes new versions while jobs solve
	// their pinned snapshots.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			body := jsonBody(t, seio.MutateRequest{
				Activity: []seio.CellUpdate{{User: i % 60, Index: 0, Value: float64(i%10) / 10}},
			})
			req, err := http.NewRequest("PATCH", ts.URL+"/instances/x", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := c.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}
	}()
	wg.Wait()
	close(ids)

	// Every job must reach a terminal state, and cancelled cells must have
	// no results attached.
	for id := range ids {
		st := pollJob(t, c, ts.URL, id, 30*time.Second)
		if st.Counts.Active() != 0 {
			t.Errorf("job %s terminal with active cells: %+v", id, st.Counts)
		}
		for ci, cell := range st.Cells {
			if cell.State == seio.CellCancelled && cell.Result != nil {
				t.Errorf("job %s cancelled cell %d carries a result", id, ci)
			}
			if cell.State == seio.CellDone && cell.Result == nil {
				t.Errorf("job %s done cell %d has no result", id, ci)
			}
		}
	}

	// Shutdown drains everything: no active workers, an empty queue, and
	// no dispatcher goroutines left (Close returns only after they exit).
	srv.Close()
	ps := srv.pool.Stats()
	if ps.Active != 0 || ps.QueueDepth != 0 {
		t.Errorf("pool did not drain on shutdown: %+v", ps)
	}
}

// TestJobValidation exercises every submit-time rejection.
func TestJobValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Queue: 4, MaxJobCells: 4})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/x", testInstanceJSON(t, 3, 20, 5), http.StatusCreated, nil)
	negCosts := make([]float64, getInstance(t, c, ts.URL+"/instances/x").NumEvents())
	negCosts[1] = -1

	for name, tc := range map[string]struct {
		body []byte
		code int
		url  string
	}{
		"no ks":            {jsonBody(t, seio.JobRequest{}), http.StatusBadRequest, "/instances/x/jobs"},
		"bad k":            {jsonBody(t, seio.JobRequest{Ks: []int{0}}), http.StatusBadRequest, "/instances/x/jobs"},
		"bad algorithm":    {jsonBody(t, seio.JobRequest{Algorithms: []string{"NOPE"}, Ks: []int{2}}), http.StatusBadRequest, "/instances/x/jobs"},
		"grid too big":     {jsonBody(t, seio.JobRequest{Ks: []int{1, 2}}), http.StatusBadRequest, "/instances/x/jobs"},
		"bad weights":      {jsonBody(t, seio.JobRequest{Ks: []int{2}, UserWeights: []float64{1}}), http.StatusBadRequest, "/instances/x/jobs"},
		"bad costs":        {jsonBody(t, seio.JobRequest{Ks: []int{2}, EventCosts: []float64{1, 2}}), http.StatusBadRequest, "/instances/x/jobs"},
		"negative cost":    {jsonBody(t, seio.JobRequest{Ks: []int{2}, EventCosts: negCosts}), http.StatusBadRequest, "/instances/x/jobs"},
		"unknown instance": {jsonBody(t, seio.JobRequest{Ks: []int{2}}), http.StatusNotFound, "/instances/none/jobs"},
		"garbage":          {[]byte("{"), http.StatusBadRequest, "/instances/x/jobs"},
	} {
		var e seio.ErrorResponse
		do(t, c, "POST", ts.URL+tc.url, tc.body, tc.code, &e)
		if e.Error == "" {
			t.Errorf("%s: empty error body", name)
		}
	}

	// Submit-time option checks reject without queueing a job.
	var list seio.JobListResponse
	do(t, c, "GET", ts.URL+"/jobs", nil, http.StatusOK, &list)
	if len(list.Jobs) != 0 {
		t.Errorf("rejected submits left %d jobs", len(list.Jobs))
	}
	do(t, c, "GET", ts.URL+"/jobs/job-999", nil, http.StatusNotFound, nil)
	do(t, c, "DELETE", ts.URL+"/jobs/job-999", nil, http.StatusNotFound, nil)
}

// TestJobTTL pins the retention contract: finished jobs expire after the
// configured TTL and vanish from lookups, listings and stats.
func TestJobTTL(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, Queue: 4, JobTTL: 30 * time.Millisecond})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/x", testInstanceJSON(t, 3, 20, 5), http.StatusCreated, nil)

	var st seio.JobStatusMsg
	do(t, c, "POST", ts.URL+"/instances/x/jobs",
		jsonBody(t, seio.JobRequest{Algorithms: []string{"HOR"}, Ks: []int{2}}), http.StatusAccepted, &st)
	st = pollJob(t, c, ts.URL, st.ID, 10*time.Second)
	if st.Status != seio.JobDone {
		t.Fatalf("job finished %q", st.Status)
	}

	// Within the TTL the job stays pollable.
	do(t, c, "GET", ts.URL+"/jobs/"+st.ID, nil, http.StatusOK, nil)
	time.Sleep(60 * time.Millisecond)
	do(t, c, "GET", ts.URL+"/jobs/"+st.ID, nil, http.StatusNotFound, nil)
	if n := srv.jobs.Stats().Jobs; n != 0 {
		t.Errorf("%d jobs retained after TTL", n)
	}
}

func ExampleServer_jobs() {
	s, err := New(Config{Workers: 1, Queue: 4})
	if err != nil {
		panic(err)
	}
	defer s.Close()
	fmt.Println(len(s.jobs.List()))
	// Output: 0
}
