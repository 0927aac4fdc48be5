package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/seio"
)

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		rank float64
		ok   bool
	}{
		{9, 0, false},
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		rank, ok := tailRank(c.n)
		if rank != c.rank || ok != c.ok {
			t.Errorf("tailRank(%d) = %v, %v; want %v, %v", c.n, rank, ok, c.rank, c.ok)
		}
	}
	// 1..200: p95 by linear interpolation between closest ranks.
	vals := make([]float64, 200)
	for i := range vals {
		vals[len(vals)-1-i] = float64(i + 1)
	}
	v, rank := tail(vals)
	if rank != 95 || math.Abs(v-190.05) > 1e-9 {
		t.Errorf("tail(1..200) = %v at p%v, want 190.05 at p95", v, rank)
	}
	// Too few samples for any rank: the worst case stands in.
	if v, rank := tail([]float64{3, 1, 2}); v != 3 || rank != 100 {
		t.Errorf("tail of 3 samples = %v at p%v, want the max at p100", v, rank)
	}
}

// TestOpenLoopTimesFromDueTime stalls the first request and checks that the
// requests due behind it are charged the wait, while the generator itself
// stays on schedule.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	c := newClient(ts.URL, 1, nil)
	defer c.close()
	outs, lags := c.openLoop(context.Background(), 50, 200*time.Millisecond, 1, func() request {
		return request{kind: "get", method: http.MethodGet, path: "/"}
	})
	if len(outs) != 10 {
		t.Fatalf("offered %d requests, want 10", len(outs))
	}
	for i, o := range outs {
		if !o.ok() {
			t.Fatalf("request %d: status %d", i, o.status)
		}
	}
	// Request 1 was due 20 ms in and could not be sent before the stalled
	// request 0 finished at ~300 ms.
	if got := outs[1].latency(); got < stall-40*time.Millisecond {
		t.Errorf("request 1 latency %v, want at least %v: it waited behind the stall", got, stall-40*time.Millisecond)
	}
	if sent := outs[1].done.Sub(outs[1].sent); sent > 100*time.Millisecond {
		t.Errorf("request 1 took %v from its send; the wait should be before the send", sent)
	}
	if p99 := quantile(sortedCopy(lags), 0.99); p99 > 50 {
		t.Errorf("generator lag p99 %.1f ms: the dispatcher must not wait for the stalled sender", p99)
	}
	if counts := tally(outs)["get"]; counts.Attempted != 10 || counts.Succeeded != 10 {
		t.Errorf("tally %+v", counts)
	}
}

func TestTallyCountsRefusals(t *testing.T) {
	outs := []outcome{{kind: "solve", status: 200}, {kind: "solve", status: 429}, {kind: "solve", status: 500}, {kind: "patch"}}
	m := tally(outs)
	if s := *m["solve"]; s != (kindCount{Attempted: 3, Succeeded: 1, Refused: 1, Failed: 1}) {
		t.Errorf("solve tally %+v", s)
	}
	if p := *m["patch"]; p.Failed != 1 {
		t.Errorf("transport error not counted as failed: %+v", p)
	}
	lat := latencies(outs, time.Second, ofKind("solve"))
	if len(lat) != 3 || lat[1] != 1000 || lat[2] != 1000 {
		t.Errorf("refused and failed solves must count as the whole window: %v", lat)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []spanRec{
		{Op: 1, ID: 0, Parent: -1, Name: "server.solve", Start: 0, End: 100},
		{Op: 1, ID: 1, Parent: 0, Name: "algo.HOR-I", Start: 10, End: 60},
		{Op: 1, ID: 2, Parent: 0, Name: "seio.encode", Start: 50, End: 70}, // overlaps its sibling
		{Op: 1, ID: 3, Parent: 1, Name: "score.batch", Start: 20, End: 30},
	}
	got := tr.selfTimes()
	want := map[string]time.Duration{"server": 40, "algo": 40, "seio": 20, "score": 10}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self time of %s = %v, want %v", l, got[l], w)
		}
	}
}

func TestDoNestsSpansUnderOneOperation(t *testing.T) {
	tr := newTracer()
	tr.do("server.store_put", func() {
		tr.do("persist.append", func() {})
	})
	tr.do("seio.decode", func() {})
	s := tr.spans
	if len(s) != 3 || s[1].Parent != s[0].ID || s[1].Op != s[0].Op || s[2].Parent != -1 || s[2].Op == s[0].Op {
		t.Fatalf("spans %+v", s)
	}
	for _, sp := range s {
		if sp.End < sp.Start {
			t.Errorf("span %s not ended: %+v", sp.Name, sp)
		}
	}
}

func TestCheckVersionsCatchesWrongDigest(t *testing.T) {
	inst, err := dataset.ByName("Unf", dataset.Params{K: 4, NumUsers: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := seio.WriteInstance(&buf, inst); err != nil {
		t.Fatal(err)
	}
	put := outcome{kind: "put", status: 200, body: []byte(mustJSON(seio.InstanceInfo{Version: 1, Digest: inst.Digest()}))}
	req := seio.MutateRequest{Interest: []seio.CellUpdate{{User: 2, Index: 1, Value: 0.25}}}
	next, err := seio.ReadInstance(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := applyMutation(next, req); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		digest string
		ok     bool
	}{{next.Digest(), true}, {inst.Digest(), false}} {
		patch := outcome{kind: "patch", status: 200, reqBody: []byte(mustJSON(req)),
			body: []byte(mustJSON(seio.InstanceInfo{Version: 2, Digest: c.digest}))}
		base, err := seio.ReadInstance(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		r := &run{}
		r.checkVersions(base, []outcome{put, patch})
		if (len(r.checkErrs) == 0) != c.ok {
			t.Errorf("digest %s: check errors %v, want ok=%v", c.digest[:8], r.checkErrs, c.ok)
		}
	}
}

func tinySizes() sizes {
	return sizes{
		setupReps:     2,
		coldUsers:     300,
		coldK:         4,
		coldInstances: 2,

		mixUsers:        300,
		mixK:            4,
		mixFirstAnswers: 2,
		mixRate:         60,

		ingUsers:     2000,
		ingEvents:    40,
		ingIntervals: 4,
		ingK:         6,
		ingPairs:     3,
		ingInstances: 2,
		ingDensity:   0.05,
	}
}

// runTiny runs one workload at tiny sizes and returns its printed result.
func runTiny(t *testing.T, wl, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := benchMain([]string{"--workload", wl, "--seed", "7", "--seconds", "1", "--trace", trace, "--scratch", t.TempDir()},
		&stdout, &stderr, tinySizes())
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return res
}

// TestTinyWorkloads runs every workload end to end at tiny sizes, plain and
// traced, output checks included, and checks the printed result. The traced
// run is made twice: the exact counts must repeat bit for bit.
func TestTinyWorkloads(t *testing.T) {
	exact := []string{"seio.doc_mb", "persist.wal_bytes"}
	for _, a := range algoNames {
		exact = append(exact, "algo."+a+".score_evals", "algo."+a+".examined")
	}
	for _, wl := range []string{"solve-cold", "serve-mixed", "ingest-sparse"} {
		t.Run(wl, func(t *testing.T) {
			for _, trace := range []string{"0", "1"} {
				res := runTiny(t, wl, trace)
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
					t.Fatalf("trace=%s: result %+v", trace, res)
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("trace=%s: metric %s: %+v", trace, d.name, m)
					}
				}
				if trace == "1" {
					again := runTiny(t, wl, trace)
					for _, name := range exact {
						if res.Metrics[name] != again.Metrics[name] {
							t.Errorf("%s: %v, then %v", name, res.Metrics[name], again.Metrics[name])
						}
					}
				}
			}
		})
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := benchMain([]string{"--workload", "nope"}, &stdout, &stderr, tinySizes()); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric lists here in
// step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not in the benchmark", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, the benchmark %d/%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if e := bj.EndToEnd[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, benchmark has %+v", i, e, d)
		}
	}
	for i, d := range perLayer {
		if e := bj.PerLayer[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, benchmark has %+v", i, e, d)
		}
	}
}
