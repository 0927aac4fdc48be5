package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/seio"
)

// POST /instances/{name}/mutations must apply the whole batch as ONE version
// bump with last-write-wins in-batch ordering.
func TestMutateBatch(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, Queue: 8})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/b", testInstanceJSON(t, 4, 40, 7), http.StatusCreated, nil)

	batch := jsonBody(t, seio.BatchMutateRequest{Mutations: []seio.MutateRequest{
		{Interest: []seio.CellUpdate{{User: 0, Index: 0, Value: 0.25}}},
		{Activity: []seio.CellUpdate{{User: 1, Index: 0, Value: 0.5}}},
		{Interest: []seio.CellUpdate{{User: 0, Index: 0, Value: 0.75}}}, // overrides the first
	}})
	var br seio.BatchMutateResponse
	do(t, c, "POST", ts.URL+"/instances/b/mutations", batch, http.StatusOK, &br)
	if br.Instance.Version != 2 {
		t.Fatalf("batch of 3 bumped version to %d, want 2 (one bump)", br.Instance.Version)
	}
	if br.Applied != 3 {
		t.Fatalf("applied = %d, want 3", br.Applied)
	}
	if n := srv.mutationBatches.Load(); n != 1 {
		t.Errorf("mutation batch counter = %d, want 1", n)
	}

	// Later-wins: the instance must hold 0.75, the value of the LAST update
	// to that cell, exactly as if the three PATCHes had applied in sequence.
	inst, _, err := srv.store.Get("b")
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.Interest(0, 0); got != 0.75 {
		t.Errorf("interest[0,0] = %v after batch, want 0.75 (last write wins)", got)
	}

	// An invalid cell anywhere rejects the whole batch: version does not move.
	bad := jsonBody(t, seio.BatchMutateRequest{Mutations: []seio.MutateRequest{
		{Interest: []seio.CellUpdate{{User: 0, Index: 1, Value: 0.5}}},
		{Interest: []seio.CellUpdate{{User: 0, Index: 9999, Value: 0.5}}},
	}})
	do(t, c, "POST", ts.URL+"/instances/b/mutations", bad, http.StatusBadRequest, nil)
	_, info, err := srv.store.Get("b")
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Errorf("failed batch moved version to %d", info.Version)
	}

	do(t, c, "POST", ts.URL+"/instances/b/mutations",
		jsonBody(t, seio.BatchMutateRequest{}), http.StatusBadRequest, nil)
	do(t, c, "POST", ts.URL+"/instances/nope/mutations", batch, http.StatusNotFound, nil)
}

type sseEvent struct {
	name string
	data []byte
}

// readSSE returns the next complete event from a text/event-stream scanner.
func readSSE(t *testing.T, sc *bufio.Scanner) sseEvent {
	t.Helper()
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if ev.name != "" || ev.data != nil {
				return ev
			}
		}
	}
	t.Fatalf("SSE stream ended early: %v", sc.Err())
	return ev
}

// The subscribe stream end to end: initial push at the current version, a
// PATCH triggers a re-solve push at the new version — served WARM from the
// previous version's engine — and deleting the instance ends the stream with an error
// event.
func TestSubscribeStream(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, Queue: 8})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/live", testInstanceJSON(t, 4, 40, 7), http.StatusCreated, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/instances/live/subscribe?algorithm=ALG&k=3", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)

	ev := readSSE(t, sc)
	if ev.name != "resolve" {
		t.Fatalf("first event %q, want resolve", ev.name)
	}
	var first seio.ResolveEvent
	if err := json.Unmarshal(ev.data, &first); err != nil {
		t.Fatalf("decode first event: %v", err)
	}
	if first.Instance.Version != 1 || first.Algorithm != "ALG" || first.K != 3 {
		t.Fatalf("bad first event header: %+v", first)
	}
	if len(first.Schedule.Assignments) == 0 {
		t.Fatal("first event carries no schedule")
	}
	if len(first.Added) != len(first.Schedule.Assignments) || len(first.Removed) != 0 || len(first.Moved) != 0 {
		t.Errorf("first push delta should be all-added: %+v", first)
	}
	if first.Warm {
		t.Error("first solve of a fresh instance claimed warm")
	}
	if n := srv.subs.count(); n != 1 {
		t.Errorf("subscriber gauge = %d, want 1", n)
	}

	// Mutate: the push must arrive at version 2 and — because the mutation
	// is small — be served by the warm path. This is the HTTP-visible face
	// of the incremental re-solve tentpole.
	mut := jsonBody(t, seio.MutateRequest{Interest: []seio.CellUpdate{{User: 0, Index: 0, Value: 0.9}}})
	do(t, c, "PATCH", ts.URL+"/instances/live", mut, http.StatusOK, nil)
	ev = readSSE(t, sc)
	if ev.name != "resolve" {
		t.Fatalf("post-PATCH event %q, want resolve", ev.name)
	}
	var second seio.ResolveEvent
	if err := json.Unmarshal(ev.data, &second); err != nil {
		t.Fatalf("decode second event: %v", err)
	}
	if second.Instance.Version != 2 {
		t.Fatalf("post-PATCH push at version %d, want 2", second.Instance.Version)
	}
	if !second.Warm {
		t.Error("small-delta re-solve was not served warm")
	}
	if srv.resolveSolves.Load() != 2 || srv.resolveWarm.Load() != 1 || srv.resolveFallback.Load() != 1 {
		t.Errorf("resolve counters solves=%d warm=%d fallback=%d, want 2/1/1",
			srv.resolveSolves.Load(), srv.resolveWarm.Load(), srv.resolveFallback.Load())
	}
	if srv.resolvePushes.Load() != 2 {
		t.Errorf("pushes = %d, want 2", srv.resolvePushes.Load())
	}

	// A batch POST is also a mutation: one more push, one version further.
	batch := jsonBody(t, seio.BatchMutateRequest{Mutations: []seio.MutateRequest{
		{Activity: []seio.CellUpdate{{User: 2, Index: 0, Value: 0.4}}},
	}})
	do(t, c, "POST", ts.URL+"/instances/live/mutations", batch, http.StatusOK, nil)
	ev = readSSE(t, sc)
	var third seio.ResolveEvent
	if err := json.Unmarshal(ev.data, &third); err != nil {
		t.Fatalf("decode third event: %v", err)
	}
	if third.Instance.Version != 3 {
		t.Fatalf("post-batch push at version %d, want 3", third.Instance.Version)
	}

	// Deleting the instance ends the stream with an error event.
	do(t, c, "DELETE", ts.URL+"/instances/live", nil, http.StatusNoContent, nil)
	srv.notifyMutation("live") // delete does not notify; poke the hub directly
	ev = readSSE(t, sc)
	if ev.name != "error" {
		t.Fatalf("post-delete event %q, want error", ev.name)
	}
	if sc.Scan() {
		t.Errorf("stream continued after error event: %q", sc.Text())
	}
}

// Subscribe parameter validation must fail fast, before any SSE handshake.
func TestSubscribeValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Queue: 4})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/v", testInstanceJSON(t, 3, 30, 5), http.StatusCreated, nil)

	for _, u := range []string{
		"/instances/v/subscribe",                    // missing k
		"/instances/v/subscribe?k=0",                // bad k
		"/instances/v/subscribe?k=3&algorithm=nope", // unknown algorithm
		"/instances/v/subscribe?k=3&seed=x",         // unparsable seed
	} {
		do(t, c, "GET", ts.URL+u, nil, http.StatusBadRequest, nil)
	}
	do(t, c, "GET", ts.URL+"/instances/ghost/subscribe?k=3", nil, http.StatusNotFound, nil)
}
