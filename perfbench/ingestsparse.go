package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/seio"
	"repro/internal/server"
)

// ingestSparse runs a durable server (WAL in a fresh directory, fsync off)
// driven by one client in a closed loop. Each cycle boots a server on a fresh
// directory, uploads a large sparse Unf instance, solves it once with HOR-I
// and runs a chain of one-cell PATCH → HOR-I re-solve pairs; after the window
// the last cycle's server is closed and a new one boots on its directory. It covers the large-instance costs — JSON decode, the WAL put
// encode, per-PATCH snapshot and digest, recovery replay — while the pool
// and caches sit idle.
func ingestSparse(ctx context.Context, r *run, sz sizes) error {
	var (
		inst *core.Instance
		dir  string
		ls   *liveServer
	)
	cfgFor := func(dir string) server.Config {
		cfg := server.Config{DataDir: dir}
		if r.traced() {
			cfg.TraceStore = 1 << 16
		}
		return cfg
	}
	boot := func() error {
		var err error
		if dir, err = os.MkdirTemp(r.scratch, "ingest-"); err != nil {
			return err
		}
		ls, err = startServer(cfgFor(dir))
		return err
	}
	shutdown := func() {
		if ls != nil {
			ls.stop()
			ls = nil
		}
		if dir != "" {
			os.RemoveAll(dir)
			dir = ""
		}
	}
	defer shutdown()
	// Cycles upload sz.ingInstances documents in turn: how much work a HOR-I
	// re-solve does depends on the instance, so a run averages over several
	// instead of riding on one. They are generated during set-up, so no
	// generation runs inside the window, and kept on disk, so the benchmark's
	// heap does not carry them.
	var docs []string
	defer func() {
		for _, d := range docs {
			os.Remove(d)
		}
	}()
	err := r.setup(sz.setupReps, func() {
		shutdown()
		inst, docs = nil, nil
	}, func() (time.Duration, error) {
		var gen time.Duration
		for i := 0; i < sz.ingInstances; i++ {
			var err error
			r.tr.do("dataset.generate", func() {
				t0 := time.Now()
				inst, err = dataset.ByName("Unf", dataset.Params{K: sz.ingK, NumUsers: sz.ingUsers, Seed: r.seed*1000 + uint64(i),
					NumEvents: sz.ingEvents, NumIntervals: sz.ingIntervals, Density: sz.ingDensity,
					CompetingMin: competingPerInterval, CompetingMax: competingPerInterval})
				gen += time.Since(t0)
			})
			if err != nil {
				return 0, err
			}
			path, err := encodeDoc(r, inst, fmt.Sprintf("big-%d.json", i))
			if err != nil {
				return 0, err
			}
			docs = append(docs, path)
		}
		return gen, boot()
	})
	if err != nil {
		return err
	}

	stream := &mixStream{rng: rand.New(rand.NewPCG(r.seed, 0x1a6e57)), name: "big",
		users: inst.NumUsers(), events: inst.NumEvents(), intervals: inst.NumIntervals(), k: sz.ingK}
	var (
		outs                         []outcome
		uploads, firsts, gaps, pairs []float64
	)
	do := func(c *client, req request) outcome {
		o := c.do(ctx, req)
		outs = append(outs, o)
		return o
	}
	r.beginWindow()
	deadline := time.Now().Add(r.window)
	var before []seio.InstanceInfo
	var last outcome
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		if cycle > 0 {
			shutdown()
			if err := boot(); err != nil {
				return err
			}
		}
		c := newClient(ls.base, 1, r.tr)
		runtime.GC() // every upload begins from the same heap
		t0 := time.Now()
		p := do(c, request{kind: "put", method: http.MethodPut, path: "/instances/big", file: docs[cycle%len(docs)]})
		s := do(c, stream.solve())
		if !p.ok() || !s.ok() {
			c.close()
			return fmt.Errorf("upload: status %d, first solve: status %d: %s", p.status, s.status, s.body)
		}
		uploads = append(uploads, p.done.Sub(p.sent).Seconds())
		firsts = append(firsts, time.Since(t0).Seconds())

		last = s
		for i := 0; i < sz.ingPairs; i++ {
			pt := do(c, stream.patch())
			st := do(c, stream.solve())
			pairs = append(pairs, ms(st.done.Sub(pt.sent)))
			gaps = append(gaps, ms(pt.sent.Sub(last.done)), ms(st.sent.Sub(pt.done)))
			last = st
			if !pt.ok() || !st.ok() {
				c.close()
				return fmt.Errorf("patch: status %d, re-solve: status %d", pt.status, st.status)
			}
		}
		var err error
		if before, err = listInstances(ctx, c); err != nil {
			c.close()
			return err
		}
		if r.traced() && cycle == 0 {
			if err := decodeSolves(outs); err != nil {
				c.close()
				return err
			}
			sd, err := serverDiag(ctx, c, freshTraceIDs(outs))
			if err != nil {
				c.close()
				return err
			}
			r.diag["server"] = sd
		}
		c.close()
	}
	r.endWindow()

	// Finally, recovery of the last cycle's directory: from server.New to a
	// /healthz ok, then the checks that it restored the store exactly.
	ls.stop()
	runtime.GC()
	t0 := time.Now()
	if ls, err = startServer(cfgFor(dir)); err != nil {
		return err
	}
	c := newClient(ls.base, 1, r.tr)
	h := do(c, request{kind: "healthz", method: http.MethodGet, path: "/healthz"})
	recoverS := time.Since(t0).Seconds()
	after, err := listInstances(ctx, c)
	if err != nil {
		c.close()
		return err
	}
	again := do(c, stream.solve())
	c.close()
	r.check(h.ok(), "healthz after reboot: status %d", h.status)
	r.checkReboot(before, after, last, again)
	shutdown()

	r.attempted = len(outs)
	for _, o := range outs {
		if !o.ok() {
			r.failed++
		}
	}
	if err := decodeSolves(outs); err != nil {
		return err
	}
	window := time.Since(deadline.Add(-r.window))
	solves := latencies(outs, window, ofKind("solve"))
	chain := latencies(outs, window, fresh)
	r.e2e["solves_per_s"] = 1000 / median(pairs)
	r.e2e["solve_p50_ms"] = median(solves)
	r.layer["solve_tail_ms"], _ = tail(solves)
	r.e2e["fresh_solve_p50_ms"] = median(chain)
	r.e2e["first_answer_s"] = median(firsts)
	patches := latencies(outs, window, ofKind("patch"))
	patchTail, patchRank := tail(patches)
	r.diag["ingest-sparse"] = map[string]any{
		"cycles":         len(uploads),
		"requests":       formatTally(tally(outs)),
		"upload_s":       median(uploads),
		"recover_s":      recoverS,
		"mutate_p50_ms":  median(patches),
		"mutate_tail_ms": patchTail,
		"mutate_rank":    patchRank,
	}
	r.layer["loadgen.lag_p99_ms"] = quantile(sortedCopy(gaps), 0.99)

	if !r.traced() {
		return nil
	}
	// The probes take the first cycle's instance.
	inst, err = readDoc(docs[0])
	if err != nil {
		return err
	}
	docBytes, err := os.ReadFile(docs[0])
	if err != nil {
		return err
	}
	return r.probeLayers(ctx, inst, docBytes, sz.ingK, nil)
}

// listInstances returns the server's instance listing.
func listInstances(ctx context.Context, c *client) ([]seio.InstanceInfo, error) {
	var l struct {
		Instances []seio.InstanceInfo `json:"instances"`
	}
	err := c.getJSON(ctx, "/instances", &l)
	return l.Instances, err
}

// checkReboot checks that a reboot recovered the store exactly — names,
// versions and digests — and that the last solve before it is a cache hit
// with the same utility after it.
func (r *run) checkReboot(before, after []seio.InstanceInfo, last, again outcome) {
	b, _ := json.Marshal(before)
	a, _ := json.Marshal(after)
	r.check(string(a) == string(b), "instances after reboot %s, before %s", a, b)
	var lastResp, againResp seio.SolveResponse
	if !again.ok() || json.Unmarshal(last.body, &lastResp) != nil || json.Unmarshal(again.body, &againResp) != nil {
		r.check(false, "solve after reboot: status %d", again.status)
		return
	}
	r.check(againResp.Cached, "solve after reboot was not a cache hit")
	r.check(againResp.Instance.Version == lastResp.Instance.Version && againResp.Schedule.Utility == lastResp.Schedule.Utility,
		"solve after reboot: v%d utility %v, before reboot v%d utility %v",
		againResp.Instance.Version, againResp.Schedule.Utility, lastResp.Instance.Version, lastResp.Schedule.Utility)
}
