package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/seio"
	"repro/internal/server"
)

// serveMixed runs a memory-only server with the default server.Config on one
// dense Unf instance and drives sesload's default mix at it: first a few
// cold starts (PUT, then the first solve), then an open loop at a fixed
// offered rate, then a closed loop with one client per core. Every request
// passes the result-cache lookup, every mutation makes a warm engine rebuild
// and a snapshot plus digest, and every fresh solve pays the response
// encode; kernel time is small.
func serveMixed(ctx context.Context, r *run, sz sizes) error {
	conns := runtime.NumCPU()
	cfg := server.Config{}
	if r.traced() {
		// Room for every request of the run, so no trace is evicted
		// before it is read.
		cfg.TraceStore = 1 << 16
	}
	var (
		inst *core.Instance
		doc  string // the instance document's path
		ls   *liveServer
	)
	err := r.setup(sz.setupReps, func() {
		if ls != nil {
			ls.stop()
			ls = nil
		}
		inst = nil
	}, func() (time.Duration, error) {
		var gen time.Duration
		var err error
		r.tr.do("dataset.generate", func() {
			t0 := time.Now()
			inst, err = dataset.ByName("Unf", dataset.Params{K: sz.mixK, NumUsers: sz.mixUsers, Seed: r.seed, CompetingMin: competingPerInterval, CompetingMax: competingPerInterval})
			gen = time.Since(t0)
		})
		if err != nil {
			return 0, err
		}
		if doc, err = encodeDoc(r, inst, "mix.json"); err != nil {
			return 0, err
		}
		ls, err = startServer(cfg)
		return gen, err
	})
	if err != nil {
		return err
	}
	defer ls.stop()
	c := newClient(ls.base, conns, r.tr)
	defer c.close()

	stream := &mixStream{rng: rand.New(rand.NewPCG(r.seed, 0x5e510ad)), name: "mix",
		users: inst.NumUsers(), events: inst.NumEvents(), intervals: inst.NumIntervals(), k: sz.mixK}
	defer os.Remove(doc)
	put := request{kind: "put", method: http.MethodPut, path: "/instances/mix", file: doc}

	r.beginWindow()
	var cold []outcome
	var firsts []float64
	for i := 0; i < sz.mixFirstAnswers; i++ {
		runtime.GC() // every cold start begins from the same heap
		t0 := time.Now()
		p := c.do(ctx, put)
		s := c.do(ctx, stream.solve())
		cold = append(cold, p, s)
		if p.ok() && s.ok() {
			firsts = append(firsts, time.Since(t0).Seconds())
		}
	}
	openWin := r.window / 2
	open, lags := c.openLoop(ctx, sz.mixRate, openWin, conns, stream.next)
	closedStart := time.Now()
	closed := c.closedLoop(ctx, conns, r.window*3/10, stream.next)
	closedDur := time.Since(closedStart)
	r.endWindow()

	for _, outs := range [][]outcome{cold, open, closed} {
		if err := decodeSolves(outs); err != nil {
			return err
		}
	}
	all := append(append(append([]outcome(nil), cold...), open...), closed...)
	r.attempted = len(all)
	for _, o := range all {
		if !o.ok() {
			r.failed++
		}
	}
	solves := latencies(open, openWin, ofKind("solve"))
	r.e2e["solve_p50_ms"] = median(solves)
	r.layer["solve_tail_ms"], _ = tail(solves)
	r.e2e["fresh_solve_p50_ms"] = median(latencies(open, openWin, fresh))
	r.e2e["first_answer_s"] = median(firsts)
	closedCounts := tally(closed)
	r.e2e["solves_per_s"] = perSecond(closed, closedStart, closedDur, ofKind("solve"))

	mut := latencies(open, openWin, ofKind("patch", "batch"))
	mutTail, mutRank := tail(mut)
	_, solveRank := tail(solves)
	lagP99 := quantile(sortedCopy(lags), 0.99)
	r.layer["loadgen.lag_p99_ms"] = lagP99
	r.diag["serve-mixed"] = map[string]any{
		"offered_rps":       sz.mixRate,
		"open_loop":         formatTally(tally(open)),
		"closed_loop":       formatTally(closedCounts),
		"closed_clients":    conns,
		"max_rps":           perSecond(closed, closedStart, closedDur, func(outcome) bool { return true }),
		"mutate_p50_ms":     median(mut),
		"mutate_tail_ms":    mutTail,
		"mutate_tail_rank":  mutRank,
		"solve_tail_rank":   solveRank,
		"extend_p50_ms":     median(latencies(open, openWin, ofKind("extend"))),
		"lag_p99_ms":        lagP99,
		"fresh_open_solves": len(latencies(open, openWin, fresh)),
		"first_answers_s":   firsts,
	}

	base, err := readDoc(doc)
	if err != nil {
		return err
	}
	checkStart := time.Now()
	r.checkVersions(base, all)
	r.diag["check_s"] = time.Since(checkStart).Seconds()

	if !r.traced() {
		return nil
	}
	sd, err := serverDiag(ctx, c, freshTraceIDs(all))
	if err != nil {
		return err
	}
	r.diag["server"] = sd
	docBytes, err := os.ReadFile(doc)
	if err != nil {
		return err
	}
	return r.probeLayers(ctx, inst, docBytes, sz.mixK, nil)
}

// encodeDoc writes the instance as the seio document a client uploads, to a
// file of the given name in the scratch directory, and returns its path.
func encodeDoc(r *run, inst *core.Instance, name string) (string, error) {
	path := filepath.Join(r.scratch, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	r.tr.do("seio.encode_instance", func() { err = seio.WriteInstance(w, inst) })
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// readDoc decodes an instance document from its file.
func readDoc(path string) (*core.Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return seio.ReadInstance(bufio.NewReaderSize(f, 1<<20))
}

// decodeSolves parses the response of every successful solve and extend.
func decodeSolves(outs []outcome) error {
	for i, o := range outs {
		if (o.kind != "solve" && o.kind != "extend") || !o.ok() {
			continue
		}
		outs[i].resp = new(seio.SolveResponse)
		if err := json.Unmarshal(o.body, outs[i].resp); err != nil {
			return fmt.Errorf("%s response: %w", o.kind, err)
		}
	}
	return nil
}

// fresh selects solves the server computed rather than served from its
// result cache; a failed solve counts too, as missing every limit.
func fresh(o outcome) bool {
	return o.kind == "solve" && (!o.ok() || !o.resp.Cached)
}

// freshTraceIDs returns the server trace IDs of the successful fresh solves.
func freshTraceIDs(outs []outcome) []string {
	var ids []string
	for _, o := range outs {
		if fresh(o) && o.ok() {
			ids = append(ids, o.resp.TraceID)
		}
	}
	return ids
}

// checkVersions replays the run on the benchmark's own copy of the instance:
// it applies every acknowledged mutation in store-version order, checks the
// digest the server reported for each version, and re-scores every fresh
// solve and every extend on the copy at the version it was computed for.
func (r *run) checkVersions(base *core.Instance, outs []outcome) {
	type mutation struct {
		info seio.InstanceInfo
		req  seio.MutateRequest
	}
	var baseVer uint64
	var baseDigest string
	muts := map[uint64]mutation{}
	solvesAt := map[uint64][]seio.SolveResponse{}
	for _, o := range outs {
		if !o.ok() {
			continue
		}
		switch o.kind {
		case "put":
			var info seio.InstanceInfo
			if err := json.Unmarshal(o.body, &info); err != nil {
				r.check(false, "put response: %v", err)
				continue
			}
			if info.Version > baseVer {
				baseVer, baseDigest = info.Version, info.Digest
			}
		case "patch", "batch":
			var m mutation
			if o.kind == "patch" {
				r.check(json.Unmarshal(o.body, &m.info) == nil && json.Unmarshal(o.reqBody, &m.req) == nil, "patch response or request does not decode")
			} else {
				var resp seio.BatchMutateResponse
				var req seio.BatchMutateRequest
				r.check(json.Unmarshal(o.body, &resp) == nil && json.Unmarshal(o.reqBody, &req) == nil, "batch response or request does not decode")
				m.info, m.req = resp.Instance, req.Merge()
			}
			muts[m.info.Version] = m
		case "solve", "extend":
			// A cached response repeats the fresh one it was cached from.
			if !o.resp.Cached {
				solvesAt[o.resp.Instance.Version] = append(solvesAt[o.resp.Instance.Version], *o.resp)
			}
		}
	}
	r.check(base.Digest() == baseDigest, "uploaded instance digest %s, local copy %s", baseDigest, base.Digest())
	versions := make([]uint64, 0, len(muts))
	for v := range muts {
		versions = append(versions, v)
	}
	sort.Slice(versions, func(a, b int) bool { return versions[a] < versions[b] })
	for i, v := range versions {
		r.check(v == baseVer+uint64(i)+1, "mutation versions are not contiguous after v%d: got v%d at position %d", baseVer, v, i)
	}

	// Per version, the digest runs beside the re-scoring: both only read
	// the copy, and the next mutation waits for both.
	cur := base
	checkVersion := func(v uint64, want string) {
		digest := make(chan string, 1)
		if want != "" {
			go func() { digest <- cur.Digest() }()
		}
		if len(solvesAt[v]) > 0 {
			sc := core.NewScorer(cur)
			for _, sr := range solvesAt[v] {
				s, err := sr.Schedule.Replay(cur)
				if err != nil {
					r.check(false, "v%d %s schedule does not replay: %v", v, sr.Algorithm, err)
					continue
				}
				u := sc.Utility(s)
				r.check(math.Abs(u-sr.Schedule.Utility) <= 1e-9*math.Abs(u),
					"v%d %s utility %v, re-scored %v", v, sr.Algorithm, sr.Schedule.Utility, u)
			}
		}
		if want != "" {
			got := <-digest
			r.check(got == want, "v%d digest %s, local copy %s", v, want, got)
		}
	}
	// Every PUT carried the same document, so versions up to baseVer hold
	// the base content.
	for v := uint64(1); v <= baseVer; v++ {
		checkVersion(v, "")
	}
	for _, v := range versions {
		m := muts[v]
		if err := applyMutation(cur, m.req); err != nil {
			r.check(false, "v%d mutation does not apply locally: %v", v, err)
			return
		}
		checkVersion(v, m.info.Digest)
	}
}

// applyMutation applies a mutation the way the store does: interest,
// competing interest, then activity cells, in list order.
func applyMutation(in *core.Instance, req seio.MutateRequest) error {
	for _, u := range req.Interest {
		in.SetInterest(u.User, u.Index, u.Value)
	}
	for _, u := range req.CompetingInterest {
		in.SetCompetingInterest(u.User, u.Index, u.Value)
	}
	for _, u := range req.Activity {
		in.SetActivity(u.User, u.Index, u.Value)
	}
	if len(req.AddCompeting) > 0 {
		return fmt.Errorf("add_competing is not part of the benchmark's mix")
	}
	return nil
}
