package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	ses "repro"
	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/metrics/span"
	"repro/internal/persist"
	"repro/internal/score"
	"repro/internal/seio"
	"repro/internal/sim"
)

// HealthStatus is the /healthz response body: enough for a probe to tell a
// fresh boot from a recovered one without parsing logs.
type HealthStatus struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Version, GoVersion and GitSHA identify the running build — the same
	// fields the sesd_build_info gauge carries as labels.
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	GitSHA    string `json:"git_sha"`
	// Durable reports whether a WAL is attached (-data-dir).
	Durable bool `json:"durable"`
	// Recovered is true when boot-time replay applied any prior state — a
	// snapshot, WAL records, or a torn tail it had to truncate.
	Recovered bool `json:"recovered"`
	// Recovery echoes what replay applied (snapshot used, segments/records
	// replayed); constant after startup, omitted memory-only.
	Recovery   *persist.RecoveryStats `json:"recovery,omitempty"`
	RecoveryMS float64                `json:"recovery_ms,omitempty"`
}

// handleHealthz reports readiness. New finishes WAL replay before it returns
// the Server, so a reachable handler IS a recovered one — the 503-recovering
// phase lives in cli.Sesd, which answers for the listener while New replays.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	version, goVersion, gitSHA := buildInfo()
	h := HealthStatus{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		Version:       version,
		GoVersion:     goVersion,
		GitSHA:        gitSHA,
		Durable:       s.wal != nil,
	}
	if rec := s.recovery; rec != nil {
		h.Recovered = rec.SnapshotRecords > 0 || rec.Records > 0 || rec.TornBytes > 0
		h.Recovery = rec
		h.RecoveryMS = s.recoveryMS
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Instances []seio.InstanceInfo `json:"instances"`
	}{s.store.List()})
}

// handlePut uploads an instance in the seio wire format (a sesgen document):
//
//	curl -X PUT --data-binary @instance.json localhost:8080/instances/friday
func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	inst, err := seio.ReadInstance(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	info, existed, err := s.store.Put(name, inst)
	if err != nil {
		writeErr(w, storeErrCode(err), err)
		return
	}
	code := http.StatusCreated
	if existed {
		// Replacing rewrites content under the same name: drop its
		// cached results and engines (new versions would miss anyway, but
		// stale entries would otherwise squat in the LRUs).
		s.cache.InvalidateInstance(name)
		s.engines.invalidate(name)
		code = http.StatusOK
	}
	writeJSON(w, code, info)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	inst, info, err := s.store.Get(name)
	if err != nil {
		writeErr(w, storeErrCode(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-SES-Store-Version", fmt.Sprint(info.Version))
	w.Header().Set("X-SES-Digest", info.Digest)
	if err := seio.WriteInstance(w, inst); err != nil {
		// Headers are already out; the truncated body is the best signal
		// left. This only happens when the client disconnects mid-write.
		return
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ok, err := s.store.Delete(name)
	if err != nil {
		writeErr(w, storeErrCode(err), err)
		return
	}
	if !ok {
		writeErr(w, http.StatusNotFound, ErrNotFound)
		return
	}
	s.cache.InvalidateInstance(name)
	s.engines.invalidate(name)
	w.WriteHeader(http.StatusNoContent)
}

// handleMutate applies a batch of interest/activity/competing updates as one
// new store version. In-flight solves keep their snapshot; the instance's
// cached results are invalidated.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req seio.MutateRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Empty() {
		writeErr(w, http.StatusBadRequest, errors.New("empty mutation: nothing to apply"))
		return
	}
	info, err := s.store.mutate(span.FromContext(r.Context()), name, req)
	if err != nil {
		writeErr(w, storeErrCode(err), err)
		return
	}
	s.afterMutation(name)
	writeJSON(w, http.StatusOK, info)
}

// errSolverPanic marks a solver panic recovered on a pool worker.
var errSolverPanic = errors.New("solver panicked")

// pooled runs fn on a pool worker, handed over by submit (Pool.Submit fails
// fast when the queue is full; Pool.SubmitWait waits for a slot), and waits
// for it or for ctx. A panic in fn costs the caller an error wrapping
// errSolverPanic, never the daemon its life (and with it the memory-only
// store). The queue span measures enqueue-to-pickup: a rejected or skipped
// job never ends it, and the trace snapshot clamps the open span to the
// trace end, which is exactly how long the request was stuck behind the
// queue.
func (s *Server) pooled(ctx context.Context, submit func(context.Context, func()) error, fn func()) error {
	done := make(chan struct{})
	var panicErr error
	qs := span.FromContext(ctx).Start("queue")
	err := submit(ctx, func() {
		qs.End()
		defer close(done)
		defer func() {
			if r := recover(); r != nil {
				s.pool.panics.Add(1)
				panicErr = fmt.Errorf("%w: %v", errSolverPanic, r)
			}
		}()
		fn()
	})
	if err != nil {
		return err
	}
	select {
	case <-done:
		return panicErr
	case <-ctx.Done():
		// The caller went away while the job was queued or running; the
		// worker (if it runs) finishes into results nobody reads.
		return ctx.Err()
	}
}

// runPooled runs fn on the solver pool for an HTTP request. It writes the
// 429/503/500 responses itself and reports whether the caller should write a
// response (false = already handled or client gone).
func (s *Server) runPooled(w http.ResponseWriter, r *http.Request, fn func()) bool {
	err := s.pooled(r.Context(), s.pool.Submit, fn)
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrPoolClosed):
		writeErr(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, errSolverPanic):
		writeErr(w, http.StatusInternalServerError, err)
	}
	return false // request context dead
}

// solveRun is one solver call against an acquired engine.
type solveRun func(ctx context.Context, en *score.Engine) (*algo.Result, error)

// schedule is the solveRun of sched for k selections on inst.
func schedule(sched algo.Scheduler, inst *core.Instance, k int) solveRun {
	return func(ctx context.Context, en *score.Engine) (*algo.Result, error) {
		return algo.WithEngine(sched, en).ScheduleCtx(ctx, inst, k)
	}
}

// solveOn is sesd's one solve path, run on a pool worker by solve, extend,
// re-solve and sweep cell alike. Solves of one instance version share one
// scoring engine, so the dense precompute and (with ScoreWorkers) the scoring
// worker set are paid once per version, not per request. solveOn acquires
// that engine inside the engine_acquire span, makes the run on it, accounts
// its work counters, books the select stage and encodes the schedule from the
// engine's scorer inside the encode span. head carries the response's
// instance, algorithm and k; reused reports an engine reused or warm-rebuilt
// rather than built cold. ctx rides into the solver, so a caller that goes
// away frees the worker at the next periodic cancellation check.
func (s *Server) solveOn(ctx context.Context, tr *span.Trace, ek engineKey, inst *core.Instance, opts core.ScorerOptions,
	head seio.SolveResponse, run solveRun) (resp seio.SolveResponse, reused bool, err error) {
	acq := tr.Start("engine_acquire")
	en, release, reused, err := s.engines.acquire(ek, inst, opts)
	acq.Annotate("engine", engineTemp(reused))
	acq.End()
	if err != nil {
		return seio.SolveResponse{}, false, err
	}
	defer release()
	res, err := run(ctx, en)
	if err != nil {
		return seio.SolveResponse{}, false, err
	}
	s.scoreEvals.Add(res.ScoreEvals)
	s.examined.Add(res.Examined)
	bookSelect(tr, res.Elapsed)
	enc := tr.Start("encode")
	head.Schedule = seio.ScheduleMsgFrom(en.Scorer(), res.Schedule)
	enc.End()
	head.ScoreEvals, head.Examined = res.ScoreEvals, res.Examined
	head.ElapsedMS = seio.DurationMS(res.Elapsed)
	return head, reused, nil
}

// handleSolve runs one of the paper's algorithms against the current
// snapshot of the instance, with an O(1) fast path for repeated identical
// queries via the result cache.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req seio.SolveRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Algorithm == "" {
		req.Algorithm = "HOR-I"
	}
	if req.K <= 0 {
		writeErr(w, http.StatusBadRequest, algo.ErrBadK)
		return
	}
	opts := core.ScorerOptions{UserWeights: req.UserWeights, EventCost: req.EventCosts}
	sched, err := algo.NewWithOptions(req.Algorithm, req.Seed, opts)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	inst, info, err := s.store.Get(name)
	if err != nil {
		writeErr(w, storeErrCode(err), err)
		return
	}
	key := newCacheKey(name, info.Version, req.Algorithm, req.K, req.Seed,
		optsFingerprint(req.UserWeights, req.EventCosts))
	// The request trace was minted by the instrument middleware and rides the
	// request context into the pool and the scoring engine, which books
	// batched-scoring time against it. Every span call is nil-safe, so
	// handlers invoked without the middleware (direct unit tests) still work.
	tr := span.FromContext(r.Context())
	tr.Annotate("instance", name)
	tr.Annotate("algorithm", req.Algorithm)
	if resp, ok := s.cache.Get(key); ok {
		resp.Cached = true
		resp.TraceID = tr.ID()
		tr.Annotate("cache", "hit")
		writeJSON(w, http.StatusOK, resp)
		return
	}
	var (
		resp   seio.SolveResponse
		slvErr error
	)
	if !s.runPooled(w, r, func() {
		resp, _, slvErr = s.solveOn(r.Context(), tr, key.engine(), inst, opts,
			seio.SolveResponse{Instance: info, Algorithm: req.Algorithm, K: req.K},
			schedule(sched, inst, req.K))
		if slvErr == nil {
			s.cache.Put(key, resp)
			s.appendSolveRecord(key, resp)
		}
	}) {
		return
	}
	if slvErr != nil {
		writeErr(w, http.StatusBadRequest, slvErr)
		return
	}
	// Stages and trace ID are added only after caching and logging: a cached
	// or replayed response must not present another run's identity as its own.
	if req.Timings {
		resp.Stages = stageBreakdown(tr)
	}
	resp.TraceID = tr.ID()
	writeJSON(w, http.StatusOK, resp)
}

// bookSelect books the "select" aggregate against the trace: the remainder of
// the solver's elapsed time after batched frontier scoring (candidate
// enumeration, argmax selection, and any scoring done outside batched calls).
// Clamped at zero because parallel scoring can book more stage time than wall
// time.
func bookSelect(tr *span.Trace, solveElapsed time.Duration) {
	selectD := solveElapsed - tr.Get("score")
	if selectD < 0 {
		selectD = 0
	}
	tr.Add("select", selectD)
}

// stageBreakdown renders a solve's trace as the response's stage list:
// engine_acquire and encode (the response message, built from the solving
// engine's precompute) are measured directly, "score" is the batched
// frontier-scoring time the engine booked against the trace, and "select" is
// the remainder booked by bookSelect. Nil trace → nil.
func stageBreakdown(tr *span.Trace) []seio.StageTiming {
	if tr == nil {
		return nil
	}
	return []seio.StageTiming{
		{Stage: "engine_acquire", MS: seio.DurationMS(tr.Get("engine_acquire"))},
		{Stage: "score", MS: seio.DurationMS(tr.Get("score"))},
		{Stage: "select", MS: seio.DurationMS(tr.Get("select"))},
		{Stage: "encode", MS: seio.DurationMS(tr.Get("encode"))},
	}
}

// handleExtend grows a client-provided base schedule by extra greedy
// selections against the current snapshot (the organizer's re-planning
// workflow). Extend results depend on the arbitrary base, so they bypass the
// result cache.
func (s *Server) handleExtend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req seio.ExtendRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Extra <= 0 {
		writeErr(w, http.StatusBadRequest, algo.ErrBadK)
		return
	}
	inst, info, err := s.store.Get(name)
	if err != nil {
		writeErr(w, storeErrCode(err), err)
		return
	}
	base, err := (seio.ScheduleMsg{Version: seio.FormatVersion, Assignments: req.Base}).Replay(inst)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	opts := core.ScorerOptions{UserWeights: req.UserWeights, EventCost: req.EventCosts}
	ek := engineKey{name: name, version: info.Version, opts: optsFingerprint(req.UserWeights, req.EventCosts)}
	tr := span.FromContext(r.Context())
	tr.Annotate("instance", name)
	tr.Annotate("algorithm", "EXTEND")
	var (
		resp   seio.SolveResponse
		extErr error
	)
	if !s.runPooled(w, r, func() {
		resp, _, extErr = s.solveOn(r.Context(), tr, ek, inst, opts,
			seio.SolveResponse{Instance: info, Algorithm: "EXTEND", K: req.Extra},
			func(ctx context.Context, en *score.Engine) (*algo.Result, error) {
				return algo.ExtendWithEngine(ctx, en, base, req.Extra)
			})
	}) {
		return
	}
	if extErr != nil {
		writeErr(w, http.StatusBadRequest, extErr)
		return
	}
	if req.Timings {
		resp.Stages = stageBreakdown(tr)
	}
	resp.TraceID = tr.ID()
	writeJSON(w, http.StatusOK, resp)
}

// handleSimulate Monte-Carlo-validates a schedule against the analytic
// utility (internal/sim) on the current snapshot.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req seio.SimulateRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Trials <= 0 {
		req.Trials = 1000
	}
	inst, info, err := s.store.Get(name)
	if err != nil {
		writeErr(w, storeErrCode(err), err)
		return
	}
	schedule, err := (seio.ScheduleMsg{Version: seio.FormatVersion, Assignments: req.Schedule}).Replay(inst)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var (
		resp   seio.SimulateResponse
		simErr error
	)
	if !s.runPooled(w, r, func() {
		res, err := sim.Simulate(inst, schedule, req.Trials, req.Seed)
		if err != nil {
			simErr = err
			return
		}
		analytic := core.NewScorer(inst).Utility(schedule)
		relErr := 0.0
		if analytic > 0 {
			relErr = (res.MeanTotal - analytic) / analytic
		}
		resp = seio.SimulateResponse{
			Instance:       info,
			Trials:         req.Trials,
			Analytic:       analytic,
			Simulated:      res.MeanTotal,
			RelErr:         relErr,
			CompetingTotal: res.CompetingTotal,
			PerEvent:       res.PerEvent,
		}
	}) {
		return
	}
	if simErr != nil {
		writeErr(w, http.StatusBadRequest, simErr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSummarize re-evaluates a schedule against the instance's current
// version and renders the organizer-facing report. It is cheap (one scorer
// pass per assignment), so it runs inline rather than on the pool.
func (s *Server) handleSummarize(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req seio.SummarizeRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	inst, info, err := s.store.Get(name)
	if err != nil {
		writeErr(w, storeErrCode(err), err)
		return
	}
	schedule, err := (seio.ScheduleMsg{Version: seio.FormatVersion, Assignments: req.Schedule}).Replay(inst)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// One scorer serves both the message and the report text.
	sc := core.NewScorer(inst)
	writeJSON(w, http.StatusOK, seio.SummarizeResponse{
		Instance: info,
		Schedule: seio.ScheduleMsgFrom(sc, schedule),
		Text:     ses.SummarizeWith(sc, schedule).String(),
	})
}
