package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/score"
	"repro/internal/seio"
	"repro/internal/server"
)

// The traced run measures each layer directly with probes: calls into the
// layer's exported functions on the workload's own instance, made after the
// measuring window so they cannot disturb it. Every workload runs the same
// probes, so every per-layer metric exists on every workload, and a change
// to one layer shows here even on a workload whose end-to-end path does not
// reach that layer.

// probeReps bounds the repetitions of one probe: at most probeMaxReps, and
// no new one once probeBudget has been spent (a 57 MB decode runs once or
// twice, a millisecond snapshot nine times).
const (
	probeMaxReps   = 9
	probeBudget    = 2 * time.Second
	probeMutations = 5
)

// timeReps times fn under a span named name and returns the median in ms.
func (r *run) timeReps(name string, fn func()) float64 { return r.timeRepsN(name, 0, fn) }

// timeRepsN is timeReps with exactly n repetitions when n > 0, for probes
// whose side effects must not depend on how fast the machine is.
func (r *run) timeRepsN(name string, n int, fn func()) float64 {
	var vals []float64
	start := time.Now()
	more := func(i int) bool {
		if n > 0 {
			return i < n
		}
		return i < probeMaxReps && (i == 0 || time.Since(start) < probeBudget)
	}
	for i := 0; more(i); i++ {
		r.tr.do(name, func() {
			t0 := time.Now()
			fn()
			vals = append(vals, ms(time.Since(t0)))
		})
	}
	return median(vals)
}

// algoStat is one algorithm's measurement on a workload.
type algoStat struct {
	solveMS         float64
	evals, examined int64
	schedule        *core.Schedule // of the first measured solve
}

// probeLayers fills every per-layer metric except dataset.generate_ms, the
// runtime counters and the generator lag, which the workload measures
// itself. doc is the instance's seio document; solved holds the workload's
// own algorithm measurements, or nil to have each algorithm solved once here.
func (r *run) probeLayers(ctx context.Context, inst *core.Instance, doc []byte, k int, solved map[string]algoStat) error {
	L := r.layer
	// One-cell interest mutations, drawn from the seed.
	rng := rand.New(rand.NewPCG(r.seed, 0xc0de))
	cell := func() seio.CellUpdate {
		return seio.CellUpdate{User: rng.IntN(inst.NumUsers()), Index: rng.IntN(inst.NumEvents()), Value: rng.Float64()}
	}
	var buf bytes.Buffer
	L["seio.encode_instance_ms"] = r.timeReps("seio.encode_instance", func() {
		buf.Reset()
		if err := seio.WriteInstance(&buf, inst); err != nil {
			panic(err) // encoding a valid in-memory instance cannot fail
		}
	})
	if doc == nil {
		doc = buf.Bytes()
	}
	L["seio.doc_mb"] = float64(len(doc)) / 1e6
	var decErr error
	L["seio.decode_ms"] = r.timeReps("seio.decode", func() {
		_, decErr = seio.ReadInstance(bytes.NewReader(doc))
	})
	if decErr != nil {
		return fmt.Errorf("decode probe: %w", decErr)
	}
	L["seio.decode_mb_per_s"] = L["seio.doc_mb"] / (L["seio.decode_ms"] / 1000)

	if solved == nil {
		solved = map[string]algoStat{}
		for _, a := range algoNames {
			st, err := r.solveOnce(ctx, a, inst, k)
			if err != nil {
				return err
			}
			solved[a] = st
		}
	}
	for _, a := range algoNames {
		st := solved[a]
		L["algo."+a+".solve_ms"] = st.solveMS
		L["algo."+a+".score_evals"] = float64(st.evals)
		L["algo."+a+".examined"] = float64(st.examined)
	}
	sched := solved["HOR-I"].schedule

	L["core.scorer_build_ms"] = r.timeReps("core.scorer_build", func() { core.NewScorer(inst) })
	L["seio.schedule_msg_ms"] = r.timeReps("seio.schedule_msg", func() { seio.NewScheduleMsg(inst, sched) })

	// A one-cell mutation as the store applies it: snapshot, write (which
	// copies the shared matrix), digest.
	c := cell()
	var mutated *core.Instance
	L["core.snapshot_ms"] = r.timeReps("core.snapshot", func() {
		mutated = inst.Snapshot()
		mutated.SetInterest(c.User, c.Index, c.Value)
	})
	L["core.digest_ms"] = r.timeReps("core.digest", func() { mutated.Digest() })

	if err := r.probeScore(ctx, inst, mutated, c.Index, k); err != nil {
		return err
	}
	return r.probeStore(inst, doc, cell)
}

// solveOnce runs one algorithm on a fresh engine, as ses.Solve does.
func (r *run) solveOnce(ctx context.Context, name string, inst *core.Instance, k int) (algoStat, error) {
	s, err := algo.New(name, 1)
	if err != nil {
		return algoStat{}, err
	}
	var res *algo.Result
	var d time.Duration
	r.tr.do("algo."+name, func() {
		t0 := time.Now()
		res, err = s.ScheduleCtx(ctx, inst, k)
		d = time.Since(t0)
	})
	if err != nil {
		return algoStat{}, fmt.Errorf("%s: %w", name, err)
	}
	return algoStat{solveMS: ms(d), evals: res.ScoreEvals, examined: res.Examined, schedule: res.Schedule}, nil
}

// probeScore measures the scoring engine: a cold build, the Eq. 4 kernel over
// the empty-schedule grid, a warm rebuild across a one-cell mutation of event
// e, and the counters of a HOR-I re-solve on the warm engine.
func (r *run) probeScore(ctx context.Context, inst, mutated *core.Instance, e, k int) error {
	L := r.layer
	opts := core.ScorerOptions{}
	L["score.engine_build_ms"] = r.timeReps("score.engine_build", func() {
		en, err := score.New(inst, opts)
		if err != nil {
			panic(err) // default options on a valid instance
		}
		en.Close()
	})

	en, err := score.New(inst, opts)
	if err != nil {
		return err
	}
	defer en.Close()
	empty := core.NewSchedule(inst)
	var cands []score.Candidate
	var terms float64
	for ev := 0; ev < inst.NumEvents(); ev++ {
		perCand := float64(inst.NumUsers())
		if inst.IsSparse() {
			perCand = float64(inst.ColNonzeros(ev))
		}
		for t := 0; t < inst.NumIntervals(); t++ {
			if empty.Valid(ev, t) {
				cands = append(cands, score.Candidate{Event: ev, Interval: t})
				terms += perCand
			}
		}
	}
	out := make([]float64, len(cands))
	var d time.Duration
	r.tr.do("core.kernel", func() {
		t0 := time.Now()
		err = en.ScoreBatch(ctx, empty, cands, out)
		d = time.Since(t0)
	})
	if err != nil {
		return err
	}
	L["core.kernel_ns_per_term"] = float64(d.Nanoseconds()) / terms

	delta := core.ScorerDelta{Events: []int{e}}
	L["score.warm_build_ms"] = r.timeReps("score.warm_build", func() {
		w, err := score.NewFromPrevious(en, mutated, opts, delta)
		if err != nil {
			panic(err) // same options, predecessor snapshot
		}
		w.Close()
	})
	warm, err := score.NewFromPrevious(en, mutated, opts, delta)
	if err != nil {
		return err
	}
	defer warm.Close()
	s, err := algo.New("HOR-I", 1)
	if err != nil {
		return err
	}
	r.tr.do("algo.HOR-I.warm", func() { _, err = algo.WithEngine(s, warm).ScheduleCtx(ctx, mutated, k) })
	if err != nil {
		return err
	}
	st := warm.Stat()
	L["score.evals"] = float64(st.Evals)
	L["score.grid_hits"] = float64(st.GridHits)
	L["score.grid_hit_ratio"] = float64(st.GridHits) / float64(st.Evals+st.GridHits)
	L["score.batches"] = float64(st.Batches)
	L["score.fanouts"] = float64(st.Fanouts)
	return nil
}

// probeStore feeds a probe server.Store the instance and a stream of one-cell
// mutations with a WAL attached through its SetWAL hook, then recovers the
// log with persist.Open, decoding every record as a restarting server would.
func (r *run) probeStore(inst *core.Instance, doc []byte, cell func() seio.CellUpdate) error {
	L := r.layer
	dir, err := os.MkdirTemp(r.scratch, "probe-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, _, err := persist.Open(persist.Options{Dir: dir}, func(*seio.WALRecord) error { return nil })
	if err != nil {
		return err
	}
	var putAppend time.Duration
	st := server.NewStore()
	// The hook runs inside Put and Mutate, so its span nests under theirs.
	st.SetWAL(func(rec *seio.WALRecord) error {
		var err error
		r.tr.do("persist.append", func() {
			t0 := time.Now()
			err = log.Append(rec)
			if rec.Kind == seio.WALKindPut {
				putAppend = time.Since(t0)
			}
		})
		return err
	})
	r.tr.do("server.store_put", func() { _, _, err = st.Put("probe", inst) })
	if err != nil {
		log.Close()
		return err
	}
	putBytes := log.Stats().AppendedBytes
	L["persist.append_ms"] = ms(putAppend)
	L["persist.wal_bytes_per_doc_byte"] = float64(putBytes) / float64(len(doc))

	var mutErr error
	// A fixed count keeps persist.wal_bytes and persist.replayed_records
	// exact across runs.
	L["server.store_mutate_ms"] = r.timeRepsN("server.store_mutate", probeMutations, func() {
		if _, err := st.Mutate("probe", seio.MutateRequest{Interest: []seio.CellUpdate{cell()}}); err != nil {
			mutErr = err
		}
	})
	L["persist.wal_bytes"] = float64(log.Stats().AppendedBytes)
	if err := log.Close(); err != nil {
		return err
	}
	if mutErr != nil {
		return mutErr
	}

	var (
		reopened *persist.Log
		rec      persist.RecoveryStats
	)
	r.tr.do("persist.open", func() {
		t0 := time.Now()
		reopened, rec, err = persist.Open(persist.Options{Dir: dir}, func(rec *seio.WALRecord) error {
			var err error
			if rec.Kind == seio.WALKindPut {
				r.tr.do("seio.decode", func() { _, err = seio.ReadInstance(bytes.NewReader(rec.Put.Instance)) })
			}
			return err
		})
		L["persist.open_ms"] = ms(time.Since(t0))
	})
	if err != nil {
		return err
	}
	L["persist.replayed_records"] = float64(rec.Records + rec.SnapshotRecords)
	return reopened.Close()
}
