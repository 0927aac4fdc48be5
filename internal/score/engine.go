// Package score is the shared Eq. 4 scoring engine behind every scheduler in
// internal/algo. The paper's cost model prices one assignment score at one
// pass over all |U| users (Figures 5e–5h count exactly these passes); that
// pass is embarrassingly parallel across users, and the candidate frontiers
// the algorithms evaluate (ALG's full grid, HOR's per-layer rescore, TOP's
// one-shot grid) are embarrassingly parallel across candidates. The engine
// exploits both without changing a single reported number:
//
//   - An Engine wraps one core.Scorer built for one instance snapshot. The
//     scorer's construction is the O(|U|·|C|) dense precompute of the
//     per-interval competing-interest rows — paid once per Engine and
//     amortized across every evaluation (and, when the Engine is shared, as
//     sesd shares one per instance version, across whole runs).
//
//   - A reusable worker set (sized by the caller; GOMAXPROCS is the
//     sensible ceiling) fans work out. Workers
//     are plain goroutines draining a task channel; batches never queue
//     behind each other because the submitting goroutine always participates
//     in its own batch, so a saturated worker set degrades to sequential
//     execution instead of deadlocking or stalling.
//
//   - Results are bit-identical in every mode. All summation happens over
//     fixed user shards of chunkUsers entries reduced in shard order, so a
//     score does not depend on the worker count, on which goroutine computed
//     which shard, or on whether the sequential fallback ran. Schedulers
//     therefore make identical selections with parallelism on or off, which
//     the equality tests assert for all six algorithms.
//
//   - Cancellation is cooperative: ScoreBatch polls its context between
//     candidates, so ScheduleCtx's promptness contract (internal/algo)
//     survives the fan-out.
package score

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/metrics/span"
)

// errNoPrevious rejects a warm build with no engine to inherit from.
var errNoPrevious = errors.New("score: warm engine build without a previous engine")

const (
	// chunkUsers is the fixed user-shard width. Fixed — not derived from
	// the worker count — so partial sums and their reduction order are a
	// function of |U| alone, which is what makes parallel, sequential and
	// single-worker scores bit-identical. 8192 float32 reads per shard is
	// comfortably past the point where goroutine handoff (~1µs) is noise.
	// The width is owned by core (kernels precompute per-shard state
	// against this grid — the sparse kernel's nonzero offsets).
	chunkUsers = core.ShardUsers

	// singleParallelUsers is the minimum |U| before ONE evaluation fans its
	// user pass out. Below it a sequential pass completes in the time the
	// fan-out costs (the old core parallelThreshold, kept).
	singleParallelUsers = 1 << 16

	// batchParallelWork is the minimum candidates × users before a batch
	// fans out across candidates. Small frontiers on small instances run
	// faster on the caller's goroutine than through the task channel.
	batchParallelWork = 1 << 15

	// ctxCheckEvery amortizes context polling in the sequential batch loop,
	// mirroring the schedulers' own guard cadence.
	ctxCheckEvery = 32

	// maxWorkers is a sanity cap on the worker set. The caller picks the
	// count (GOMAXPROCS is the sensible ceiling — see DefaultWorkers);
	// the cap only guards against absurd requests.
	maxWorkers = 256

	// gridMaxCells bounds the empty-schedule grid cache: |E|·|T| beyond it
	// (32 MB of float64) disables caching rather than ballooning every
	// engine. Paper-scale grids are ≤ 4.5M cells; sesd instances are far
	// smaller (the user dimension is the big one, and it is not cached).
	gridMaxCells = 1 << 22
)

// DefaultWorkers is the recommended worker count for a dedicated machine:
// one per schedulable core. CLIs map "-parallel -1" to it.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Candidate is one assignment α_e^t to score.
type Candidate struct {
	Event    int
	Interval int
}

// Engine is a reusable scoring engine for one instance snapshot. An Engine is
// safe for concurrent use: multiple solves may share one Engine (sesd shares
// one per instance version) and issue overlapping batches; the worker set is
// shared and work-stealing, so concurrent batches interleave instead of
// serializing.
//
// Close releases the worker goroutines. Calls must not overlap Close; owners
// (a scheduler run, or the server's refcounted engine cache) close only after
// every user of the Engine has finished.
type Engine struct {
	sc      *core.Scorer
	inst    *core.Instance
	workers int
	tasks   chan func()
	sink    *Sink
	// kernelEvals is the sink's per-kernel eval counter child bound to
	// this engine's kernel name (nil when the sink is absent or unlabeled).
	kernelEvals *metrics.Counter

	closeOnce sync.Once

	// The empty-schedule grid cache: grid[e·|T|+t] holds the Eq. 4 score of
	// α_e^t against the EMPTY schedule once gridOK marks it. Every
	// scheduler's dominant batch is its initial frontier scored against an
	// empty schedule (ALG/TOP's full grid, INC's init, HOR/HOR-I's first
	// layer), and that score is a pure function of the instance snapshot
	// and options — so entries computed by one run serve every later run on
	// the same engine, and NewFromPrevious carries the clean entries across
	// a mutation. Cached values are the exact bits scoreShards produced, so
	// serving them changes no reported number; schedulers account their
	// requested evaluations themselves, so their ScoreEvals stay identical
	// whether the engine computed or remembered.
	gridMu sync.Mutex
	grid   []float64
	gridOK []bool

	evals    atomic.Int64
	batches  atomic.Int64
	fanouts  atomic.Int64
	gridHits atomic.Int64
}

// Sink is an optional set of shared telemetry instruments an engine reports
// into, on top of its private Stats counters. sesd wires one Sink into every
// engine of its cache so engine churn (LRU eviction, per-version rebuilds)
// never resets the exported time series. Instrument fields may be nil
// (nil-safe no-ops); a nil Sink disables reporting entirely. Reporting adds
// one atomic per counted event and one clock read per batch — it never
// touches the scoring arithmetic, so results stay bit-identical.
type Sink struct {
	// Evals counts Eq. 4 evaluations; Batches counts ScoreBatch calls that
	// ran to completion; Fanouts counts evaluations/batches that engaged the
	// worker set.
	Evals   *metrics.Counter
	Batches *metrics.Counter
	Fanouts *metrics.Counter
	// GridHits counts evaluations served from the empty-schedule grid
	// cache instead of being recomputed (warm re-solve's saved work).
	GridHits *metrics.Counter
	// BatchCandidates observes the candidate-frontier width of each batch
	// (the per-batch shard fan-out the schedulers request); BatchSeconds
	// observes each batch's wall time.
	BatchCandidates *metrics.Histogram
	BatchSeconds    *metrics.Histogram
	// KernelEvals partitions computed Eq. 4 evaluations by the kernel that
	// ran them (label: the scorer's KernelName, "scalar" or "sparse").
	// Each engine binds its own child at SetSink time, so the per-kernel
	// split costs one pointer indirection, not a map lookup per eval.
	KernelEvals *metrics.CounterVec
}

// SetSink attaches the shared telemetry sink. Call before the engine is
// shared across goroutines (sesd sets it right after construction); a nil
// sink keeps reporting off.
func (en *Engine) SetSink(s *Sink) {
	en.sink = s
	en.kernelEvals = nil
	if s != nil {
		en.kernelEvals = s.KernelEvals.With(en.sc.KernelName())
	}
}

// New builds an engine for the instance, precomputing the dense per-interval
// competition rows. opts.Workers sizes the worker set: ≤ 1 means sequential,
// and the scoring pass is CPU-bound so counts beyond GOMAXPROCS (see
// DefaultWorkers) buy nothing but contention. The count is honored as given
// — results are bit-identical for every worker count, so oversubscription is
// a performance choice, never a correctness one.
func New(inst *core.Instance, opts core.ScorerOptions) (*Engine, error) {
	sc, err := core.NewScorerWithOptions(inst, opts)
	if err != nil {
		return nil, err
	}
	return newEngine(sc, inst, opts.Workers), nil
}

// newEngine wraps a built scorer with a worker set of the requested size.
func newEngine(sc *core.Scorer, inst *core.Instance, workers int) *Engine {
	w := workers
	if w < 1 {
		w = 1
	}
	if w > maxWorkers {
		w = maxWorkers
	}
	en := &Engine{sc: sc, inst: inst, workers: w}
	if w > 1 {
		// w-1 helper goroutines: the goroutine that submits a batch always
		// works on it too, so w workers participate in a lone batch.
		en.tasks = make(chan func(), w)
		for i := 0; i < w-1; i++ {
			go en.work()
		}
	}
	return en
}

// NewFromPrevious builds an engine for inst warm: the scorer reuses the
// clean parts of prev's precompute (core.NewScorerFromDelta) and the
// empty-schedule grid carries over minus the entries the delta dirtied — a
// dirty event drops its row, a dirty interval (competing OR activity: both
// change what an empty-schedule score reads) drops its column. The warm
// engine is bit-identical to New(inst, opts) in every output: shared state
// is immutable, rebuilt state runs the cold construction, and surviving
// grid entries are exact because their operands (interest column, activity
// column, competing sum, cost) are untouched by the mutation.
//
// prev must be the engine of the predecessor snapshot built with the same
// options values; on any mismatch an error is returned and the caller
// should fall back to New. prev stays usable (and must still be Closed by
// its owner).
func NewFromPrevious(prev *Engine, inst *core.Instance, opts core.ScorerOptions, d core.ScorerDelta) (*Engine, error) {
	if prev == nil {
		return nil, errNoPrevious
	}
	sc, err := core.NewScorerFromDelta(prev.sc, inst, opts, d)
	if err != nil {
		return nil, err
	}
	en := newEngine(sc, inst, opts.Workers)
	if n := inst.NumEvents() * inst.NumIntervals(); n > 0 && n <= gridMaxCells {
		prev.gridMu.Lock()
		if len(prev.grid) == n {
			grid := make([]float64, n)
			ok := make([]bool, n)
			copy(grid, prev.grid)
			copy(ok, prev.gridOK)
			prev.gridMu.Unlock()
			nT := inst.NumIntervals()
			for _, e := range d.Events {
				for t := 0; t < nT; t++ {
					ok[e*nT+t] = false
				}
			}
			dropInterval := func(t int) {
				for e := 0; e < inst.NumEvents(); e++ {
					ok[e*nT+t] = false
				}
			}
			for _, t := range d.CompIntervals {
				dropInterval(t)
			}
			for _, t := range d.ActIntervals {
				dropInterval(t)
			}
			en.grid, en.gridOK = grid, ok
		} else {
			prev.gridMu.Unlock()
		}
	}
	return en, nil
}

func (en *Engine) work() {
	for fn := range en.tasks {
		fn()
	}
}

// offer hands fn to an idle helper without blocking. When the worker set is
// saturated by concurrent batches the caller keeps the work — progress never
// depends on a helper being free.
func (en *Engine) offer(fn func()) bool {
	select {
	case en.tasks <- fn:
		return true
	default:
		return false
	}
}

// fanOut runs fn(i) once for every i in [0, n) on the calling goroutine
// plus as many idle helpers as take a share (at most n-1), each claiming the
// next index from a shared counter, and returns when all have finished. The
// workers stop claiming once ctx is done. It counts one fan-out.
func (en *Engine) fanOut(ctx context.Context, n int, fn func(i int)) {
	en.fanouts.Add(1)
	if sk := en.sink; sk != nil {
		sk.Fanouts.Inc()
	}
	var next atomic.Int64
	run := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for h := 0; h < min(en.workers, n)-1; h++ {
		wg.Add(1)
		if !en.offer(func() { defer wg.Done(); run() }) {
			wg.Done()
			break // saturated: the indexes left run on this goroutine
		}
	}
	run()
	wg.Wait()
}

// Close stops the worker goroutines. Idempotent.
func (en *Engine) Close() {
	en.closeOnce.Do(func() {
		if en.tasks != nil {
			close(en.tasks)
		}
	})
}

// Instance returns the instance snapshot the engine scores against.
func (en *Engine) Instance() *core.Instance { return en.inst }

// Scorer exposes the wrapped scorer for the non-hot-path evaluations that
// never fan out (Utility, Rho, EventAttendance).
func (en *Engine) Scorer() *core.Scorer { return en.sc }

// Workers returns the effective worker count (1 = sequential).
func (en *Engine) Workers() int { return en.workers }

// KernelName returns the Eq. 4 kernel the engine's scorer runs: "scalar" on
// a dense instance, "sparse" on a sparse one.
func (en *Engine) KernelName() string { return en.sc.KernelName() }

// Utility computes Ω(S) (Eq. 3). One pass per non-empty interval; never
// parallelized, so it is the same bits in every mode.
func (en *Engine) Utility(s *core.Schedule) float64 { return en.sc.Utility(s) }

// scoreShards is the canonical evaluation: the Eq. 4 user pass over fixed
// shards reduced in shard order, minus the event cost. Every path through the
// engine — sequential, batched, user-sharded — bottoms out here or reproduces
// exactly this sum.
func (en *Engine) scoreShards(s *core.Schedule, e, t int) float64 {
	nU := en.inst.NumUsers()
	gain := 0.0
	for lo := 0; lo < nU; lo += chunkUsers {
		hi := lo + chunkUsers
		if hi > nU {
			hi = nU
		}
		gain += en.sc.ScoreUsers(s, e, t, lo, hi)
	}
	return gain - en.sc.AssignCost(e)
}

// Score evaluates one assignment score (Eq. 4) against schedule s. With
// workers and a large enough user dimension the pass is sharded across the
// worker set; the result is bit-identical either way. Score is the primitive
// for the sequentially-dependent passes (INC's and HOR-I's incremental
// updates, whose decision to evaluate a candidate depends on the previous
// result); independent frontiers should use ScoreBatch.
func (en *Engine) Score(s *core.Schedule, e, t int) float64 {
	nU := en.inst.NumUsers()
	if en.workers > 1 && nU >= singleParallelUsers {
		return en.scoreSharded(s, e, t)
	}
	en.evals.Add(1)
	if sk := en.sink; sk != nil {
		sk.Evals.Inc()
		en.kernelEvals.Inc()
	}
	return en.scoreShards(s, e, t)
}

// scoreSharded fans one evaluation's user shards across the worker set and
// reduces the partials in shard order.
func (en *Engine) scoreSharded(s *core.Schedule, e, t int) float64 {
	if sk := en.sink; sk != nil {
		sk.Evals.Inc()
		en.kernelEvals.Inc()
	}
	nU := en.inst.NumUsers()
	partial := make([]float64, (nU+chunkUsers-1)/chunkUsers)
	en.fanOut(context.TODO(), len(partial), func(i int) {
		lo := i * chunkUsers
		partial[i] = en.sc.ScoreUsers(s, e, t, lo, min(lo+chunkUsers, nU))
	})
	gain := 0.0
	for _, p := range partial {
		gain += p
	}
	en.evals.Add(1)
	return gain - en.sc.AssignCost(e)
}

// ScoreBatch evaluates M candidate assignments against the current partial
// schedule in one fan-out, writing cands[i]'s score to out[i]. This is how
// the schedulers evaluate whole candidate frontiers: one call scores ALG's
// initial |E|×|T| grid or HOR's per-layer rescore with the user dimension's
// work spread across the worker set (parallelism across candidates — each
// out[i] is written by exactly one goroutine, so no accumulation races and
// no float reassociation).
//
// The context is polled between candidates; on cancellation ScoreBatch
// returns ctx.Err() promptly and out holds a mix of fresh and stale values
// the caller must discard. A nil error means every candidate was scored and
// the caller may account len(cands) evaluations.
func (en *Engine) ScoreBatch(ctx context.Context, s *core.Schedule, cands []Candidate, out []float64) error {
	if len(out) < len(cands) {
		panic("score: ScoreBatch output buffer shorter than candidate list")
	}
	// Stage timing: a request-scoped trace riding ctx (span.FromContext) gets
	// the batch's wall time attributed to its "score" stage, and the shared
	// sink observes batch width and duration. Both are off (two nil checks)
	// for bench and CLI runs, and neither touches the scoring arithmetic.
	tr := span.FromContext(ctx)
	var batchStart time.Time
	if tr != nil || en.sink != nil {
		batchStart = time.Now()
	}
	defer func() {
		if batchStart.IsZero() {
			return
		}
		d := time.Since(batchStart)
		tr.Add("score", d)
		if sk := en.sink; sk != nil {
			sk.BatchSeconds.Observe(d.Seconds())
			sk.BatchCandidates.Observe(float64(len(cands)))
		}
	}()
	var err error
	if s.Len() == 0 && en.gridEnabled() {
		err = en.scoreBatchGrid(ctx, s, cands, out)
	} else {
		err = en.scoreBatchCompute(ctx, s, cands, out)
	}
	if err != nil {
		return err
	}
	en.batches.Add(1)
	if sk := en.sink; sk != nil {
		sk.Batches.Inc()
	}
	return nil
}

// gridEnabled reports whether this engine caches empty-schedule scores.
func (en *Engine) gridEnabled() bool {
	n := en.inst.NumEvents() * en.inst.NumIntervals()
	return n > 0 && n <= gridMaxCells
}

// scoreBatchGrid serves an empty-schedule frontier from the grid cache,
// computing (and remembering) only the entries not yet known. Values are the
// exact bits scoreBatchCompute would produce: a cached entry IS a previous
// scoreShards result over operands that have not changed since.
func (en *Engine) scoreBatchGrid(ctx context.Context, s *core.Schedule, cands []Candidate, out []float64) error {
	nT := en.inst.NumIntervals()
	en.gridMu.Lock()
	if en.grid == nil {
		en.grid = make([]float64, en.inst.NumEvents()*nT)
		en.gridOK = make([]bool, len(en.grid))
	}
	var miss []int
	for i, cd := range cands {
		cell := cd.Event*nT + cd.Interval
		if en.gridOK[cell] {
			out[i] = en.grid[cell]
		} else {
			miss = append(miss, i)
		}
	}
	en.gridMu.Unlock()
	if hits := len(cands) - len(miss); hits > 0 {
		en.gridHits.Add(int64(hits))
		if sk := en.sink; sk != nil {
			sk.GridHits.Add(int64(hits))
		}
	}
	if len(miss) == 0 {
		return ctx.Err()
	}
	mc := make([]Candidate, len(miss))
	mo := make([]float64, len(miss))
	for j, i := range miss {
		mc[j] = cands[i]
	}
	if err := en.scoreBatchCompute(ctx, s, mc, mo); err != nil {
		return err
	}
	en.gridMu.Lock()
	for j, i := range miss {
		cell := cands[i].Event*nT + cands[i].Interval
		en.grid[cell] = mo[j]
		en.gridOK[cell] = true
		out[i] = mo[j]
	}
	en.gridMu.Unlock()
	return nil
}

// scoreBatchCompute is the computing path: every candidate is evaluated by
// scoreShards, sequentially or fanned out across the worker set.
func (en *Engine) scoreBatchCompute(ctx context.Context, s *core.Schedule, cands []Candidate, out []float64) error {
	nU := en.inst.NumUsers()
	if en.workers <= 1 || len(cands) < 2 || len(cands)*nU < batchParallelWork {
		for i, cd := range cands {
			if i%ctxCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			out[i] = en.scoreShards(s, cd.Event, cd.Interval)
		}
	} else {
		en.fanOut(ctx, len(cands), func(i int) {
			out[i] = en.scoreShards(s, cands[i].Event, cands[i].Interval)
		})
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	en.evals.Add(int64(len(cands)))
	if sk := en.sink; sk != nil {
		sk.Evals.Add(int64(len(cands)))
		en.kernelEvals.Add(int64(len(cands)))
	}
	return nil
}

// Stats is a point-in-time view of the engine's work, surfaced by sesd's
// /stats. Evals counts Eq. 4 evaluations performed (batch or single);
// Fanouts counts the evaluations/batches that actually engaged the worker
// set, so Fanouts ≪ Batches means the workload stayed under the parallel
// thresholds.
type Stats struct {
	Workers int `json:"workers"`
	// Kernel is the Eq. 4 kernel this engine runs ("scalar" or "sparse",
	// picked by the instance representation).
	Kernel  string `json:"kernel,omitempty"`
	Evals   int64  `json:"evals"`
	Batches int64  `json:"batches"`
	Fanouts int64  `json:"fanouts"`
	// GridHits counts evaluations served from the empty-schedule grid
	// cache: work a warm engine (or a later run on a shared one) skipped.
	// Evals counts only computed passes, so a scheduler's reported
	// ScoreEvals for one run equals the engine-side evals+gridHits delta.
	GridHits int64 `json:"grid_hits,omitempty"`
}

// Stat samples the engine counters.
func (en *Engine) Stat() Stats {
	return Stats{
		Workers:  en.workers,
		Kernel:   en.sc.KernelName(),
		Evals:    en.evals.Load(),
		Batches:  en.batches.Load(),
		Fanouts:  en.fanouts.Load(),
		GridHits: en.gridHits.Load(),
	}
}
