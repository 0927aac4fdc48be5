package score

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// sparseCopy rebuilds inst in the sparse representation: the same problem,
// scored by the sparse kernel.
func sparseCopy(t *testing.T, inst *core.Instance) *core.Instance {
	t.Helper()
	b, err := core.NewBuilder(inst.Events, inst.Intervals, inst.Competing, inst.NumUsers(), inst.Theta, core.RepSparse)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float32, inst.NumEvents()+inst.NumCompeting())
	act := make([]float32, inst.NumIntervals())
	for u := 0; u < inst.NumUsers(); u++ {
		inst.CopyInterestRow(u, row)
		inst.CopyActivityRow(u, act)
		if err := b.AddUser(row, act); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !sp.IsSparse() {
		t.Fatal("sparse copy built dense")
	}
	return sp
}

// TestEngineKernelSelection: the instance representation picks the engine's
// kernel — reported by KernelName and Stats — and both kernels keep every
// score bit-identical to the sequential dense engine at every worker count.
func TestEngineKernelSelection(t *testing.T) {
	inst := testInstance(21, 8, 4, 3, 900)
	sparse := sparseCopy(t, inst)
	s := testSchedule(t, inst)
	ref, err := New(inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, c := range []struct {
		inst *core.Instance
		want string
	}{{inst, "scalar"}, {sparse, "sparse"}} {
		for _, workers := range []int{0, 3} {
			en, err := New(c.inst, core.ScorerOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if en.KernelName() != c.want {
				t.Fatalf("engine kernel = %q, want %q", en.KernelName(), c.want)
			}
			if st := en.Stat(); st.Kernel != c.want {
				t.Fatalf("Stats.Kernel = %q, want %q", st.Kernel, c.want)
			}
			for e := 0; e < inst.NumEvents(); e++ {
				for tv := 0; tv < inst.NumIntervals(); tv++ {
					if got, want := en.Score(s, e, tv), ref.Score(s, e, tv); got != want {
						t.Fatalf("kernel %q workers=%d Score(e%d,t%d) = %x, want %x", c.want, workers, e, tv, got, want)
					}
				}
			}
			en.Close()
		}
	}
}

// TestEngineKernelEvalsSink: the per-kernel eval counter is bound to the
// engine's kernel label ("scalar" on a dense instance) and moves in step
// with computed (not grid-served) evaluations.
func TestEngineKernelEvalsSink(t *testing.T) {
	inst := testInstance(22, 6, 3, 2, 400)
	en, err := New(inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	r := metrics.NewRegistry()
	kv := r.CounterVec("test_kernel_evals_total", "per-kernel evals", "kernel")
	en.SetSink(&Sink{KernelEvals: kv})

	s := testSchedule(t, inst)
	const singles = 7
	for i := 0; i < singles; i++ {
		en.Score(s, i%inst.NumEvents(), 0)
	}
	if got := kv.With("scalar").Value(); got != singles {
		t.Fatalf("kernel eval counter = %d after %d Score calls, want %d", got, singles, singles)
	}
	if got := kv.With("sparse").Value(); got != 0 {
		t.Fatalf("sparse label moved (%d) on a dense engine", got)
	}

	// A batch over a non-empty schedule computes every candidate.
	grid := fullGrid(inst)
	out := make([]float64, len(grid))
	if err := en.ScoreBatch(context.Background(), s, grid, out); err != nil {
		t.Fatal(err)
	}
	want := int64(singles + len(grid))
	if got := kv.With("scalar").Value(); got != want {
		t.Fatalf("kernel eval counter = %d after batch, want %d", got, want)
	}

	// Empty-schedule batches are grid-cached: the repeat batch is served from
	// the grid and must NOT count as kernel evaluations.
	empty := core.NewSchedule(inst)
	if err := en.ScoreBatch(context.Background(), empty, grid, out); err != nil {
		t.Fatal(err)
	}
	afterFill := kv.With("scalar").Value()
	if err := en.ScoreBatch(context.Background(), empty, grid, out); err != nil {
		t.Fatal(err)
	}
	if got := kv.With("scalar").Value(); got != afterFill {
		t.Fatalf("grid-served batch moved the kernel eval counter (%d -> %d)", afterFill, got)
	}
}

// TestNewFromPreviousKernelChange: a warm engine whose instance switched
// representation (dense predecessor, sparse successor) runs the sparse
// kernel, carries the predecessor's empty-schedule grid — both kernels
// produce the same bits, so cached entries stay exact — and agrees bitwise
// with a cold build.
func TestNewFromPreviousKernelChange(t *testing.T) {
	inst := testInstance(23, 6, 3, 2, 300)
	prev, err := New(inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer prev.Close()
	grid := fullGrid(inst)
	out := make([]float64, len(grid))
	if err := prev.ScoreBatch(context.Background(), core.NewSchedule(inst), grid, out); err != nil {
		t.Fatal(err)
	}

	dense := inst.Snapshot()
	dense.SetInterest(3, 1, 0.66)
	next := sparseCopy(t, dense)
	d := core.ScorerDelta{Events: []int{1}}

	warm, err := NewFromPrevious(prev, next, core.ScorerOptions{}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if warm.KernelName() != "sparse" {
		t.Fatalf("warm engine kernel = %q", warm.KernelName())
	}
	if warm.grid == nil {
		t.Fatal("representation change dropped the grid carry")
	}

	cold, err := New(next, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	co, wo := make([]float64, len(grid)), make([]float64, len(grid))
	empty := core.NewSchedule(next)
	for _, s := range []*core.Schedule{empty, testSchedule(t, next)} {
		if err := cold.ScoreBatch(context.Background(), s, grid, co); err != nil {
			t.Fatal(err)
		}
		if err := warm.ScoreBatch(context.Background(), s, grid, wo); err != nil {
			t.Fatal(err)
		}
		for i := range co {
			if co[i] != wo[i] {
				t.Fatalf("warm scores diverged at %d: cold=%x warm=%x", i, co[i], wo[i])
			}
		}
	}
}
