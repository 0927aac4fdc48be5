package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exp"
	"repro/internal/persist"
	"repro/internal/seio"
	"repro/internal/server"
)

// Persistbench measures what the write-ahead log costs the store's mutation
// path: the same Put / Mutate workload is timed against an in-memory store
// ("memory"), a WAL-backed one ("wal"), and — with -fsync — one syncing
// every append ("wal-fsync"). It then times one-cell Mutates against
// in-memory stores holding instances of 5K and 100K users, dense and 5%
// sparse (the "memory-dense" and "memory-sparse" MUTATE rows, X = |U|).
// A mutation costs O(delta): these rows grow with the one column each
// mutation copies and re-hashes (|U| cells dense, its nonzeros sparse),
// not with the whole instance. Output is the sesbench row vocabulary
// (-json → {"rows": [...]}), so cmd/benchdiff compares runs exactly like the
// solver benchmarks; the deterministic columns are all zero (the store does
// no scoring), making the rows pure wall-time trajectories. CI keeps a
// baseline in bench/baseline/persist/ and compares it with the wall-time
// gate disabled (small-file I/O is too noisy on shared runners to gate on) —
// the WAL-vs-memory delta stays visible in the diff table without
// micro-benchmark flakiness failing the build.
func Persistbench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("persistbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		users   = fs.Int("users", 120, "users per instance of the memory/wal series")
		k       = fs.Int("k", 3, "schedulable events driving the memory/wal instance shape (|E| = 3k)")
		puts    = fs.Int("puts", 20, "Put operations per series")
		mutates = fs.Int("mutates", 50, "Mutate operations per series, the |U| sweep included")
		fsync   = fs.Bool("fsync", false, "also measure a wal-fsync series (slow; excluded from the CI baseline)")
		jsonOut = fs.Bool("json", false, "write rows as JSON instead of a table")
		seed    = fs.Uint64("seed", 1, "dataset seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	inst, err := dataset.Generate(dataset.DefaultConfig(*k, *users, dataset.Zipf2, *seed))
	if err != nil {
		return fail(stderr, "persistbench", err)
	}
	modes := []string{"memory", "wal"}
	if *fsync {
		modes = append(modes, "wal-fsync")
	}
	var rows []exp.Row
	for _, mode := range modes {
		putMS, mutMS, err := benchStore(mode, inst, *puts, *mutates)
		if err != nil {
			return fail(stderr, "persistbench", err)
		}
		mk := func(op string, n int, d time.Duration) exp.Row {
			return exp.Row{
				Figure: "persist", Dataset: mode, Algorithm: op, XName: "ops", X: n,
				K: *k, Events: inst.NumEvents(), Intervals: inst.NumIntervals(), Users: inst.NumUsers(),
				Elapsed: d,
			}
		}
		rows = append(rows, mk("PUT", *puts, putMS), mk("MUTATE", *mutates, mutMS))
	}
	for _, sh := range mutateSweep {
		row, err := benchMutateSweep(sh, *mutates, *seed)
		if err != nil {
			return fail(stderr, "persistbench", err)
		}
		rows = append(rows, row)
	}
	if *jsonOut {
		if err := exp.WriteJSON(stdout, rows); err != nil {
			return fail(stderr, "persistbench", err)
		}
		return 0
	}
	fmt.Fprintf(stdout, "%-13s %-8s %7s %6s %12s %14s\n", "mode", "op", "users", "ops", "total(ms)", "per-op(µs)")
	for _, r := range rows {
		ops := r.X
		if r.XName == "users" {
			ops = *mutates
		}
		fmt.Fprintf(stdout, "%-13s %-8s %7d %6d %12.2f %14.1f\n",
			r.Dataset, r.Algorithm, r.Users, ops, seio.DurationMS(r.Elapsed),
			1000*seio.DurationMS(r.Elapsed)/float64(ops))
	}
	return 0
}

// benchStore times puts Put operations (cycling over 8 names) and mutates
// single-cell Mutate operations against one store configured for mode.
// WAL-backed modes write into a throwaway directory, exactly as the server
// wires the hook: every record flows through persist.Log.Append under the
// store's per-name write lock.
func benchStore(mode string, inst *core.Instance, puts, mutates int) (putTime, mutTime time.Duration, err error) {
	st := server.NewStore()
	if mode != "memory" {
		dir, err := os.MkdirTemp("", "persistbench-*")
		if err != nil {
			return 0, 0, err
		}
		defer os.RemoveAll(dir)
		wal, _, err := persist.Open(persist.Options{Dir: dir, Fsync: mode == "wal-fsync"},
			func(*seio.WALRecord) error { return nil })
		if err != nil {
			return 0, 0, err
		}
		defer wal.Close()
		st.SetWAL(wal.Append)
	}
	start := time.Now()
	for i := 0; i < puts; i++ {
		if _, _, err := st.Put(fmt.Sprintf("inst-%d", i%8), inst); err != nil {
			return 0, 0, err
		}
	}
	putTime = time.Since(start)
	start = time.Now()
	for i := 0; i < mutates; i++ {
		if _, err := st.Mutate("inst-0", seio.MutateRequest{
			Activity: []seio.CellUpdate{{User: i % inst.NumUsers(), Index: i % inst.NumIntervals(), Value: float64(i%10) / 10}},
		}); err != nil {
			return 0, 0, err
		}
	}
	mutTime = time.Since(start)
	return putTime, mutTime, nil
}

// sweepShape is one instance shape of the |U| sweep.
type sweepShape struct {
	rep    core.Rep
	users  int
	events int
}

// mutateSweep lists the instance shapes of the |U| sweep. The sparse shape
// is the 500-event, 10-interval synthetic workload of the sparse figure at
// 5% density; the dense one keeps 60 events so the 100K-user matrix stays
// small enough for a default run.
var mutateSweep = []sweepShape{
	{core.RepDense, 5_000, 60},
	{core.RepDense, 100_000, 60},
	{core.RepSparse, 5_000, 500},
	{core.RepSparse, 100_000, 500},
}

// benchMutateSweep uploads one instance of the given shape into a
// memory-only store and times mutates one-cell interest Mutates on it, each
// writing a different (user, event) cell.
func benchMutateSweep(sh sweepShape, mutates int, seed uint64) (exp.Row, error) {
	cfg := dataset.DefaultConfig(20, sh.users, dataset.Uniform, seed)
	cfg.NumEvents, cfg.NumIntervals, cfg.Rep = sh.events, 10, sh.rep
	if sh.rep == core.RepSparse {
		cfg.Density = 0.05
	}
	inst, err := dataset.Generate(cfg)
	if err != nil {
		return exp.Row{}, err
	}
	st := server.NewStore()
	if _, _, err := st.Put("sweep", inst); err != nil {
		return exp.Row{}, err
	}
	start := time.Now()
	for i := 0; i < mutates; i++ {
		if _, err := st.Mutate("sweep", seio.MutateRequest{
			Interest: []seio.CellUpdate{{User: i * 7919 % sh.users, Index: i % sh.events, Value: float64(i%10) / 10}},
		}); err != nil {
			return exp.Row{}, err
		}
	}
	return exp.Row{
		Figure: "persist", Dataset: "memory-" + sh.rep.String(), Algorithm: "MUTATE", XName: "users", X: sh.users,
		K: 20, Events: inst.NumEvents(), Intervals: inst.NumIntervals(), Users: inst.NumUsers(),
		Elapsed: time.Since(start),
	}, nil
}
