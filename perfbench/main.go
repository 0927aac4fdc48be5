// Command perfbench is the repository's benchmark. One invocation runs one
// seeded workload for a fixed measuring window, checks every output, and
// prints its metrics as one JSON object on the last line of standard output:
//
//	perfbench --workload solve-cold --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
// the same seed with spans recorded around every call into a layer and
// reports the per-layer metrics instead. See README.md for the workloads, the
// metric definitions and which end-to-end metric each per-layer one moves.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef declares one reported metric. The same lists are in
// BENCHMARK.json; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported by the plain
// run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"solves_per_s", "1/s", "higher"},
	{"solve_p50_ms", "ms", "lower"},
	{"fresh_solve_p50_ms", "ms", "lower"},
	{"first_answer_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

var algoNames = []string{"ALG", "INC", "HOR", "HOR-I"}

// perLayer are the single-layer metrics the traced run of every workload
// reports.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"dataset.generate_ms", "ms", "lower"},
		{"seio.doc_mb", "MB", "lower"},
		{"seio.decode_ms", "ms", "lower"},
		{"seio.decode_mb_per_s", "MB/s", "higher"},
		{"seio.encode_instance_ms", "ms", "lower"},
		{"seio.schedule_msg_ms", "ms", "lower"},
		{"core.scorer_build_ms", "ms", "lower"},
		{"core.snapshot_ms", "ms", "lower"},
		{"core.digest_ms", "ms", "lower"},
		{"core.kernel_ns_per_term", "ns", "lower"},
		{"score.engine_build_ms", "ms", "lower"},
		{"score.warm_build_ms", "ms", "lower"},
		{"score.evals", "count", "lower"},
		{"score.grid_hits", "count", "higher"},
		{"score.grid_hit_ratio", "ratio", "higher"},
		{"score.batches", "count", "lower"},
		{"score.fanouts", "count", "lower"},
	}
	for _, a := range algoNames {
		defs = append(defs,
			metricDef{"algo." + a + ".solve_ms", "ms", "lower"},
			metricDef{"algo." + a + ".score_evals", "count", "lower"},
			metricDef{"algo." + a + ".examined", "count", "lower"})
	}
	defs = append(defs,
		metricDef{"server.store_mutate_ms", "ms", "lower"},
		metricDef{"persist.append_ms", "ms", "lower"},
		metricDef{"persist.wal_bytes", "bytes", "lower"},
		metricDef{"persist.wal_bytes_per_doc_byte", "ratio", "lower"},
		metricDef{"persist.open_ms", "ms", "lower"},
		metricDef{"persist.replayed_records", "count", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"runtime.gc_pause_ms", "ms", "lower"},
		metricDef{"loadgen.lag_p99_ms", "ms", "lower"},
		// The solve tail did not repeat within a tenth between runs, so it
		// is a diagnostic here rather than a gated end-to-end metric.
		metricDef{"solve_tail_ms", "ms", "lower"},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{"self." + l + "_ms", "ms", "lower"})
	}
	return defs
}()

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     uint64
	window   time.Duration // the measuring window (--seconds)
	tr       *tracer       // nil in the plain run
	scratch  string        // working directory inside the checkout

	e2e   map[string]float64
	layer map[string]float64
	diag  map[string]any // printed, not gated: see README

	attempted, failed int
	checkErrs         []string

	gcStart runtime.MemStats
}

func (r *run) traced() bool { return r.tr != nil }

// check records a failed output check.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
	}
}

// setup runs the workload's set-up reps times and reports the median as
// setup_s; release drops what the previous rep built, and fn returns the time
// it spent generating instances, reported as dataset.generate_ms. Repeating
// it keeps one slow set-up from deciding the metric, and collecting garbage
// before each rep starts every rep from the same heap.
func (r *run) setup(reps int, release func(), fn func() (gen time.Duration, err error)) error {
	var total, gens []float64
	for i := 0; i < reps; i++ {
		release()
		runtime.GC()
		var gen time.Duration
		var err error
		start := time.Now()
		r.tr.do("setup", func() { gen, err = fn() })
		if err != nil {
			return err
		}
		total = append(total, time.Since(start).Seconds())
		gens = append(gens, ms(gen))
	}
	r.e2e["setup_s"] = median(total)
	r.layer["dataset.generate_ms"] = median(gens)
	return nil
}

// beginWindow marks the start of the measuring window for the runtime
// counters.
func (r *run) beginWindow() { runtime.ReadMemStats(&r.gcStart) }

// endWindow records the runtime counters of the measuring window.
func (r *run) endWindow() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.layer["runtime.gc_cycles"] = float64(m.NumGC - r.gcStart.NumGC)
	r.layer["runtime.gc_pause_ms"] = float64(m.PauseTotalNs-r.gcStart.PauseTotalNs) / 1e6
}

// workloadFunc runs one workload, filling r's metrics.
type workloadFunc func(ctx context.Context, r *run, sz sizes) error

var workloads = map[string]workloadFunc{
	"solve-cold":    solveCold,
	"serve-mixed":   serveMixed,
	"ingest-sparse": ingestSparse,
}

// sizes are the input sizes of every workload; tests shrink them.
type sizes struct {
	setupReps int

	coldUsers, coldK, coldInstances int

	mixUsers, mixK, mixFirstAnswers int
	mixRate                         float64 // open-loop offered rate, req/s

	ingUsers, ingEvents, ingIntervals, ingK, ingPairs, ingInstances int
	ingDensity                                                      float64
}

// competingPerInterval fixes the number of competing events per interval
// (the generators' default draws it from U[1,16], mean 8.5), so seeds vary an
// instance's values but not its size: otherwise one seed's instance can be
// half as large as another's, and the spread between seeds would measure that
// rather than the program.
const competingPerInterval = 8

// defaultSizes are the sizes BENCHMARK.json describes.
func defaultSizes() sizes {
	return sizes{
		setupReps:     3,
		coldUsers:     20000,
		coldK:         20,
		coldInstances: 8,

		mixUsers:        20000,
		mixK:            10,
		mixFirstAnswers: 10,
		mixRate:         100,

		ingUsers:     100000,
		ingEvents:    500,
		ingIntervals: 10,
		ingK:         20,
		ingPairs:     10,
		ingInstances: 3,
		ingDensity:   0.05,
	}
}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr, defaultSizes()))
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func benchMain(args []string, stdout, stderr io.Writer, sz sizes) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: solve-cold, serve-mixed or ingest-sparse")
		seed     = fs.Uint64("seed", 1, "seed every input is generated from")
		seconds  = fs.Float64("seconds", 30, "length of the measuring window in seconds")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		scratch  = fs.String("scratch", filepath.Join(".bench_build", "perfbench-run"), "directory for data dirs, traces and saved results")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wf, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload solve-cold|serve-mixed|ingest-sparse, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		scratch:  *scratch,
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		diag:     map[string]any{},
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	env := map[string]any{
		"workload": r.workload, "seed": r.seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
	fmt.Fprintf(stdout, "perfbench env %s\n", mustJSON(env))

	ctx := context.Background()
	if err := wf(ctx, r, sz); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	r.e2e["peak_rss_mb"] = peakRSSMiB()
	if r.traced() {
		self := r.tr.selfTimes()
		for _, l := range layers {
			r.layer["self."+l+"_ms"] = ms(self[l])
		}
		path := filepath.Join(r.scratch, fmt.Sprintf("trace-%s-%d.json", r.workload, r.seed))
		if err := r.tr.write(path, env); err != nil {
			fmt.Fprintf(stderr, "perfbench: write trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "perfbench spans written to %s\n", path)
	}
	r.reportOverhead(stdout)

	if len(r.diag) > 0 {
		fmt.Fprintf(stdout, "perfbench diagnostics %s\n", mustJSON(r.diag))
	}
	defs, vals := endToEnd, r.e2e
	if r.traced() {
		defs, vals = perLayer, r.layer
		fmt.Fprintf(stdout, "perfbench traced end-to-end %s\n", mustJSON(r.e2e))
	}
	res := result{Correct: len(r.checkErrs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured (%v)\n", d.name, v)
			return 1
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-34s %16.6g %s\n", d.name, v, d.unit)
	}
	for _, e := range r.checkErrs {
		fmt.Fprintf(stderr, "perfbench: output check failed: %s\n", e)
	}
	if res.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: no operation was attempted\n")
		return 1
	}
	fmt.Fprintln(stdout, mustJSON(res))
	if !res.Correct {
		return 1
	}
	return 0
}

// reportOverhead saves the plain run's end-to-end metrics and, in a traced
// run of the same workload and seed, prints how far tracing moved them.
func (r *run) reportOverhead(stdout io.Writer) {
	path := filepath.Join(r.scratch, fmt.Sprintf("e2e-%s-%d.json", r.workload, r.seed))
	if !r.traced() {
		// Best effort: the saved file only feeds the overhead report.
		_ = os.WriteFile(path, []byte(mustJSON(r.e2e)), 0o644)
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stdout, "perfbench tracing overhead: no plain run of this workload and seed to compare with\n")
		return
	}
	var plain map[string]float64
	if json.Unmarshal(b, &plain) != nil {
		return
	}
	var parts []string
	for _, d := range endToEnd {
		p, t := plain[d.name], r.e2e[d.name]
		if p != 0 {
			parts = append(parts, fmt.Sprintf("%s %+.1f%%", d.name, 100*(t-p)/p))
		}
	}
	fmt.Fprintf(stdout, "perfbench tracing overhead (traced vs plain): %s\n", strings.Join(parts, ", "))
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs of numbers and strings are marshalled
	}
	return string(b)
}
