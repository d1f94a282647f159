// Command bench is the repository's one benchmark: five fixed workloads over
// the engine's public surface, three end-to-end metrics each, a per-layer
// attribution from a second, traced run, and every output checked.
//
//	bench/run.sh --workload scan_agg --seed 1 --seconds 10 --trace 0
//
// runs one workload and prints its metrics; the last line of standard output
// is one JSON object. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const (
	// buildDir is the one place in the checkout the benchmark writes to:
	// temporary data under tmp/, the spans of a traced run in
	// trace-<workload>.json.
	buildDir = ".bench_build"
	// setupReps set-ups are timed per run and their median is reported: one
	// set-up is a single sample of about a second.
	setupReps = 3
)

// metricValue is one entry of the result line's "metrics".
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newWorkload(name string, seed int64, s *samples, sz sizing, scratch string) (workload, error) {
	switch name {
	case "scan_agg":
		return newScanAgg(seed, s, sz.scanAggScale), nil
	case "join_local":
		return newJoin(seed, s, sz.joinScale, false), nil
	case "join_http":
		return newJoin(seed, s, sz.joinScale, true), nil
	case "serving_mix":
		return newServingMix(seed, s, sz), nil
	case "spill_etl":
		return newSpillETL(seed, s, sz.spillScale, scratch), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// run is everything one invocation measured, before it is cut down to the
// metrics the mode reports.
type run struct {
	s          *samples
	values     map[string]float64
	setupS     []float64
	referenceS float64
	passS      []float64 // plain passes
	tracedS    []float64
	twinS      []float64 // join_http traced run: passes of the join_local twin
	timedS     float64
}

// timedSetup makes a workload and times its set-up: construction, data load
// and the warm-up pass.
func timedSetup(name string, seed int64, s *samples, sz sizing, scratch string) (workload, float64, error) {
	w, err := newWorkload(name, seed, s, sz, scratch)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := w.setup(); err != nil {
		w.close()
		return nil, 0, fmt.Errorf("%s setup: %w", name, err)
	}
	return w, time.Since(start).Seconds(), nil
}

// runWorkload runs one workload once. Untraced, every pass is plain and the
// end-to-end metrics come out. Traced, passes alternate traced and plain (the
// ratio of their medians is the tracing overhead), the per-layer metrics come
// out, and the spans go to dir/trace-<workload>.json.
func runWorkload(name string, seed int64, seconds float64, traced bool, sz sizing, dir string) (*run, error) {
	scratch := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	r := &run{s: newSamples(), values: map[string]float64{}}
	w, setupS, err := timedSetup(name, seed, r.s, sz, scratch)
	if err != nil {
		return nil, err
	}
	defer func() { w.close() }()
	r.setupS = append(r.setupS, setupS)

	start := time.Now()
	if err := w.reference(); err != nil {
		return nil, fmt.Errorf("%s reference: %w", name, err)
	}
	r.referenceS = time.Since(start).Seconds()

	// The traced join_http run also measures its in-process twin: the same
	// statements, scale and seed without the wire. The twin supplies the
	// operator rollup the HTTP coordinator cannot, and the ratio of the two
	// pass times is the communication overhead.
	var twin workload
	twinSamples := newSamples()
	if traced && name == "join_http" {
		twin = newJoin(seed, twinSamples, sz.joinScale, false)
		defer twin.close()
		if err := twin.setup(); err != nil {
			return nil, fmt.Errorf("join_local twin setup: %w", err)
		}
		if err := twin.reference(); err != nil {
			return nil, fmt.Errorf("join_local twin reference: %w", err)
		}
	}

	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	settle()
	before := w.engine().counters()
	memBefore := readMem()
	heap := startHeapSampler()
	timedStart := time.Now()
	for i, n := 0, timedPasses(name, seconds); i < n; i++ {
		switch {
		case !traced || i%2 == 1:
			r.passS = append(r.passS, w.pass(nil))
		default:
			r.tracedS = append(r.tracedS, w.pass(tr))
			if twin != nil {
				r.twinS = append(r.twinS, twin.pass(tr))
			}
		}
	}
	r.timedS = time.Since(timedStart).Seconds()
	heapPeak := heap.Stop()
	mem := memSince(memBefore)
	after := w.engine().counters()
	w.finish()

	// The remaining set-ups are only timed (a warm-up statement that fails
	// still counts). They come after the timed phase so that their garbage
	// is not in the heap the passes ran in.
	for i := 1; i < setupReps; i++ {
		w.close()
		settle()
		next, setupS, err := timedSetup(name, seed, r.s, sz, scratch)
		if err != nil {
			return nil, err
		}
		w = next
		r.setupS = append(r.setupS, setupS)
	}

	ops := len(r.s.latMs)
	allOps := float64(ops + len(twinSamples.latMs)) // everything the process ran in the timed phase
	v := r.values
	v["setup_s"] = median(r.setupS)
	v["wall_s"] = median(r.passS)
	v["op_p50_ms"] = percentile(r.s.latMs, 0.50)
	v["op_p90_ms"] = percentile(r.s.latMs, 0.90)
	v["alloc_mb_per_op"] = ratio(float64(mem.allocBytes)/mb, allOps)
	v["heap_peak_mb"] = float64(heapPeak) / mb
	counterMetrics(before, after, ops, v)
	r.s.attempted += twinSamples.attempted
	r.s.failed += twinSamples.failed
	r.s.failures = append(r.s.failures, twinSamples.failures...)
	if !traced {
		return r, nil
	}

	v["failed_frac"] = ratio(float64(r.s.failed), float64(r.s.attempted))
	v[discardedAttempts] = 0 // an attempt knows of none; measure counts them
	v["trace_overhead_ratio"] = ratio(median(r.tracedS), median(r.passS))
	v["httpapi.stmt_p99_ms"] = percentile(r.s.latMs, 0.99)
	var reads []float64
	for _, shape := range shapeNames[:shapeInsert] {
		reads = append(reads, r.s.byStmt[shape]...)
	}
	v["serving.read_p50_ms"] = percentile(reads, 0.50)
	v["serving.write_p50_ms"] = percentile(r.s.byStmt[shapeNames[shapeInsert]], 0.50)
	v["memory.gc_cycles_per_op"] = ratio(float64(mem.gcCycles), allOps)
	v["memory.gc_pause_ms_per_op"] = ratio(float64(mem.gcPauseNs)/1e6, allOps)
	r.s.layers.clientMetrics(v)
	if twin != nil {
		twinSamples.layers.rollupMetrics(v)
	} else {
		r.s.layers.rollupMetrics(v)
	}
	// Zero outside join_http, which alone has a twin to compare with.
	v["shuffle.comm_overhead_ratio"] = ratio(median(r.tracedS), median(r.twinS))
	if err := tr.write(filepath.Join(dir, "trace-"+name+".json")); err != nil {
		return nil, err
	}
	if err := runProbes(seed, sz.probeScale, scratch, v); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	return r, nil
}

// report prints the human-readable account to standard error and returns the
// result line for standard output.
func (r *run) report(name string, seed int64, traced bool) resultLine {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := resultLine{
		Correct:   r.s.failed == 0,
		Attempted: r.s.attempted,
		Failed:    r.s.failed,
		Metrics:   map[string]metricValue{},
	}
	e := os.Stderr
	fmt.Fprintf(e, "workload %s  seed %d  traced %v\n", name, seed, traced)
	fmt.Fprintf(e, "  env: nproc=%d GOMAXPROCS=%d GOGC=%s %s git=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), envOr("GOGC", "100"), runtime.Version(), envOr("GIT_SHA", "unknown"))
	fmt.Fprintf(e, "  setup reps %.3v s, reference_s %.3f (untimed), timed phase %.2f s\n", r.setupS, r.referenceS, r.timedS)
	fmt.Fprintf(e, "  samples: %d plain passes, %d traced passes, %d timed ops pooled for the percentiles; attempted %d, failed %d\n",
		len(r.passS), len(r.tracedS), len(r.s.latMs), r.s.attempted, r.s.failed)
	if q1, q3 := quartiles(r.passS); len(r.passS) > 1 {
		fmt.Fprintf(e, "  pass time quartiles %.4f / %.4f / %.4f s\n", q1, median(r.passS), q3)
	}
	for _, id := range sortedKeys(r.s.byStmt) {
		l := r.s.byStmt[id]
		fmt.Fprintf(e, "  statement %-8s n=%-5d p50 %9.3f ms  p90 %9.3f ms\n", id, len(l), percentile(l, 0.5), percentile(l, 0.9))
	}
	for _, f := range r.s.failures {
		fmt.Fprintf(e, "  FAILED %s\n", f)
	}
	if !traced {
		// The demoted candidates and the counter differences are free to
		// read, so the plain run shows them too; only the traced run reports
		// them as metrics.
		for _, k := range []string{"op_p50_ms", "op_p90_ms", "heap_peak_mb", "serving.plan_hit_rate", "serving.result_hit_rate", "serving.plan_invalidations",
			"serving.result_invalidations", "cache.page_hit_rate", "cache.page_evictions", "cache.meta_hit_rate",
			"wire.http_requests_per_op", "wire.http_bytes_per_op"} {
			fmt.Fprintf(e, "  (%s %.6g)\n", k, r.values[k])
		}
	}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: r.values[d.Name], Unit: d.Unit}
		fmt.Fprintf(e, "  %-38s %14.6g %s\n", d.Name, r.values[d.Name], d.Unit)
	}
	return line
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func main() {
	var (
		name     = flag.String("workload", "all", "one of "+fmt.Sprint(workloadNames())+", or all")
		seed     = flag.Int64("seed", 1, "seed for statement literals, per-pass order and key draws")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase on the reference box: it is a frozen number of passes per second asked for")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file")
		aa       = flag.Bool("aa", false, "A/A mode: two sets of runs of the same code, compared against the bounds")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json from the program's metric tables and exit")
		attempt  = flag.Int("attempt", 0, "set by the benchmark itself on the fresh process that makes one measurement (see measure)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
		return
	case *aa:
		os.Exit(runAA(selected(*name), *seed, *seconds))
	case *name == "all":
		ok := true
		for _, w := range workloadNames() {
			line, err := measure(w, *seed, *seconds, *trace)
			if err != nil {
				fatal(err)
			}
			out, _ := json.Marshal(line)
			fmt.Printf("%s %s\n", w, out)
			ok = ok && line.Correct
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	var line resultLine
	if *attempt > 0 {
		r, err := runWorkload(*name, *seed, *seconds, *trace == 1, benchSizing, buildDir)
		if err != nil {
			fatal(err)
		}
		line = r.report(*name, *seed, *trace == 1)
	} else {
		var err error
		if line, err = measure(*name, *seed, *seconds, *trace); err != nil {
			fatal(err)
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !line.Correct {
		os.Exit(1)
	}
}

func selected(name string) []string {
	if name == "all" {
		return workloadNames()
	}
	return []string{name}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// manifestJSON renders BENCHMARK.json from the tables in metrics.go.
func manifestJSON() []byte {
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 10,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the document is made of strings and numbers
	}
	return append(out, '\n')
}

// sortedKeys is used where map iteration order would reach the output.
func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
