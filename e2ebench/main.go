// Command e2ebench is the repository's end-to-end benchmark. It drives
// the public APIs of the experiments, dispatch, serve, core, runner and
// baselines packages from outside and changes none of them. One
// invocation runs one workload in one process, prints every metric by
// name and unit, runs the output checks, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured with
// tracing off; with --trace 1 they are the per-layer set, taken from a
// separate traced run (spans around each public call plus a CPU
// profile). --workload all runs every workload, each in its own child
// process. See NOTES.md for the workloads, metrics and predictions.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload sweep-grid --seed 42 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is the --trace 0 metric set. Every workload reports all of
// them; NOTES.md gives each one's definition per workload.
var endToEnd = []metricDef{
	{"host_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
	{"sim_req_per_host_s", "1/s"},
	{"sim_speedup_vs_ft_geomean", "ratio"},
	{"sim_tput_rps", "req/s"},
	{"sim_p50_latency_s", "s"},
	{"sim_slo_attain", "ratio"},
}

// cpuModules are the exegpt/internal modules whose CPU share the traced
// run reports; samples charged to any other internal module land in
// other_internal, samples with no internal frame in no_internal.
var cpuModules = []string{
	"kvcache", "runner", "eventsim", "core", "baselines", "profile",
	"experiments", "dispatch", "serve", "metrics", "workload", "seqdist",
	"sched", "other_internal", "no_internal",
}

// timedLayers are the per-layer timings; each reports .p50, .tail and .n.
var timedLayers = []metricDef{
	{"runner.run_ms", "ms"},
	{"core.search_ms", "ms"},
	{"baselines.ftbounds_ms", "ms"},
	{"baselines.ft_run_ms", "ms"},
	{"profile.deploy_ms", "ms"},
	{"experiments.cell_ms", "ms"},
	{"dispatch.lease_gap_ms", "ms"},
	{"serve.run_s", "s"},
}

// layerCounts are the per-layer counts and derived ratios.
var layerCounts = []metricDef{
	{"runner.runs", "count"},
	{"runner.oom_runs", "count"},
	{"runner.iterations", "count"},
	{"runner.decoded_tokens", "count"},
	{"runner.compactions", "count"},
	{"runner.ns_per_token", "ns"},
	{"core.searches", "count"},
	{"core.evals", "count"},
	{"core.ns_per_eval", "ns"},
	{"core.frontier_points", "count"},
	{"dispatch.leases", "count"},
	{"dispatch.requeues", "count"},
	{"serve.arrived", "count"},
	{"serve.completed", "count"},
	{"serve.decisions", "count"},
	{"serve.searches", "count"},
	{"serve.switches", "count"},
	{"serve.max_queue_depth", "count"},
	{"serve.slo_violations", "count"},
	{"sim.p99_latency_s", "s"},
	{"trace.host_s", "s"},
}

// perLayer is the --trace 1 metric set.
func perLayer() []metricDef {
	var defs []metricDef
	for _, m := range cpuModules {
		defs = append(defs, metricDef{m + ".cpu_frac", "ratio"})
	}
	for _, t := range timedLayers {
		defs = append(defs,
			metricDef{t.name + ".p50", t.unit},
			metricDef{t.name + ".tail", t.unit},
			metricDef{t.name + ".n", "count"})
	}
	return append(defs, layerCounts...)
}

// bench is the state of one workload run.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	// tr records spans in the traced run and is nil otherwise.
	tr *tracer

	metrics   map[string]float64
	attempted int
	failed    int
	checksOK  bool
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// check records one output check; a failed check makes the run
// incorrect.
func (b *bench) check(ok bool, format string, args ...any) {
	status := "PASS"
	if !ok {
		status = "FAIL"
		b.checksOK = false
	}
	fmt.Printf("check %s %s\n", status, fmt.Sprintf(format, args...))
}

// counter prints one exact counter. Counters repeat exactly across runs
// of one seed; a later change may claim a count only if it does.
func counter(name string, v int) { fmt.Printf("counter %s = %d\n", name, v) }

// timing sets the p50, tail and sample count of one layer timing.
func (b *bench) timing(name string, xs []float64) {
	b.set(name+".p50", median(xs))
	b.set(name+".tail", tail(xs))
	b.set(name+".n", float64(len(xs)))
}

// setupBudget is how long a workload keeps setting up from scratch.
const setupBudget = time.Second

// setupBlock is how long one block of set-ups runs between two
// reference timings.
const setupBlock = 100 * time.Millisecond

// minRepeats is the fewest set-ups and measured repetitions a run
// makes, however long each takes.
const minRepeats = 3

// setUp repeats the workload's set-up (a fresh context, profiling and
// deployment of everything the measured phase calls) for setupBudget,
// at least minRepeats times, in blocks timed next to the reference; it
// sets setup_s to the median over blocks of each block's median set-up
// at the reference's nominal speed. The last set-up's state is the one
// measured.
func (b *bench) setUp(setup func() error) error {
	nt := &normTimer{meter: newRefMeter(1)}
	n := 0
	for began := time.Now(); n < minRepeats || time.Since(began) < setupBudget; {
		nt.mark()
		var times []float64
		for block := time.Now(); len(times) == 0 || time.Since(block) < setupBlock; {
			t0 := time.Now()
			if err := setup(); err != nil {
				return err
			}
			times = append(times, time.Since(t0).Seconds())
		}
		n += len(times)
		nt.add(median(times))
	}
	nt.mark()
	fmt.Printf("%s: %d set-ups in %d blocks\n", b.workload, n, len(nt.reps))
	b.set("setup_s", nt.report(b.workload+" set-up block medians"))
	return nil
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"sweep-grid":     runSweepGrid,
	"serve-overload": func(b *bench) error { return runServe(b, overloadSpec(b.seed)) },
	"serve-bursty":   func(b *bench) error { return runServe(b, burstySpec(b.seed)) },
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"sweep-grid", "serve-overload", "serve-bursty"}

func main() {
	name := flag.String("workload", "", "workload: sweep-grid, serve-overload, serve-bursty, or all")
	seed := flag.Int64("seed", 42, "workload seed; claims must also hold on the held-out seed 1729 (see NOTES.md)")
	seconds := flag.Int("seconds", 20, "seconds of measured work per run")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *name == "all" {
		if err := runAll(*seed, *seconds, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	b := &bench{
		workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		metrics: map[string]float64{}, checksOK: true,
	}
	if *trace == 1 {
		b.tr = newTracer()
	}
	fmt.Printf("workload %s seed %d seconds %d trace %d GOMAXPROCS %d %s\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.Version())
	if err := run(b); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if b.tr != nil {
		b.tr.summary()
	}
	defs := endToEnd
	if b.tr != nil {
		defs = perLayer()
	}
	if err := b.emit(defs); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// emit prints every metric of the set and the JSON result line. An
// end-to-end metric the workload did not set is a bug; a per-layer
// metric it did not set belongs to a layer the workload does not reach
// through a wrapped call, and reads 0.
func (b *bench) emit(defs []metricDef) error {
	res := result{Correct: b.checksOK, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok && b.tr == nil {
			return fmt.Errorf("workload %s did not measure %s", b.workload, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("metric %s = %.6g %s\n", d.name, v, d.unit)
	}
	if res.Attempted < 1 {
		return fmt.Errorf("workload %s attempted nothing", b.workload)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// median returns the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic with at least ten samples
// beyond it (the 11th largest, the 1-10/n quantile); with ten or fewer
// samples no such statistic exists and it returns the maximum.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) <= 10 {
		return s[len(s)-1]
	}
	return s[len(s)-11]
}
