package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"exegpt/internal/baselines"
	"exegpt/internal/experiments"
	"exegpt/internal/sched"
	"exegpt/internal/serve"
	"exegpt/internal/workload"
)

// serveModel is the model every serving scenario deploys, on its
// Table 2 deployment (4 A40 GPUs).
const serveModel = "OPT-13B"

// serveSpec is one serving scenario: a context, a task, and serve
// options.
type serveSpec struct {
	label string
	quick bool
	task  workload.Task
	opts  serve.Options
}

// overloadSpec offers about three times the chosen schedule's capacity:
// short outputs, Poisson arrivals, no SLO, a growing backlog.
func overloadSpec(seed int64) serveSpec {
	return serveSpec{
		label: "serve-overload", quick: true, task: workload.Summarization,
		opts: serve.Options{Arrival: "poisson", Rate: 100, Duration: 3000, Seed: seed},
	}
}

// burstySpec runs near capacity with bursts: long outputs (RRA, ND=32,
// decode-heavy), MMPP arrivals, a 20 s SLO.
func burstySpec(seed int64) serveSpec {
	return serveSpec{
		label: "serve-bursty", quick: true, task: workload.CodeGeneration,
		opts: serve.Options{Arrival: "mmpp", Rate: 16, Duration: 6000, SLO: 20, Seed: seed},
	}
}

// knownAborts are inputs on which serve.Run aborts today with
// "runner: open decode OOM" and no report. The check phase replays them
// and reports them without gating on them, so the defect shows in every
// report until it is fixed.
func knownAborts() []serveSpec {
	return []serveSpec{
		{
			label: "serve -quick -task S -arrival mmpp -rate 25 -slo 20 -duration 12000",
			quick: true, task: workload.Summarization,
			opts: serve.Options{Arrival: "mmpp", Rate: 25, SLO: 20, Duration: 12000, Seed: 42},
		},
		{
			label: "serve -task C2 -arrival mmpp -rate 6 -slo 60 -duration 4000",
			task:  workload.ConvQA2,
			opts:  serve.Options{Arrival: "mmpp", Rate: 6, SLO: 60, Duration: 4000, Seed: 42},
		},
	}
}

// context returns a fresh experiments context for the spec with the
// given scheduler worker count.
func (s serveSpec) context(workers int) *experiments.Context {
	ctx := experiments.NewContext()
	if s.quick {
		ctx = experiments.NewQuickContext()
	}
	ctx.Seed = s.opts.Seed
	ctx.Workers = workers
	return ctx
}

// deploy deploys serveModel for the spec's task.
func (s serveSpec) deploy(ctx *experiments.Context) (*experiments.Deployment, error) {
	dep, err := sched.DeploymentFor(serveModel)
	if err != nil {
		return nil, err
	}
	return ctx.Deploy(dep.Model, dep.Cluster, dep.GPUs, s.task)
}

// arrivals counts the arrivals serve.Run admits for the options: those
// the arrival process draws up to Duration. A run that aborts fails
// every one of them.
func arrivals(o serve.Options) (int, error) {
	p, err := serve.NewProcess(o.Arrival, o.Rate, o.Seed, o.StepAt, o.StepFactor)
	if err != nil {
		return 0, err
	}
	n := 0
	for t := p.Next(); t <= o.Duration; t = p.Next() {
		n++
	}
	return n, nil
}

// serveOnce deploys on ctx (profiles are warm after set-up) and times
// one serve.Run.
func serveOnce(ctx *experiments.Context, s serveSpec, tr *tracer) (*serve.Report, *experiments.Deployment, time.Duration, error) {
	d, err := s.deploy(ctx)
	if err != nil {
		return nil, nil, 0, err
	}
	sp := tr.open("serve.run", 0, -1)
	t0 := time.Now()
	rep, err := serve.Run(d, s.opts)
	host := time.Since(t0)
	tr.close(sp)
	return rep, d, host, err
}

// serveReplicas is how many independent arrival and request streams a
// serve workload runs, from seeds derived from the workload seed. One
// MMPP realization sets tail latency by its few longest bursts, so its
// simulated metrics swing by tens of percent from seed to seed; the
// reported sim_* values are means over the replicas.
const serveReplicas = 8

// replicaSeed derives replica i's seed; replica 0 uses the seed itself.
func replicaSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

// replica is what the first run of one replica produced.
type replica struct {
	spec serveSpec
	rep  *serve.Report
	dep  *experiments.Deployment
	json []byte
}

// runServe is a serve-* workload: serve.Run with scheduler Workers = 1,
// cycling through serveReplicas seeds until --seconds have passed and
// every replica has been timed at least once.
func runServe(b *bench, s serveSpec) error {
	var ctx *experiments.Context
	err := b.setUp(func() error {
		ctx = s.context(1)
		_, err := s.deploy(ctx)
		return err
	})
	if err != nil {
		return fmt.Errorf("set up %s: %w", s.label, err)
	}
	reps := make([]replica, serveReplicas)
	for i := range reps {
		reps[i].spec = s
		reps[i].spec.opts.Seed = replicaSeed(s.opts.Seed, i)
	}

	prof, err := b.startCPUProfile()
	if err != nil {
		return err
	}
	// Run 0 warms caches and the heap on replica 0 and is not timed.
	// Each replica's first report is kept; later runs of the replica
	// must reproduce it byte for byte.
	nt := &normTimer{meter: newRefMeter(1)}
	runs := 0
	same := true
	var measured time.Time
	for len(nt.reps) < max(minRepeats, serveReplicas) || time.Since(measured) < b.seconds {
		r := &reps[max(0, runs-1)%serveReplicas]
		tr := b.tr
		if runs == 0 {
			tr = nil // the warm-up is not traced
		}
		runtime.GC() // start every run from a collected heap
		if runs > 0 {
			nt.mark()
		}
		rep, d, host, err := serveOnce(ctx, r.spec, tr)
		runs++
		var data []byte
		if err != nil {
			n, cerr := arrivals(r.spec.opts)
			if cerr != nil {
				return cerr
			}
			fmt.Printf("%s: serve.Run aborted: %v (%d arrivals failed)\n", s.label, err, n)
			b.attempted += n
			b.failed += n
		} else {
			b.attempted += rep.Totals.Arrived
			b.failed += rep.Totals.Arrived - rep.Totals.Completed
			if data, err = json.Marshal(rep); err != nil {
				return err
			}
		}
		if runs > 1 {
			nt.add(host.Seconds())
		} else {
			measured = time.Now()
		}
		if r.json == nil && data != nil {
			r.rep, r.dep, r.json = rep, d, data
		} else {
			same = same && data != nil && bytes.Equal(data, r.json)
		}
	}
	nt.mark()
	if err := prof.finish(b); err != nil {
		return err
	}
	b.set("peak_rss_mb", peakRSSMB())
	fmt.Printf("%s: %d timed runs after a warm-up\n", s.label, len(nt.reps))
	hostS := nt.report(s.label)
	b.set("host_s", hostS)
	b.set("trace.host_s", hostS)
	b.set("ok_frac", 1-float64(b.failed)/float64(b.attempted))
	if b.tr != nil {
		b.timing("serve.run_s", b.tr.durations("serve.run", time.Second))
	}
	for _, r := range reps {
		if r.rep == nil {
			b.check(false, "%s: replica seed %d completed a serve.Run", s.label, r.spec.opts.Seed)
			return nil
		}
	}
	b.check(same, "%s: %d runs over %d replica seeds give byte-identical Report JSON per seed (no nondeterminism)",
		s.label, runs, serveReplicas)

	nproc := runtime.GOMAXPROCS(0)
	r0 := reps[0]
	if rep, _, _, err := serveOnce(r0.spec.context(nproc), r0.spec, nil); err != nil {
		b.check(false, "%s: serve.Run with scheduler Workers %d: %v", s.label, nproc, err)
	} else {
		data, err := json.Marshal(rep)
		b.check(err == nil && bytes.Equal(data, r0.json),
			"%s: Report JSON identical with scheduler Workers 1 and %d", s.label, nproc)
	}

	var arrived, completed, decisions, searches, switches, maxQueue, violations, evals, frontier int
	var tput, p50, p99, attain, perHost float64
	var speedups []float64
	for _, r := range reps {
		t := r.rep.Totals
		b.check(t.Completed == t.Arrived, "%s: seed %d: completed %d == arrived %d",
			s.label, r.spec.opts.Seed, t.Completed, t.Arrived)
		fmt.Printf("%s: seed %d: %d arrivals, %.4g req/s, p50 %.4g s, p99 %.4g s, %d over SLO, initial %s %s\n",
			s.label, r.spec.opts.Seed, t.Arrived, t.Throughput, t.P50Lat, t.P99Lat, t.SLOViolations,
			r.rep.Initial.Policy, r.rep.Initial.Config)
		arrived += t.Arrived
		completed += t.Completed
		decisions += len(r.rep.Decisions)
		searches += t.Searches
		switches += t.Switches
		violations += t.SLOViolations
		evals += r.dep.Sch.Evals
		frontier += r.dep.Sch.Frontier.Len()
		for _, w := range r.rep.Windows {
			maxQueue = max(maxQueue, w.QueueDepth)
		}
		tput += t.Throughput
		p50 += t.P50Lat
		p99 += t.P99Lat
		attain += float64(t.Completed-t.SLOViolations) / float64(t.Arrived)
		perHost += float64(t.Completed)
		sp, err := speedupVsFT(r.spec)
		if err != nil {
			return err
		}
		speedups = append(speedups, sp)
	}
	k := float64(serveReplicas)
	counter("serve.decisions", decisions)
	counter("serve.searches", searches)
	counter("serve.switches", switches)
	counter("core.evals", evals)
	b.set("serve.arrived", float64(arrived))
	b.set("serve.completed", float64(completed))
	b.set("serve.decisions", float64(decisions))
	b.set("serve.searches", float64(searches))
	b.set("serve.switches", float64(switches))
	b.set("serve.max_queue_depth", float64(maxQueue))
	b.set("serve.slo_violations", float64(violations))
	b.set("core.searches", float64(searches))
	b.set("core.evals", float64(evals))
	b.set("core.frontier_points", float64(frontier))
	b.set("sim.p99_latency_s", p99/k)

	b.set("sim_tput_rps", tput/k)
	b.set("sim_p50_latency_s", p50/k)
	b.set("sim_slo_attain", attain/k)
	b.set("sim_speedup_vs_ft_geomean", geomean(speedups))
	// A timed run serves one replica, so completions per run are the
	// replica mean.
	b.set("sim_req_per_host_s", perHost/k/hostS)

	reportKnownAborts()
	return nil
}

// speedupVsFT is the paper's headline comparison at the serving
// configuration: the throughput of ExeGPT's best schedule under the SLO
// (all serve policies, executed on the context's request stream) over
// FT's under the same bound, as one (cell, bound) row of the sweep
// computes it.
func speedupVsFT(s serveSpec) (float64, error) {
	ctx := s.context(1)
	d, err := s.deploy(ctx)
	if err != nil {
		return 0, err
	}
	bound := math.Inf(1)
	if s.opts.SLO > 0 {
		bound = s.opts.SLO
	}
	reqs, err := ctx.RequestStream(s.task, 0)
	if err != nil {
		return 0, err
	}
	policies := []sched.Policy{sched.RRA, sched.WAAC, sched.WAAM}
	tput, _, ok, err := d.ScheduleAndRun(policies, bound, reqs)
	if err != nil {
		return 0, err
	}
	ft, err := d.RunBaseline(baselines.FT, bound, reqs)
	if err != nil {
		return 0, err
	}
	fmt.Printf("%s: seed %d: ExeGPT %.4g seq/s (found %v) vs FT %.4g seq/s under bound %v\n",
		s.label, s.opts.Seed, tput, ok, ft, bound)
	if !ok || ft <= 0 {
		return 0, fmt.Errorf("%s: speedup vs FT undefined (ExeGPT found %v, FT %.3f)", s.label, ok, ft)
	}
	return tput / ft, nil
}

// reportKnownAborts replays every known-abort input once and prints its
// fail_frac. It does not gate the run.
func reportKnownAborts() {
	for _, k := range knownAborts() {
		reportKnownAbort(k)
	}
}

func reportKnownAbort(k serveSpec) {
	ctx := k.context(1)
	rep, _, _, err := serveOnce(ctx, k, nil)
	if err == nil {
		t := rep.Totals
		fmt.Printf("known-failure FIXED %s: completed %d of %d arrivals, fail_frac %.4g; drop it from the known list\n",
			k.label, t.Completed, t.Arrived, float64(t.Arrived-t.Completed)/float64(t.Arrived))
		return
	}
	n, cerr := arrivals(k.opts)
	if cerr != nil {
		fmt.Printf("known-failure %s: %v (arrival count: %v)\n", k.label, err, cerr)
		return
	}
	fmt.Printf("known-failure %s: %v; fail_frac 1 (%d of %d arrivals)\n", k.label, err, n, n)
}
