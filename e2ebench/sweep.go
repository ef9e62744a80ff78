package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"exegpt/internal/baselines"
	"exegpt/internal/dispatch"
	"exegpt/internal/distsweep"
	"exegpt/internal/experiments"
	"exegpt/internal/sched"
)

// sweepSetup builds a fresh quick context for the seed and profiles
// every deployment of the grid, so measured passes start warm.
func sweepSetup(seed int64, grid experiments.SweepGrid) (*experiments.Context, string, error) {
	ctx := experiments.NewQuickContext()
	ctx.Seed = seed
	fp, err := ctx.GridFingerprint(grid)
	if err != nil {
		return nil, "", err
	}
	type depKey struct {
		model, cluster string
		gpus           int
	}
	seen := map[depKey]bool{}
	for _, cl := range grid.Cells() {
		k := depKey{cl.Dep.Model.Name, cl.Dep.Cluster.Name, cl.Dep.GPUs}
		if seen[k] {
			continue
		}
		seen[k] = true
		if _, err := ctx.Deploy(cl.Dep.Model, cl.Dep.Cluster, cl.Dep.GPUs, cl.Task); err != nil {
			return nil, "", err
		}
	}
	return ctx, fp, nil
}

// passResult is one dispatched pass over the grid.
type passResult struct {
	host    time.Duration
	merged  []byte // encoded merged sweep, nil when the pass failed
	rows    []experiments.SweepRow
	evals   int
	cells   map[int]experiments.CellResult
	failed  int // cells without a result
	leases  int // Eval calls
	gaps    []float64
	cellMS  []float64
	runErr  error
	evalErr error
}

// dispatchPass leases the grid's cells one at a time through
// dispatch.Run on the in-process hub to nproc dispatch.Workers, each
// evaluating its cell with Context.SweepCells.
func dispatchPass(ctx *experiments.Context, grid experiments.SweepGrid, fp string, nproc int, traced bool) passResult {
	n := len(grid.Cells())
	hub := dispatch.NewHub()
	cfg := dispatch.Config{
		Fingerprint: fp, Cells: n,
		Options: dispatch.Options{LeaseTimeout: time.Minute, LeaseCells: 1, Idle: time.Minute},
	}
	type workerLog struct {
		cells  map[int]experiments.CellResult
		calls  int
		gaps   []float64
		cellMS []float64
		err    error
	}
	logs := make([]workerLog, nproc)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range logs {
		lg := &logs[i]
		lg.cells = map[int]experiments.CellResult{}
		var lastEnd time.Time
		id := fmt.Sprintf("w%d", i)
		w := &dispatch.Worker{
			ID: id, Fingerprint: fp, Cells: n, Batch: 1,
			Poll: time.Millisecond, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
			Idle: time.Minute,
			Eval: func(c int) (experiments.CellResult, error) {
				var t0 time.Time
				if traced {
					t0 = time.Now()
					if !lastEnd.IsZero() {
						lg.gaps = append(lg.gaps, ms(t0.Sub(lastEnd)))
					}
				}
				lg.calls++
				crs, err := ctx.SweepCells(grid, []int{c})
				if traced {
					lastEnd = time.Now()
					lg.cellMS = append(lg.cellMS, ms(lastEnd.Sub(t0)))
				}
				if err != nil {
					lg.err = err
					return experiments.CellResult{}, err
				}
				lg.cells[c] = crs[0]
				return crs[0], nil
			},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(hub.Worker(id)); err != nil && lg.err == nil {
				lg.err = err
			}
		}()
	}
	merged, runErr := dispatch.Run(hub, cfg)
	host := time.Since(start)
	wg.Wait()

	pr := passResult{host: host, cells: map[int]experiments.CellResult{}, runErr: runErr}
	for _, lg := range logs {
		for c, cr := range lg.cells {
			pr.cells[c] = cr
		}
		pr.leases += lg.calls
		pr.gaps = append(pr.gaps, lg.gaps...)
		pr.cellMS = append(pr.cellMS, lg.cellMS...)
		if lg.err != nil && pr.evalErr == nil {
			pr.evalErr = lg.err
		}
	}
	pr.failed = n - len(pr.cells)
	if runErr == nil {
		if pr.merged, runErr = merged.Encode(); runErr != nil {
			pr.runErr, pr.merged = runErr, nil
		}
		pr.rows, pr.evals = merged.Rows, merged.Evals
	} else {
		// An aborted run delivers no merged sweep, so no cell of the
		// pass counts as done.
		pr.failed = n
	}
	return pr
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runSweepGrid is the sweep-grid workload: the library's default quick
// grid (Table 2 deployments x the five synthetic tasks) with FT-derived
// bounds and the RRA and WAA groups, leased cell by cell through
// dispatch.Run on the in-process hub to nproc workers.
func runSweepGrid(b *bench) error {
	grid := experiments.SweepGrid{}
	nproc := runtime.GOMAXPROCS(0)
	n := len(grid.Cells())

	var ctx *experiments.Context
	var fp string
	err := b.setUp(func() (err error) {
		ctx, fp, err = sweepSetup(b.seed, grid)
		return err
	})
	if err != nil {
		return fmt.Errorf("set up sweep: %w", err)
	}
	fmt.Printf("sweep-grid: %d cells, %d dispatch workers\n", n, nproc)

	prof, err := b.startCPUProfile()
	if err != nil {
		return err
	}
	// The first pass warms caches and the heap and is not timed. It is
	// the only pass kept whole: timed passes are compared with it and
	// dropped, so memory does not grow with the run length.
	var first *passResult
	nt := &normTimer{meter: newRefMeter(nproc)}
	var gaps, cellMS []float64
	leases, passes := 0, 0
	same := true
	var measured time.Time
	for len(nt.reps) < minRepeats || time.Since(measured) < b.seconds {
		runtime.GC() // start every pass from a collected heap
		if first != nil {
			nt.mark()
		}
		pr := dispatchPass(ctx, grid, fp, nproc, b.tr != nil && first != nil)
		passes++
		b.attempted += n
		b.failed += pr.failed
		leases += pr.leases
		if pr.runErr != nil {
			fmt.Printf("pass %d failed: %v (cell error: %v)\n", passes, pr.runErr, pr.evalErr)
		}
		if first == nil {
			first, measured = &pr, time.Now()
			continue
		}
		nt.add(pr.host.Seconds())
		gaps = append(gaps, pr.gaps...)
		cellMS = append(cellMS, pr.cellMS...)
		same = same && bytes.Equal(pr.merged, first.merged)
	}
	nt.mark()
	if err := prof.finish(b); err != nil {
		return err
	}
	b.set("peak_rss_mb", peakRSSMB())
	fmt.Printf("sweep-grid: %d timed passes after a warm-up\n", len(nt.reps))
	hostS := nt.report("sweep-grid")
	b.set("host_s", hostS)
	b.set("trace.host_s", hostS)
	b.set("ok_frac", 1-float64(b.failed)/float64(b.attempted))
	b.timing("dispatch.lease_gap_ms", gaps)
	b.timing("experiments.cell_ms", cellMS)
	b.set("dispatch.leases", float64(leases)/float64(passes))
	b.set("dispatch.requeues", float64(leases-n*passes))

	if first.merged == nil {
		b.check(false, "first dispatched pass produced a merged sweep")
		return nil
	}
	b.check(same, "all %d dispatched passes give byte-identical merged sweeps (no nondeterminism)", passes)

	// Single process, nproc cells at a time: each cell's scheduler gets
	// Workers = GOMAXPROCS/nproc, against GOMAXPROCS in the dispatched
	// passes, so this also compares scheduler worker counts.
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	single := grid
	single.Workers = nproc
	cells, err := ctx.SweepCells(single, all)
	if err != nil {
		b.check(false, "single-process SweepCells: %v", err)
	} else {
		m, err := distsweep.Merge([]*distsweep.Envelope{distsweep.NewEnvelope(fp, 1, 0, cells)})
		var enc []byte
		if err == nil {
			enc, err = m.Encode()
		}
		b.check(err == nil && bytes.Equal(enc, first.merged),
			"hub-dispatched merge == single-process SweepCells (scheduler workers %d vs %d)",
			runtime.GOMAXPROCS(0), max(1, runtime.GOMAXPROCS(0)/nproc))
	}

	rp, err := replaySweep(ctx, grid, nproc, b.tr)
	if err != nil {
		b.check(false, "replay: %v", err)
		return nil
	}
	equal := len(rp.cells) == n
	for c, cr := range rp.cells {
		got, gerr := json.Marshal(cr)
		want, werr := json.Marshal(first.cells[c])
		equal = equal && gerr == nil && werr == nil && bytes.Equal(got, want)
	}
	b.check(equal, "call-by-call replay reproduces every dispatched CellResult (rows, evals, frontiers)")
	b.check(rp.evals == first.evals, "replay evals %d == merged evals %d", rp.evals, first.evals)

	counter("core.evals", rp.evals)
	counter("core.searches", rp.searches)
	counter("runner.runs", rp.runs)
	counter("runner.oom_runs", rp.oomRuns)
	counter("runner.iterations", rp.iterations)
	counter("runner.decoded_tokens", rp.decodedTokens)
	counter("runner.compactions", rp.compactions)
	b.set("core.evals", float64(rp.evals))
	b.set("core.searches", float64(rp.searches))
	b.set("core.frontier_points", float64(rp.frontierPoints))
	b.set("runner.runs", float64(rp.runs))
	b.set("runner.oom_runs", float64(rp.oomRuns))
	b.set("runner.iterations", float64(rp.iterations))
	b.set("runner.decoded_tokens", float64(rp.decodedTokens))
	b.set("runner.compactions", float64(rp.compactions))
	if b.tr != nil {
		runMS := b.tr.durations("runner.run", time.Millisecond)
		searchMS := b.tr.durations("core.search", time.Millisecond)
		b.timing("runner.run_ms", runMS)
		b.timing("core.search_ms", searchMS)
		b.timing("baselines.ftbounds_ms", b.tr.durations("baselines.ftbounds", time.Millisecond))
		b.timing("baselines.ft_run_ms", b.tr.durations("baselines.ft_run", time.Millisecond))
		b.timing("profile.deploy_ms", b.tr.durations("profile.deploy", time.Millisecond))
		if rp.decodedTokens > 0 {
			b.set("runner.ns_per_token", sum(runMS)*1e6/float64(rp.decodedTokens))
		}
		if rp.evals > 0 {
			b.set("core.ns_per_eval", sum(searchMS)*1e6/float64(rp.evals))
		}
	}

	// Simulated outcomes of the sweep, from the merged rows.
	var speedups, tputs []float64
	rowsMet, rowsAll := 0, 0
	for _, g := range boundRows(first.rows) {
		rowsAll++
		if g.bestOK {
			rowsMet++
			tputs = append(tputs, g.best)
			if g.ftOK {
				speedups = append(speedups, g.best/g.ft)
			}
		}
	}
	b.set("sim_speedup_vs_ft_geomean", geomean(speedups))
	b.set("sim_tput_rps", geomean(tputs))
	b.set("sim_slo_attain", float64(rowsMet)/float64(rowsAll))
	b.set("sim_p50_latency_s", median(rp.latencies))
	b.set("sim.p99_latency_s", quantile(rp.latencies, 0.99))
	b.set("sim_req_per_host_s", float64(rp.completed)/hostS)
	fmt.Printf("sweep-grid: %d (cell, bound) rows, ExeGPT feasible on %d, FT and ExeGPT both on %d\n",
		rowsAll, rowsMet, len(speedups))
	reportKnownAborts()
	return nil
}

// boundRow is one (cell, bound) of a sweep: FT's throughput and the best
// ExeGPT group's.
type boundRow struct {
	ft, best     float64
	ftOK, bestOK bool
}

// boundRows groups merged sweep rows, which list FT first and then each
// ExeGPT group for every (cell, bound).
func boundRows(rows []experiments.SweepRow) []boundRow {
	var out []boundRow
	for _, r := range rows {
		if r.System == "FT" {
			out = append(out, boundRow{ft: r.Tput, ftOK: r.Feasible && r.Tput > 0})
			continue
		}
		if len(out) == 0 {
			continue
		}
		g := &out[len(out)-1]
		if r.Feasible && r.Tput > g.best {
			g.best, g.bestOK = r.Tput, true
		}
	}
	return out
}

// geomean is the geometric mean of positive values (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// quantile is the nearest-rank q-quantile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// replay is what the call-by-call replay of the grid observed.
type replay struct {
	cells map[int]experiments.CellResult

	searches, evals, frontierPoints                       int
	runs, oomRuns, iterations, decodedTokens, compactions int
	completed                                             int
	latencies                                             []float64
}

func (r *replay) add(o *replay) {
	for c, cr := range o.cells {
		r.cells[c] = cr
	}
	r.searches += o.searches
	r.evals += o.evals
	r.frontierPoints += o.frontierPoints
	r.runs += o.runs
	r.oomRuns += o.oomRuns
	r.iterations += o.iterations
	r.decodedTokens += o.decodedTokens
	r.compactions += o.compactions
	r.completed += o.completed
	r.latencies = append(r.latencies, o.latencies...)
}

// replaySweep re-evaluates every cell through the public calls the
// library's per-cell sweep makes, in the same order, with a span around
// each: Context.Deploy, Deployment.FTBounds, Scheduler.FindBestMany per
// policy group, Engine.Run per distinct selected schedule, and
// Deployment.RunBaseline per bound. nproc goroutines take cells in
// order, each cell's scheduler sized as SweepCells sizes it for a
// one-cell call.
func replaySweep(ctx *experiments.Context, grid experiments.SweepGrid, nproc int, tr *tracer) (*replay, error) {
	cells := grid.Cells()
	parts := make([]*replay, nproc)
	errs := make([]error, nproc)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range parts {
		parts[w] = &replay{cells: map[int]experiments.CellResult{}}
		wg.Add(1)
		go func(rp *replay, errp *error) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				cr, err := replayCell(ctx, cells[i], runtime.GOMAXPROCS(0), tr, rp)
				if err != nil {
					*errp = fmt.Errorf("cell %d: %w", i, err)
					return
				}
				rp.cells[i] = cr
			}
		}(parts[w], &errs[w])
	}
	wg.Wait()
	out := &replay{cells: map[int]experiments.CellResult{}}
	for w, p := range parts {
		if errs[w] != nil {
			return nil, errs[w]
		}
		out.add(p)
	}
	return out, nil
}

// defaultGroups are the grid's default policy groups: RRA alone, and
// the two WAA variants together.
var defaultGroups = [][]sched.Policy{{sched.RRA}, {sched.WAAC, sched.WAAM}}

// groupName labels a policy group as the sweep's rows do: its family
// Group, preferring a dedicated-pool family when the group mixes.
func groupName(ps []sched.Policy) string {
	name := "ExeGPT-RRA"
	for _, p := range ps {
		f, ok := sched.FamilyOf(p)
		if !ok {
			continue
		}
		if f.Caps.DedicatedPools {
			return f.Group
		}
		name = f.Group
	}
	return name
}

// replayCell evaluates one cell call by call, recording spans and
// counts into rp.
func replayCell(ctx *experiments.Context, cl experiments.SweepCell, schedWorkers int, tr *tracer, rp *replay) (experiments.CellResult, error) {
	root := tr.open("experiments.cell", 0, cl.Index)
	defer tr.close(root)
	cr := experiments.CellResult{Cell: cl.Index}
	dep, task := cl.Dep, cl.Task

	sp := tr.open("profile.deploy", root, cl.Index)
	d, err := ctx.Deploy(dep.Model, dep.Cluster, dep.GPUs, task)
	tr.close(sp)
	if err != nil {
		return cr, err
	}
	d.Sch.Workers = schedWorkers

	sp = tr.open("baselines.ftbounds", root, cl.Index)
	bounds, err := d.FTBounds()
	tr.close(sp)
	if err != nil {
		return cr, err
	}
	if ctx.Quick {
		bounds = []float64{bounds[1], bounds[3]}
	}
	reqs, err := ctx.RequestStream(task, 0)
	if err != nil {
		return cr, err
	}

	type outcome struct {
		tput float64
		ok   bool
	}
	outsByGroup := make([][]outcome, len(defaultGroups))
	for gi, group := range defaultGroups {
		sp = tr.open("core.search", root, cl.Index)
		ress, err := d.Sch.FindBestMany(group, bounds)
		tr.close(sp)
		if err != nil {
			return cr, err
		}
		rp.searches++
		rp.evals += d.Sch.Evals
		rp.frontierPoints += d.Sch.Frontier.Len()
		runs := map[sched.Config]outcome{}
		outs := make([]outcome, len(bounds))
		for i, res := range ress {
			if !res.Found {
				continue
			}
			o, seen := runs[res.Best.Config]
			if !seen {
				sp := tr.open("runner.run", root, cl.Index)
				r, rerr := d.Run.Run(res.Best.Config, res.Best.Alloc, reqs)
				tr.close(sp)
				rp.runs++
				if rerr != nil {
					rp.oomRuns++
				} else {
					o = outcome{tput: r.Stats.EffectiveTput(), ok: true}
					rp.iterations += r.Iterations
					rp.compactions += r.Compactions
					rp.completed += len(r.Records)
					for _, q := range r.Records {
						rp.decodedTokens += q.OutLen
						rp.latencies = append(rp.latencies, q.End-q.Start)
					}
				}
				runs[res.Best.Config] = o
			}
			outs[i] = o
		}
		outsByGroup[gi] = outs
		cr.Evals += d.Sch.Evals
		cr.Frontiers = append(cr.Frontiers, experiments.GroupFrontier{
			Model: dep.Model.Name, Cluster: dep.Cluster.Name, GPUs: dep.GPUs,
			Task: task.ID, Group: groupName(group), Frontier: d.Sch.Frontier,
		})
	}
	base := experiments.SweepRow{Model: dep.Model.Name, Cluster: dep.Cluster.Name, GPUs: dep.GPUs, Task: task.ID}
	for bi, bound := range bounds {
		sp = tr.open("baselines.ft_run", root, cl.Index)
		ftTput, err := d.RunBaseline(baselines.FT, bound, reqs)
		tr.close(sp)
		if err != nil {
			return cr, err
		}
		row := base
		row.Bound, row.System, row.Tput, row.Feasible = bound, "FT", ftTput, ftTput > 0
		cr.Rows = append(cr.Rows, row)
		for gi, group := range defaultGroups {
			o := outsByGroup[gi][bi]
			row := base
			row.Bound, row.System, row.Tput, row.Feasible = bound, groupName(group), o.tput, o.ok
			cr.Rows = append(cr.Rows, row)
		}
	}
	return cr, nil
}
