// Sweep: a grid evaluation over deployments (model × cluster size) and
// tasks, parallel across deployments. The grid flattens into an
// enumerable cell list in canonical (deployment, task) order; each cell
// gets its own Simulator, Scheduler and runner Engine, so cells are
// independent; only the memoized profile Table is shared, and that is
// immutable once built. Results are reduced in grid order, so the
// output is deterministic regardless of which worker finishes first.
// Every §7 throughput figure is a view over the same per-cell
// measurement (Deployment.measure): Figures 6 and 8 are sweeps, and
// Figure 10 measures its real-dataset cells directly.
//
// The same cell list is the unit of multi-process distribution:
// SweepCells evaluates any subset of cell indices, the work-stealing
// dispatcher (internal/dispatch) leases cells to worker processes, and
// internal/distsweep folds the per-cell results back into exactly the
// rows a single-process Sweep produces (GridFingerprint guards against
// mixing cells from different grids or contexts).
package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"

	"exegpt/internal/baselines"
	"exegpt/internal/core"
	"exegpt/internal/par"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// SweepRow is one measured cell of a sweep: one system on one
// (deployment, task, latency bound) combination.
type SweepRow struct {
	Model   string
	Cluster string
	GPUs    int
	Task    string
	Bound   float64
	System  string
	Tput    float64
	// Feasible is false for the paper's "NS" entries.
	Feasible bool
}

// SweepGrid names the grid to evaluate. Zero-valued fields fall back to
// the paper's defaults (Table 2 deployments, the five synthetic tasks).
type SweepGrid struct {
	Deployments []sched.Deployment
	Tasks       []workload.Task
	// Policies selects the ExeGPT policy groups to schedule; empty runs
	// RRA and WAA (the paper's two families).
	Policies [][]sched.Policy
	// Workers bounds the number of deployments evaluated concurrently;
	// 0 means runtime.GOMAXPROCS(0).
	Workers int
}

// resolved returns the grid with every defaulted field filled in, so
// that enumeration, distribution and fingerprinting all see the same grid
// whether it was spelled out or left to the defaults.
func (g SweepGrid) resolved() ([]sched.Deployment, []workload.Task, [][]sched.Policy) {
	deps := g.Deployments
	if len(deps) == 0 {
		deps = sched.DefaultDeployments
	}
	tasks := g.Tasks
	if len(tasks) == 0 {
		tasks = workload.Tasks
	}
	groups := g.Policies
	if len(groups) == 0 {
		groups = defaultPolicyGroups()
	}
	return deps, tasks, groups
}

// SweepCell is one enumerable (deployment, task) cell of a grid. Index
// is the cell's position in canonical (deployment, task) order; cell
// leasing and result merging are both keyed on it.
type SweepCell struct {
	Index int
	Dep   sched.Deployment
	Task  workload.Task
}

// Cells flattens the grid into its canonical cell list.
func (g SweepGrid) Cells() []SweepCell {
	deps, tasks, _ := g.resolved()
	cells := make([]SweepCell, 0, len(deps)*len(tasks))
	for _, dep := range deps {
		for _, task := range tasks {
			cells = append(cells, SweepCell{Index: len(cells), Dep: dep, Task: task})
		}
	}
	return cells
}

// GroupFrontier is the latency→throughput Pareto frontier one policy
// group's schedule search discovered on one cell. Frontiers for the
// same (deployment, group) merge order-independently across cells and
// worker processes via core.Frontier.Merge.
type GroupFrontier struct {
	Model    string        `json:"model"`
	Cluster  string        `json:"cluster"`
	GPUs     int           `json:"gpus"`
	Task     string        `json:"task"`
	Group    string        `json:"group"`
	Frontier core.Frontier `json:"frontier"`
}

// CellResult is everything one evaluated cell contributes to a sweep:
// its rows in bound-major order, the schedule-search evaluation count
// (the §7.7 cost metric — deterministic, so distributed merges can be checked
// bit-identical against a single-process run), and the per-group
// frontiers.
type CellResult struct {
	Cell      int             `json:"cell"`
	Rows      []SweepRow      `json:"rows"`
	Evals     int             `json:"evals"`
	Frontiers []GroupFrontier `json:"frontiers"`
}

// GridFingerprint hashes everything that determines a sweep's output:
// the resolved grid (deployments, tasks, policy groups) and the
// context's sampling/search settings. Two runs agree on the fingerprint
// iff their cell results can be merged into one coherent sweep.
// Worker counts and cache paths are deliberately excluded: they change
// only wall time, never results.
func (c *Context) GridFingerprint(grid SweepGrid) (string, error) {
	deps, tasks, groups := grid.resolved()
	type depKey struct {
		Model   string
		Cluster string
		GPUs    int
	}
	desc := struct {
		Seed        int64
		Requests    int
		Quick       bool
		Deployments []depKey
		Tasks       []string
		Policies    [][]sched.Policy
	}{Seed: c.Seed, Requests: c.Requests, Quick: c.Quick, Policies: groups}
	for _, d := range deps {
		desc.Deployments = append(desc.Deployments,
			depKey{Model: d.Model.Name, Cluster: d.Cluster.Name, GPUs: d.GPUs})
	}
	for _, t := range tasks {
		desc.Tasks = append(desc.Tasks, t.ID)
	}
	data, err := json.Marshal(desc)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// policyGroupName labels a policy group the way the figures do: the
// family Group of its members, preferring a dedicated-pool family when
// the group mixes (the figures fold RRA into the WAA comparison).
func policyGroupName(ps []sched.Policy) string {
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

// defaultPolicyGroups mirrors the figure comparisons: RRA alone and the
// two WAA variants together.
func defaultPolicyGroups() [][]sched.Policy {
	return [][]sched.Policy{
		{sched.RRA},
		{sched.WAAC, sched.WAAM},
	}
}

// CellIndices lists every cell index of the grid, 0..len(Cells())-1:
// the SweepCells argument for a whole-grid sweep.
func (g SweepGrid) CellIndices() []int {
	indices := make([]int, len(g.Cells()))
	for i := range indices {
		indices[i] = i
	}
	return indices
}

// Sweep evaluates FT plus every requested ExeGPT policy group on every
// (deployment, task) cell under the FT-derived latency bounds. It is
// SweepCells over the whole grid with the per-cell metadata flattened
// away.
func (c *Context) Sweep(grid SweepGrid) ([]SweepRow, error) {
	cells, err := c.SweepCells(grid, grid.CellIndices())
	if err != nil {
		return nil, err
	}
	var rows []SweepRow
	for _, cr := range cells {
		rows = append(rows, cr.Rows...)
	}
	return rows, nil
}

// SweepCells evaluates an explicit set of grid cells, named by their
// canonical index, and returns their CellResults in the given order.
// It is the unit the dynamic work-stealing dispatcher leases: every
// cell is evaluated exactly as a single-process Sweep would (results
// are deterministic across worker counts and across any partition of
// the grid into SweepCells calls). Cells run concurrently on a bounded
// worker pool: each cell writes only to its own slot.
func (c *Context) SweepCells(grid SweepGrid, indices []int) ([]CellResult, error) {
	_, _, groups := grid.resolved()
	all := grid.Cells()
	mine := make([]SweepCell, 0, len(indices))
	seen := make(map[int]bool, len(indices))
	for _, i := range indices {
		if i < 0 || i >= len(all) {
			return nil, fmt.Errorf("experiments: cell index %d out of range 0..%d", i, len(all)-1)
		}
		if seen[i] {
			return nil, fmt.Errorf("experiments: duplicate cell index %d", i)
		}
		seen[i] = true
		mine = append(mine, all[i])
	}
	if len(mine) == 0 {
		return nil, nil
	}

	workers := grid.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(mine) {
		workers = len(mine)
	}
	// Split the worker budget across the two parallelism levels instead
	// of multiplying them: `workers` cells run concurrently, and each
	// cell's scheduler gets the remaining share of the budget, so the
	// total stays at ~GOMAXPROCS runnable goroutines.
	schedWorkers := 1
	if workers > 0 {
		if schedWorkers = runtime.GOMAXPROCS(0) / workers; schedWorkers < 1 {
			schedWorkers = 1
		}
	}

	results := make([]CellResult, len(mine))
	errs := make([]error, len(mine))
	par.ForEach(len(mine), workers, func(i int) {
		results[i], errs[i] = c.sweepCell(mine[i], groups, schedWorkers)
	})
	for i := range mine {
		if errs[i] != nil {
			return nil, fmt.Errorf("experiments: sweep %s/%s on %d GPUs: %w",
				mine[i].Dep.Model.Name, mine[i].Task.ID, mine[i].Dep.GPUs, errs[i])
		}
	}
	return results, nil
}

// sweepCell measures one (deployment, task) cell across its bounds.
// schedWorkers overrides the cell scheduler's pool size so the sweep
// controls the total parallelism budget.
func (c *Context) sweepCell(cl SweepCell, groups [][]sched.Policy, schedWorkers int) (CellResult, error) {
	dep, task := cl.Dep, cl.Task
	d, err := c.Deploy(dep.Model, dep.Cluster, dep.GPUs, task)
	if err != nil {
		return CellResult{}, err
	}
	d.Sch.Workers = schedWorkers
	bounds, err := d.FTBounds()
	if err != nil {
		return CellResult{}, err
	}
	if c.Quick {
		bounds = []float64{bounds[1], bounds[3]}
	}
	reqs, err := c.RequestStream(task, 0)
	if err != nil {
		return CellResult{}, err
	}
	base := SweepRow{
		Model: dep.Model.Name, Cluster: dep.Cluster.Name,
		GPUs: dep.GPUs, Task: task.ID,
	}
	cr, err := d.measure(base, groups, bounds, reqs)
	cr.Cell = cl.Index
	return cr, err
}

// measure is the §7 throughput measurement behind every sweep cell and
// Figures 6, 8 and 10: it runs FT and each ExeGPT policy group at every
// bound on reqs and returns the rows (base with Bound, System and Tput
// filled in) in bound-major order, FT first, then one row per group.
//
// Each group is scheduled across every bound in one amortized
// multi-bound search before rows are assembled. Each search leaves its
// eval count and merged Pareto frontier on the scheduler; the result
// carries both so distributed merges can be verified against (and
// aggregated like) a single-process run.
func (d *Deployment) measure(base SweepRow, groups [][]sched.Policy, bounds []float64, reqs []workload.Request) (CellResult, error) {
	var cr CellResult
	outsByGroup := make([][]RunOutcome, len(groups))
	for gi, group := range groups {
		// WAA needs a dedicated decode side; groups that cannot apply
		// (e.g. WAA with every GPU already required for encode) come
		// back as not-found outcomes, the paper's "NS".
		outs, err := d.ScheduleAndRunMany(group, bounds, reqs)
		if err != nil {
			return cr, err
		}
		outsByGroup[gi] = outs
		cr.Evals += d.Sch.Evals
		cr.Frontiers = append(cr.Frontiers, GroupFrontier{
			Model: base.Model, Cluster: base.Cluster, GPUs: base.GPUs,
			Task: base.Task, Group: policyGroupName(group), Frontier: d.Sch.Frontier,
		})
	}
	for bi, bound := range bounds {
		ftTput, err := d.RunBaseline(baselines.FT, bound, reqs)
		if err != nil {
			return cr, err
		}
		row := base
		row.Bound, row.System, row.Tput, row.Feasible = bound, "FT", ftTput, ftTput > 0
		cr.Rows = append(cr.Rows, row)
		for gi, group := range groups {
			out := outsByGroup[gi][bi]
			row := base
			row.Bound, row.System, row.Tput, row.Feasible = bound, policyGroupName(group), out.Tput, out.OK
			cr.Rows = append(cr.Rows, row)
		}
	}
	return cr, nil
}

// sweepRowWire mirrors SweepRow on the wire with the latency bound
// carried as a string: JSON has no ±Inf, and the relaxed bound is
// math.Inf(1). strconv's shortest 'g' format round-trips every float64
// bit-exactly, which the distributed-equivalence guarantee relies on.
type sweepRowWire struct {
	Model    string  `json:"model"`
	Cluster  string  `json:"cluster"`
	GPUs     int     `json:"gpus"`
	Task     string  `json:"task"`
	Bound    string  `json:"bound"`
	System   string  `json:"system"`
	Tput     float64 `json:"tput"`
	Feasible bool    `json:"feasible"`
}

// MarshalJSON implements json.Marshaler.
func (r SweepRow) MarshalJSON() ([]byte, error) {
	return json.Marshal(sweepRowWire{
		Model: r.Model, Cluster: r.Cluster, GPUs: r.GPUs, Task: r.Task,
		Bound:  strconv.FormatFloat(r.Bound, 'g', -1, 64),
		System: r.System, Tput: r.Tput, Feasible: r.Feasible,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *SweepRow) UnmarshalJSON(data []byte) error {
	var w sweepRowWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	bound, err := strconv.ParseFloat(w.Bound, 64)
	if err != nil {
		return fmt.Errorf("experiments: bad sweep-row bound %q: %w", w.Bound, err)
	}
	*r = SweepRow{
		Model: w.Model, Cluster: w.Cluster, GPUs: w.GPUs, Task: w.Task,
		Bound: bound, System: w.System, Tput: w.Tput, Feasible: w.Feasible,
	}
	return nil
}

// FormatSweep renders sweep rows as a fixed-width table.
func FormatSweep(rows []SweepRow) string {
	t := newTable("Model", "Cluster", "GPUs", "Task", "LB", "System", "Tput (seq/s)")
	for _, r := range rows {
		t.addRow(r.Model, r.Cluster, fmt.Sprint(r.GPUs), r.Task,
			fmtBound(r.Bound), r.System, fmtTput(r.Tput, r.Feasible))
	}
	return t.String()
}
