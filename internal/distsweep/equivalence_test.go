package distsweep_test

import (
	"bytes"
	"reflect"
	"sort"
	"sync"
	"testing"

	"exegpt/internal/dispatch"
	"exegpt/internal/distsweep"
	"exegpt/internal/experiments"
	"exegpt/internal/hw"
	"exegpt/internal/model"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// equivGrid is a small real grid: 3 cells, so split counts 2 and 3
// interleave cells across parts and split count 7 leaves parts empty.
func equivGrid() experiments.SweepGrid {
	return experiments.SweepGrid{
		Deployments: []sched.Deployment{
			{Model: model.OPT13B, Cluster: hw.A40Cluster, GPUs: 4},
		},
		Tasks: []workload.Task{workload.Summarization, workload.Translation, workload.CodeGeneration},
	}
}

// shardCtx builds the context a worker process would: fresh state, only
// the on-disk profile cache shared with the other workers.
func shardCtx(cacheDir string) *experiments.Context {
	c := experiments.NewQuickContext()
	c.ProfileCacheDir = cacheDir
	return c
}

// splitCells partitions the grid's cell indices round-robin into parts
// index lists; parts beyond the cell count stay empty.
func splitCells(grid experiments.SweepGrid, parts int) [][]int {
	split := make([][]int, parts)
	for _, i := range grid.CellIndices() {
		split[i%parts] = append(split[i%parts], i)
	}
	return split
}

// cellEnvelopes wraps evaluated cells the way a pull worker ships them
// and round-trips each through the dispatch wire codec that carries
// them to the coordinator.
func cellEnvelopes(t *testing.T, fp string, total int, cells []experiments.CellResult) []*distsweep.CellEnvelope {
	t.Helper()
	envs := make([]*distsweep.CellEnvelope, len(cells))
	for i, cr := range cells {
		data, err := dispatch.EncodeMsg(&dispatch.Msg{
			Type: dispatch.MsgResult, Result: distsweep.NewCellEnvelope(fp, total, cr)})
		if err != nil {
			t.Fatal(err)
		}
		m, err := dispatch.DecodeMsg(data)
		if err != nil {
			t.Fatal(err)
		}
		envs[i] = m.Result
	}
	return envs
}

// singleMerged is the single-process reference: the whole grid through
// SweepCells and the one-partition Merge the CLI uses.
func singleMerged(t *testing.T, ctx *experiments.Context, grid experiments.SweepGrid) ([]experiments.CellResult, *distsweep.Merged) {
	t.Helper()
	fp, err := ctx.GridFingerprint(grid)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := ctx.SweepCells(grid, grid.CellIndices())
	if err != nil {
		t.Fatal(err)
	}
	m, err := distsweep.Merge([]*distsweep.Envelope{distsweep.NewEnvelope(fp, 1, 0, cells)})
	if err != nil {
		t.Fatal(err)
	}
	return cells, m
}

// TestShardedSweepEquivalence: for split counts 1, 2, 3 and 7 (3 cells,
// so nothing divides evenly and 7 leaves four parts empty), evaluating
// each part of the cell list with its own context and folding the
// per-cell envelopes through MergeCells is bit-identical to a
// single-process sweep — row order, per-cell Evals and frontiers
// included — down to the serialized bytes.
func TestShardedSweepEquivalence(t *testing.T) {
	grid := equivGrid()
	cacheDir := t.TempDir()
	total := len(grid.Cells())

	singleCells, want := singleMerged(t, shardCtx(cacheDir), grid)
	wantBytes, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}

	// Sweep must agree with the cell list it wraps.
	rows, err := shardCtx(cacheDir).Sweep(grid)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, want.Rows) {
		t.Fatal("Sweep rows diverge from merged SweepCells rows")
	}
	if len(want.Rows) == 0 || want.Evals == 0 || len(want.Frontiers) == 0 {
		t.Fatalf("degenerate single-process result: %d rows, %d evals, %d frontiers",
			len(want.Rows), want.Evals, len(want.Frontiers))
	}

	for _, parts := range []int{1, 2, 3, 7} {
		var envs []*distsweep.CellEnvelope
		for _, part := range splitCells(grid, parts) {
			ctx := shardCtx(cacheDir)
			cells, err := ctx.SweepCells(grid, part)
			if err != nil {
				t.Fatal(err)
			}
			envs = append(envs, cellEnvelopes(t, want.Fingerprint, total, cells)...)
		}
		got, err := distsweep.MergeCells(envs)
		if err != nil {
			t.Fatalf("%d parts: %v", parts, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d parts: merged result diverges from single-process sweep", parts)
		}
		gotBytes, err := got.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("%d parts: merged JSON not byte-identical to single-process JSON", parts)
		}
		// Cell-level equivalence, not just the merged aggregate: the
		// union of part cells is exactly the single-process cell list.
		var cells []experiments.CellResult
		for _, e := range envs {
			cells = append(cells, e.Result)
		}
		sort.Slice(cells, func(i, j int) bool { return cells[i].Cell < cells[j].Cell })
		if !reflect.DeepEqual(cells, singleCells) {
			t.Fatalf("%d parts: per-cell results diverge from single process", parts)
		}
	}
}

// TestShardWorkersShareProfileCacheConcurrently: concurrent SweepCells
// calls with independent contexts and one shared ProfileCacheDir — the
// in-process analog of two worker processes on one box — must be
// race-free (run under -race) and still merge bit-identically.
func TestShardWorkersShareProfileCacheConcurrently(t *testing.T) {
	grid := equivGrid()
	sharedDir := t.TempDir()
	total := len(grid.Cells())
	parts := splitCells(grid, 2)

	fp, err := shardCtx(sharedDir).GridFingerprint(grid)
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]experiments.CellResult, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for p := range parts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			results[p], errs[p] = shardCtx(sharedDir).SweepCells(grid, parts[p])
		}(p)
	}
	wg.Wait()
	var envs []*distsweep.CellEnvelope
	for p, err := range errs {
		if err != nil {
			t.Fatalf("part %d: %v", p, err)
		}
		for _, cr := range results[p] {
			envs = append(envs, distsweep.NewCellEnvelope(fp, total, cr))
		}
	}
	got, err := distsweep.MergeCells(envs)
	if err != nil {
		t.Fatal(err)
	}

	// Reference result from a separate cache to prove the shared,
	// possibly racy-written cache changed nothing.
	_, want := singleMerged(t, shardCtx(t.TempDir()), grid)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("concurrent shared-cache workers diverge from the reference sweep")
	}
}

// TestMergeCellsRealGrid: evaluating a real grid cell-by-cell through
// SweepCells and folding the per-cell envelopes reproduces the
// single-process whole-grid path byte-identically.
func TestMergeCellsRealGrid(t *testing.T) {
	grid := equivGrid()
	cacheDir := t.TempDir()
	ctx := shardCtx(cacheDir)
	fp, err := ctx.GridFingerprint(grid)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := ctx.SweepCells(grid, grid.CellIndices())
	if err != nil {
		t.Fatal(err)
	}
	want, err := distsweep.Merge([]*distsweep.Envelope{distsweep.NewEnvelope(fp, 1, 0, cells)})
	if err != nil {
		t.Fatal(err)
	}

	var envs []*distsweep.CellEnvelope
	total := len(grid.Cells())
	for i := total - 1; i >= 0; i-- { // reverse order: arrival must not matter
		crs, err := shardCtx(cacheDir).SweepCells(grid, []int{i})
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, distsweep.NewCellEnvelope(fp, total, crs[0]))
	}
	got, err := distsweep.MergeCells(envs)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, _ := want.Encode()
	gotBytes, _ := got.Encode()
	if !bytes.Equal(wantBytes, gotBytes) {
		t.Fatal("cell-by-cell evaluation not byte-identical to single-process sweep")
	}
}
