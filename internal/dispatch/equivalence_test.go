package dispatch

import (
	"bytes"
	"testing"
	"time"

	"exegpt/internal/distsweep"
	"exegpt/internal/experiments"
	"exegpt/internal/hw"
	"exegpt/internal/model"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// realGrid is the small real grid the distsweep equivalence suite also
// uses: 3 cells on one OPT-13B deployment.
func realGrid() experiments.SweepGrid {
	return experiments.SweepGrid{
		Deployments: []sched.Deployment{
			{Model: model.OPT13B, Cluster: hw.A40Cluster, GPUs: 4},
		},
		Tasks: []workload.Task{workload.Summarization, workload.Translation, workload.CodeGeneration},
	}
}

func realCtx(cacheDir string) *experiments.Context {
	c := experiments.NewQuickContext()
	c.ProfileCacheDir = cacheDir
	return c
}

// TestDispatchRealGridByteIdentical is the acceptance pin for the
// work-stealing path: two pull workers evaluating real sweep cells —
// with a third worker taking a lease and dying mid-run — must produce
// merged sweep JSON byte-identical to a single-process Sweep over the
// same grid.
func TestDispatchRealGridByteIdentical(t *testing.T) {
	grid := realGrid()
	cacheDir := t.TempDir()
	ctx := realCtx(cacheDir)
	fp, err := ctx.GridFingerprint(grid)
	if err != nil {
		t.Fatal(err)
	}
	total := len(grid.Cells())

	// Single-process reference artifact, via the same envelope + merge
	// path the CLI uses.
	cells, err := ctx.SweepCells(grid, grid.CellIndices())
	if err != nil {
		t.Fatal(err)
	}
	want, err := distsweep.Merge([]*distsweep.Envelope{distsweep.NewEnvelope(fp, 1, 0, cells)})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}

	hub := NewHub()
	cfg := testConfig(fp, total)
	res := startCoord(hub, cfg)

	// Injected failure: grab a lease and die without a word.
	dead := hub.Worker("deadbeat")
	if l := takeLease(t, dead, "deadbeat", 1, 1); len(l.Cells) == 0 {
		t.Fatal("dead worker got no cells to abandon")
	}

	for _, id := range []string{"w1", "w2"} {
		// Each worker gets its own Context — the process-isolation model
		// — sharing only the on-disk profile cache.
		wctx := realCtx(cacheDir)
		w := &Worker{
			ID: id, Fingerprint: fp, Cells: total,
			Heartbeat: 50 * time.Millisecond,
			Poll:      10 * time.Millisecond,
			Idle:      30 * time.Second,
			Eval: func(c int) (experiments.CellResult, error) {
				crs, err := wctx.SweepCells(grid, []int{c})
				if err != nil {
					return experiments.CellResult{}, err
				}
				return crs[0], nil
			},
		}
		go w.Run(hub.Worker(id))
	}

	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	gotBytes, err := r.m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatal("work-stealing dispatch merge not byte-identical to single-process sweep")
	}
}
