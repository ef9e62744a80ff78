package distsweep

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"exegpt/internal/core"
	"exegpt/internal/experiments"
	"exegpt/internal/sched"
)

// fakeCell builds a synthetic cell result whose contents are a function
// of the cell index, so merge-order mistakes show up as value mismatches.
func fakeCell(idx int) experiments.CellResult {
	bound := 5.0 + float64(idx)
	if idx%3 == 1 {
		bound = math.Inf(1) // the relaxed bound, which JSON must survive
	}
	return experiments.CellResult{
		Cell: idx,
		Rows: []experiments.SweepRow{{
			Model: "OPT-13B", Cluster: "A40", GPUs: 4, Task: "S",
			Bound: bound, System: "FT", Tput: 1.5 * float64(idx+1), Feasible: true,
		}},
		Evals: 10 * (idx + 1),
	}
}

// fakeShardSet cuts nCells fake cells into a round-robin shard set.
func fakeShardSet(fp string, shards, nCells int) []*Envelope {
	envs := make([]*Envelope, shards)
	for s := 0; s < shards; s++ {
		var cells []experiments.CellResult
		for i := s; i < nCells; i += shards {
			cells = append(cells, fakeCell(i))
		}
		envs[s] = NewEnvelope(fp, shards, s, cells)
	}
	return envs
}

// TestMergeRejectsBadMetadata: Merge validates every envelope's own
// metadata before folding anything.
func TestMergeRejectsBadMetadata(t *testing.T) {
	cases := map[string]struct {
		env  *Envelope
		want string
	}{
		"wrong version":   {&Envelope{Version: EnvelopeVersion + 1, Fingerprint: "fp", Shards: 1, Shard: 0}, "version"},
		"no fingerprint":  {&Envelope{Version: EnvelopeVersion, Shards: 1, Shard: 0}, "missing grid fingerprint"},
		"zero shards":     {&Envelope{Version: EnvelopeVersion, Fingerprint: "fp", Shards: 0, Shard: 0}, "shard count 0"},
		"index too large": {&Envelope{Version: EnvelopeVersion, Fingerprint: "fp", Shards: 2, Shard: 2}, "out of range"},
		"negative index":  {&Envelope{Version: EnvelopeVersion, Fingerprint: "fp", Shards: 2, Shard: -1}, "out of range"},
		"foreign cell": {&Envelope{Version: EnvelopeVersion, Fingerprint: "fp", Shards: 2, Shard: 0,
			Cells: []experiments.CellResult{fakeCell(1)}}, "does not belong"},
		"duplicate cell": {&Envelope{Version: EnvelopeVersion, Fingerprint: "fp", Shards: 2, Shard: 0,
			Cells: []experiments.CellResult{fakeCell(0), fakeCell(0)}}, "duplicate cell"},
	}
	for name, c := range cases {
		if _, err := Merge([]*Envelope{c.env}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", name, err, c.want)
		}
	}
}

func TestMergeHappyPath(t *testing.T) {
	const nCells = 7
	want, err := Merge(fakeShardSet("fp", 1, nCells))
	if err != nil {
		t.Fatal(err)
	}
	if want.Cells != nCells || len(want.Rows) != nCells {
		t.Fatalf("single-shard merge shape: %d cells, %d rows", want.Cells, len(want.Rows))
	}
	for _, shards := range []int{2, 3, 7, 11} { // 11 > nCells: empty shards
		envs := fakeShardSet("fp", shards, nCells)
		got, err := Merge(envs)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d shards: merge diverged from single shard\n got %+v\nwant %+v", shards, got, want)
		}
		// Merging must not depend on the order envelopes arrive in.
		rev := make([]*Envelope, len(envs))
		for i, e := range envs {
			rev[len(envs)-1-i] = e
		}
		got2, err := Merge(rev)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got2, want) {
			t.Fatalf("%d shards reversed: merge order-dependent", shards)
		}
	}
}

func TestMergeRejectsDuplicateShard(t *testing.T) {
	envs := fakeShardSet("fp", 3, 6)
	envs[2] = envs[1]
	if _, err := Merge(envs); err == nil || !strings.Contains(err.Error(), "duplicate shard") {
		t.Fatalf("duplicate shard index not rejected: %v", err)
	}
}

func TestMergeRejectsMissingShard(t *testing.T) {
	envs := fakeShardSet("fp", 3, 6)
	if _, err := Merge(envs[:2]); err == nil || !strings.Contains(err.Error(), "missing [2]") {
		t.Fatalf("missing shard not rejected: %v", err)
	}
	if _, err := Merge(nil); err == nil {
		t.Fatal("empty envelope list not rejected")
	}
}

func TestMergeRejectsFingerprintMismatch(t *testing.T) {
	envs := fakeShardSet("fp-a", 2, 4)
	envs[1].Fingerprint = "fp-b"
	if _, err := Merge(envs); err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("fingerprint mismatch not rejected: %v", err)
	}
}

func TestMergeRejectsShardCountMismatch(t *testing.T) {
	a := NewEnvelope("fp", 2, 0, []experiments.CellResult{fakeCell(0)})
	b := NewEnvelope("fp", 3, 1, []experiments.CellResult{fakeCell(1)})
	if _, err := Merge([]*Envelope{a, b}); err == nil || !strings.Contains(err.Error(), "shard count mismatch") {
		t.Fatalf("shard count mismatch not rejected: %v", err)
	}
}

func TestMergeRejectsCellGap(t *testing.T) {
	// Shard 1 of 2 lost cell 1: the union {0, 2, 3} has a gap.
	a := NewEnvelope("fp", 2, 0, []experiments.CellResult{fakeCell(0), fakeCell(2)})
	b := NewEnvelope("fp", 2, 1, []experiments.CellResult{fakeCell(3)})
	if _, err := Merge([]*Envelope{a, b}); err == nil || !strings.Contains(err.Error(), "coverage") {
		t.Fatalf("cell gap not rejected: %v", err)
	}
}

// frontierEst builds a feasible estimate for frontier-merge tests.
func frontierEst(lat, tput float64, bd int) *core.Estimate {
	return &core.Estimate{
		Config:   sched.Config{Policy: sched.RRA, BD: bd, BE: 1, ND: 1, Bm: 1, TP: sched.TPSpec{Degree: 1}},
		Feasible: true, Latency: lat, Throughput: tput,
	}
}

// TestMergeFoldsDeploymentFrontiers: per-cell frontiers for the same
// (deployment, group) fold into one cross-task frontier, regardless of
// which shard evaluated which cell.
func TestMergeFoldsDeploymentFrontiers(t *testing.T) {
	gf := func(task string, ests ...*core.Estimate) experiments.GroupFrontier {
		g := experiments.GroupFrontier{
			Model: "OPT-13B", Cluster: "A40", GPUs: 4, Task: task, Group: "ExeGPT-RRA",
		}
		for _, e := range ests {
			g.Frontier.Add(e)
		}
		return g
	}
	c0 := fakeCell(0)
	c0.Frontiers = []experiments.GroupFrontier{gf("S", frontierEst(1, 2, 1), frontierEst(3, 6, 3))}
	c1 := fakeCell(1)
	c1.Frontiers = []experiments.GroupFrontier{gf("T", frontierEst(2, 4, 2), frontierEst(4, 5, 4))}

	var want core.Frontier
	for _, e := range []*core.Estimate{
		frontierEst(1, 2, 1), frontierEst(3, 6, 3), frontierEst(2, 4, 2), frontierEst(4, 5, 4),
	} {
		want.Add(e)
	}

	m, err := Merge([]*Envelope{
		NewEnvelope("fp", 2, 0, []experiments.CellResult{c0}),
		NewEnvelope("fp", 2, 1, []experiments.CellResult{c1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Frontiers) != 1 {
		t.Fatalf("want 1 merged deployment frontier, got %d", len(m.Frontiers))
	}
	df := m.Frontiers[0]
	if df.Model != "OPT-13B" || df.Group != "ExeGPT-RRA" || df.GPUs != 4 {
		t.Fatalf("frontier key wrong: %+v", df)
	}
	if !reflect.DeepEqual(df.Frontier, want) {
		t.Fatalf("merged frontier != union of cell frontiers\n got %+v\nwant %+v", df.Frontier, want)
	}
}
