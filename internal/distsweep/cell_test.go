package distsweep

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// fakeCellSet builds one cell envelope per fake cell of an nCells grid.
func fakeCellSet(fp string, nCells int) []*CellEnvelope {
	envs := make([]*CellEnvelope, nCells)
	for i := 0; i < nCells; i++ {
		envs[i] = NewCellEnvelope(fp, nCells, fakeCell(i))
	}
	return envs
}

func TestCellEnvelopeRoundTrip(t *testing.T) {
	env := NewCellEnvelope("fp", 5, fakeCell(1))
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCell(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(env, back) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", back, env)
	}
	// The +Inf bound must survive bit-exactly.
	if !math.IsInf(back.Result.Rows[0].Bound, 1) {
		t.Fatalf("infinite bound lost: %v", back.Result.Rows[0].Bound)
	}
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 2} {
		if _, err := DecodeCell(data[:cut]); err == nil {
			t.Fatalf("truncation at %d silently decoded", cut)
		} else if !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("truncation at %d: error %q does not say corrupt", cut, err)
		}
	}
}

// TestMergeCellsMatchesMerge: folding per-cell envelopes produces the
// same Merged — down to the serialized bytes — as folding the same
// cells through whole-shard envelopes.
func TestMergeCellsMatchesMerge(t *testing.T) {
	const nCells = 7
	want, err := Merge(fakeShardSet("fp", 3, nCells))
	if err != nil {
		t.Fatal(err)
	}
	// Shuffle arrival order: completion order must not matter.
	envs := fakeCellSet("fp", nCells)
	for i := range envs {
		j := (i * 5) % nCells
		envs[i], envs[j] = envs[j], envs[i]
	}
	got, err := MergeCells(envs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cell-granular merge diverges from whole-shard merge")
	}
	wantBytes, _ := want.Encode()
	gotBytes, _ := got.Encode()
	if !bytes.Equal(wantBytes, gotBytes) {
		t.Fatal("cell-granular merged JSON not byte-identical")
	}
}

func TestMergeCellsRejectsBrokenSets(t *testing.T) {
	base := func() []*CellEnvelope { return fakeCellSet("fp", 3) }

	cases := map[string]struct {
		mutate func([]*CellEnvelope) []*CellEnvelope
		want   string
	}{
		"empty": {func(e []*CellEnvelope) []*CellEnvelope { return nil }, "no cell envelopes"},
		"fingerprint mismatch": {func(e []*CellEnvelope) []*CellEnvelope {
			e[1].Fingerprint = "other"
			return e
		}, "fingerprint mismatch"},
		"total mismatch": {func(e []*CellEnvelope) []*CellEnvelope {
			e[2] = NewCellEnvelope("fp", 4, fakeCell(2))
			return e
		}, "size mismatch"},
		"missing cell": {func(e []*CellEnvelope) []*CellEnvelope { return e[:2] }, "incomplete"},
		"duplicate cell": {func(e []*CellEnvelope) []*CellEnvelope {
			e[2] = NewCellEnvelope("fp", 3, fakeCell(1))
			return e
		}, "coverage"},
		"bad version": {func(e []*CellEnvelope) []*CellEnvelope {
			e[0].Version = 99
			return e
		}, "version"},
		"cell out of range": {func(e []*CellEnvelope) []*CellEnvelope {
			e[0].Result.Cell = 7
			return e
		}, "out of range"},
	}
	for name, tc := range cases {
		if _, err := MergeCells(tc.mutate(base())); err == nil {
			t.Errorf("%s: silently merged", name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

// TestCellFileRoundTrip exercises the atomic write + read path.
func TestCellFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/cell_0.json"
	env := NewCellEnvelope("fp", 2, fakeCell(0))
	if err := env.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCellFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(env, back) {
		t.Fatal("file round trip diverged")
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
	want, err := Merge([]*Envelope{NewEnvelope(fp, 1, 0, cells)})
	if err != nil {
		t.Fatal(err)
	}

	var envs []*CellEnvelope
	total := len(grid.Cells())
	for i := total - 1; i >= 0; i-- { // reverse order: arrival must not matter
		crs, err := shardCtx(cacheDir).SweepCells(grid, []int{i})
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, NewCellEnvelope(fp, total, crs[0]))
	}
	got, err := MergeCells(envs)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, _ := want.Encode()
	gotBytes, _ := got.Encode()
	if !bytes.Equal(wantBytes, gotBytes) {
		t.Fatal("cell-by-cell evaluation not byte-identical to single-process sweep")
	}
}
