package distsweep

import (
	"bytes"
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
