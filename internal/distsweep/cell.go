// Cell-granular envelopes: the wire unit of the dynamic work-stealing
// dispatcher (internal/dispatch). A pull worker streams one
// CellEnvelope per evaluated cell inside a dispatch wire frame (whose
// codec also catches truncation), so the coordinator can account for —
// and re-lease — individual cells when a worker stalls or dies. The
// fingerprint and coverage checks match Envelope's, and MergeCells
// folds a complete cell set through the same core as Merge, so the
// merged artifact stays byte-identical to a single-process Sweep's.
package distsweep

import (
	"fmt"

	"exegpt/internal/experiments"
)

// CellEnvelope is the versioned result of one evaluated sweep cell.
type CellEnvelope struct {
	Version int `json:"version"`
	// Fingerprint identifies the (grid, context) the cell was cut from;
	// cells only merge with cells carrying the same fingerprint.
	Fingerprint string `json:"fingerprint"`
	// Total is the grid's full cell count; the cell's index lies in
	// 0..Total-1 and a merge needs exactly one envelope per index.
	Total  int                    `json:"total"`
	Result experiments.CellResult `json:"result"`
}

// NewCellEnvelope stamps one cell result for the dispatch coordinator.
func NewCellEnvelope(fingerprint string, total int, result experiments.CellResult) *CellEnvelope {
	return &CellEnvelope{
		Version: EnvelopeVersion, Fingerprint: fingerprint,
		Total: total, Result: result,
	}
}

// validate checks the envelope's internal consistency.
func (e *CellEnvelope) validate() error {
	if e.Version != EnvelopeVersion {
		return fmt.Errorf("distsweep: cell envelope version %d, this build reads %d", e.Version, EnvelopeVersion)
	}
	if e.Fingerprint == "" {
		return fmt.Errorf("distsweep: cell envelope missing grid fingerprint")
	}
	if e.Total < 1 {
		return fmt.Errorf("distsweep: cell envelope total %d < 1", e.Total)
	}
	if e.Result.Cell < 0 || e.Result.Cell >= e.Total {
		return fmt.Errorf("distsweep: cell index %d out of range 0..%d", e.Result.Cell, e.Total-1)
	}
	return nil
}

// MergeCells folds a complete cell-envelope set into one sweep result,
// byte-identical to what Merge produces from whole-partition envelopes
// of the same grid. It fails when envelopes disagree on format version,
// fingerprint or grid size, or when the set is not exactly one envelope
// per cell 0..Total-1.
func MergeCells(envs []*CellEnvelope) (*Merged, error) {
	if len(envs) == 0 {
		return nil, fmt.Errorf("distsweep: no cell envelopes to merge")
	}
	ref := envs[0]
	cells := make([]experiments.CellResult, 0, len(envs))
	for _, e := range envs {
		if err := e.validate(); err != nil {
			return nil, err
		}
		if e.Fingerprint != ref.Fingerprint {
			return nil, fmt.Errorf("distsweep: grid fingerprint mismatch: cell %d has %.12s…, cell %d has %.12s…",
				ref.Result.Cell, ref.Fingerprint, e.Result.Cell, e.Fingerprint)
		}
		if e.Total != ref.Total {
			return nil, fmt.Errorf("distsweep: grid size mismatch: %d vs %d cells", ref.Total, e.Total)
		}
		cells = append(cells, e.Result)
	}
	if len(envs) != ref.Total {
		return nil, fmt.Errorf("distsweep: incomplete cell set: have %d of %d", len(envs), ref.Total)
	}
	return foldCells(ref.Fingerprint, cells)
}
