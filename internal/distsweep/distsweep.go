// Package distsweep folds evaluated sweep cells back into one sweep
// result.
//
// A sweep grid flattens into a canonical cell list
// (experiments.SweepGrid.Cells). Pull workers of the work-stealing
// dispatcher (internal/dispatch) evaluate leased cells and stream each
// back in a versioned CellEnvelope; the coordinator checks that the
// envelopes form exactly one complete, coherent cell set — same format
// version, same grid fingerprint, every cell covered exactly once — and
// MergeCells folds them into the rows, eval counts and per-deployment
// Pareto frontiers a single-process Sweep produces, bit-identically.
// The single-process sweep routes its cells through the same fold as
// one whole-grid Envelope (Merge), so the two artifacts are
// byte-identical by construction.
//
// The rows come back by concatenating cells in grid order. The
// frontiers come back by folding every cell's per-policy-group frontier
// into one core.Frontier per (model, cluster, GPUs, policy group) —
// the cross-task latency→throughput envelope of that deployment —
// which is well-defined because Frontier.Merge is order-independent.
//
// This package also forks and tracks the worker processes of a local
// or ssh-launched fleet (Fleet).
package distsweep

import (
	"encoding/json"
	"fmt"
	"sort"

	"exegpt/internal/atomicfile"
	"exegpt/internal/core"
	"exegpt/internal/experiments"
)

// EnvelopeVersion is the envelope format version, shared by Envelope
// and CellEnvelope. Merges refuse envelopes stamped with a different
// version rather than guessing at field semantics.
const EnvelopeVersion = 1

// Envelope is a versioned set of evaluated cells: one partition of the
// grid, stamped with enough metadata for Merge to reject mismatched or
// incomplete partition sets. The single-process sweep passes its whole
// grid as the one partition (Shards 1, Shard 0).
type Envelope struct {
	Version int `json:"version"`
	// Fingerprint identifies the (grid, context) the cells were cut
	// from (experiments.Context.GridFingerprint). Envelopes only merge
	// with envelopes carrying the same fingerprint.
	Fingerprint string `json:"fingerprint"`
	// Shards is the total partition count; Shard is this partition's
	// index in 0..Shards-1. Cell i belongs to partition i%Shards.
	Shards int `json:"shards"`
	Shard  int `json:"shard"`
	// Cells are the partition's evaluated cells in grid order. Empty
	// when the grid has fewer cells than partitions.
	Cells []experiments.CellResult `json:"cells"`
}

// NewEnvelope stamps one partition's cell results for Merge.
func NewEnvelope(fingerprint string, shards, shard int, cells []experiments.CellResult) *Envelope {
	return &Envelope{
		Version: EnvelopeVersion, Fingerprint: fingerprint,
		Shards: shards, Shard: shard, Cells: cells,
	}
}

// validate checks the envelope's internal consistency.
func (e *Envelope) validate() error {
	if e.Version != EnvelopeVersion {
		return fmt.Errorf("distsweep: envelope version %d, this build reads %d", e.Version, EnvelopeVersion)
	}
	if e.Fingerprint == "" {
		return fmt.Errorf("distsweep: envelope missing grid fingerprint")
	}
	if e.Shards < 1 {
		return fmt.Errorf("distsweep: envelope shard count %d < 1", e.Shards)
	}
	if e.Shard < 0 || e.Shard >= e.Shards {
		return fmt.Errorf("distsweep: envelope shard index %d out of range 0..%d", e.Shard, e.Shards-1)
	}
	seen := make(map[int]bool, len(e.Cells))
	for _, c := range e.Cells {
		if c.Cell < 0 {
			return fmt.Errorf("distsweep: negative cell index %d", c.Cell)
		}
		if c.Cell%e.Shards != e.Shard {
			return fmt.Errorf("distsweep: cell %d does not belong to shard %d of %d", c.Cell, e.Shard, e.Shards)
		}
		if seen[c.Cell] {
			return fmt.Errorf("distsweep: duplicate cell %d in shard %d", c.Cell, e.Shard)
		}
		seen[c.Cell] = true
	}
	return nil
}

// DeploymentFrontier is the merged cross-task Pareto frontier of one
// (deployment, policy group): every feasible (latency, throughput)
// point any task's schedule search discovered on that hardware with
// that policy family, Pareto-reduced.
type DeploymentFrontier struct {
	Model    string        `json:"model"`
	Cluster  string        `json:"cluster"`
	GPUs     int           `json:"gpus"`
	Group    string        `json:"group"`
	Frontier core.Frontier `json:"frontier"`
}

// Merged is the coordinator's output: exactly what a single-process
// sweep over the same grid produces. Rows are in grid order; Evals is
// the total schedule-search evaluation count; Frontiers are sorted by
// (model, cluster, GPUs, group). It deliberately omits how the cells
// were distributed, so a dispatched run's merged artifact is
// byte-identical to a single-process run's.
type Merged struct {
	Fingerprint string                 `json:"fingerprint"`
	Cells       int                    `json:"cells"`
	Evals       int                    `json:"evals"`
	Rows        []experiments.SweepRow `json:"rows"`
	Frontiers   []DeploymentFrontier   `json:"frontiers"`
}

// Encode renders the merged sweep as indented JSON with a trailing
// newline. The encoding is deterministic: no maps, and every float
// round-trips bit-exactly.
func (m *Merged) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteFile atomically writes the merged sweep to path.
func (m *Merged) WriteFile(path string) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	return atomicfile.Write(path, data, 0o644)
}

// Merge folds a complete partition set into one sweep result. It fails —
// rather than silently merging — when the envelopes disagree on format
// version, fingerprint or shard count, when a shard index is duplicated
// or missing, or when the union of cells is not exactly the contiguous
// grid 0..len-1.
func Merge(envs []*Envelope) (*Merged, error) {
	if len(envs) == 0 {
		return nil, fmt.Errorf("distsweep: no shard envelopes to merge")
	}
	for _, e := range envs {
		if err := e.validate(); err != nil {
			return nil, err
		}
	}
	ref := envs[0]
	byShard := make(map[int]bool, len(envs))
	for _, e := range envs {
		if e.Fingerprint != ref.Fingerprint {
			return nil, fmt.Errorf("distsweep: grid fingerprint mismatch: shard %d has %.12s…, shard %d has %.12s…",
				ref.Shard, ref.Fingerprint, e.Shard, e.Fingerprint)
		}
		if e.Shards != ref.Shards {
			return nil, fmt.Errorf("distsweep: shard count mismatch: %d vs %d", ref.Shards, e.Shards)
		}
		if byShard[e.Shard] {
			return nil, fmt.Errorf("distsweep: duplicate shard index %d", e.Shard)
		}
		byShard[e.Shard] = true
	}
	if len(envs) != ref.Shards {
		var missing []int
		for i := 0; i < ref.Shards; i++ {
			if !byShard[i] {
				missing = append(missing, i)
			}
		}
		return nil, fmt.Errorf("distsweep: incomplete shard set: have %d of %d, missing %v",
			len(envs), ref.Shards, missing)
	}

	var cells []experiments.CellResult
	for _, e := range envs {
		cells = append(cells, e.Cells...)
	}
	return foldCells(ref.Fingerprint, cells)
}

// foldCells reduces a complete cell set into the Merged output — the
// shared core of the whole-partition and cell-granular merge paths, so
// both produce byte-identical artifacts. The cells may arrive in any
// order but must cover the grid 0..len-1 exactly once.
func foldCells(fingerprint string, cells []experiments.CellResult) (*Merged, error) {
	sort.Slice(cells, func(i, j int) bool { return cells[i].Cell < cells[j].Cell })
	for i, c := range cells {
		// Per-envelope validation already rejected duplicates within a
		// shard and cells outside a shard's partition, so a gap or
		// cross-shard duplicate surfaces here as an index mismatch.
		if c.Cell != i {
			return nil, fmt.Errorf("distsweep: cell coverage broken at grid index %d (found cell %d): workers did not cover the grid exactly once", i, c.Cell)
		}
	}

	m := &Merged{Fingerprint: fingerprint, Cells: len(cells)}
	type key struct {
		model, cluster string
		gpus           int
		group          string
	}
	frontiers := map[key]*core.Frontier{}
	var order []key
	for _, c := range cells {
		m.Evals += c.Evals
		m.Rows = append(m.Rows, c.Rows...)
		for i := range c.Frontiers {
			gf := &c.Frontiers[i]
			k := key{model: gf.Model, cluster: gf.Cluster, gpus: gf.GPUs, group: gf.Group}
			f, ok := frontiers[k]
			if !ok {
				f = &core.Frontier{}
				frontiers[k] = f
				order = append(order, k)
			}
			f.Merge(&gf.Frontier)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.model != b.model {
			return a.model < b.model
		}
		if a.cluster != b.cluster {
			return a.cluster < b.cluster
		}
		if a.gpus != b.gpus {
			return a.gpus < b.gpus
		}
		return a.group < b.group
	})
	for _, k := range order {
		m.Frontiers = append(m.Frontiers, DeploymentFrontier{
			Model: k.model, Cluster: k.cluster, GPUs: k.gpus, Group: k.group,
			Frontier: *frontiers[k],
		})
	}
	return m, nil
}
