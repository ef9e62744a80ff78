// Package runner implements XRunner: the execution engine that enforces
// a schedule produced by XScheduler (§3).
//
// The engine executes over the simulated GPU cluster in virtual time.
// It implements the paper's runtime mechanisms:
//
//   - early termination of completed queries with key/value-cache
//     compaction;
//   - decoupled encoding/decoding with KV handover through host memory
//     for WAA scheduling;
//   - decoder micro-batches and partial tensor parallelism;
//   - dynamic workload adjustment (§5.2): the encoder batch is grown or
//     shrunk to keep the encoder token workload and the decoder batch
//     near their scheduled averages.
//
// Every execution is an OpenRun (open.go) on a discrete-event
// simulator: RRA runs its synchronized cycle (one encoding phase then
// ND decoding iterations, Figure 4(a)) as a chain of events, WAA its
// asynchronous encoder and decoder pipelines (Figure 4(b)). The online
// serving mode pushes requests in as they arrive; the batch entry
// point Run enqueues a whole request stream at t=0 and runs it to
// completion.
package runner

import (
	"fmt"
	"math"

	"exegpt/internal/hw"
	"exegpt/internal/kvcache"
	"exegpt/internal/metrics"
	"exegpt/internal/model"
	"exegpt/internal/profile"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// Engine executes schedules for one model deployment.
//
// Concurrency: Run reads the Engine's fields and the profile Table (both
// immutable after construction) and builds all mutable execution state —
// stage KV trackers, metric recorders, the event simulator — per call.
// Separate Engine instances are therefore fully independent, and even a
// single Engine supports concurrent Run calls provided its exported
// knobs are not mutated mid-flight. The parallel sweep in
// internal/experiments drives one Engine per deployment.
type Engine struct {
	Model   model.Model
	Cluster hw.Cluster
	Prof    *profile.Table
	// DynamicAdjust enables §5.2 runtime workload adjustment.
	DynamicAdjust bool
	// Formation overrides the batch-formation policy; nil selects the
	// §5.2 adaptive default (see policy.go).
	Formation BatchFormation
	// Victims overrides victim/admission selection; nil selects the
	// FIFO defer-tail default (admit in order, the unadmitted tail
	// yields).
	Victims VictimSelector
}

// New returns an engine with paper-default runtime options.
func New(m model.Model, cluster hw.Cluster, prof *profile.Table) (*Engine, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	if prof == nil {
		return nil, fmt.Errorf("runner: nil profile")
	}
	return &Engine{Model: m, Cluster: cluster, Prof: prof,
		DynamicAdjust: true}, nil
}

// theta is the workload threshold of §5.2: the fractional deviation
// tolerated before the runtime adjusts the batch.
const theta = 0.1

// compactFrac triggers KV compaction when fragmentation exceeds this
// fraction of live bytes.
const compactFrac = 0.10

// QueryRecord is the per-query outcome.
type QueryRecord struct {
	ID         int
	Start, End float64 // virtual seconds (generation latency = End-Start)
	InLen      int
	OutLen     int
}

// Result summarizes one execution.
type Result struct {
	Stats   metrics.RunStats
	Records []QueryRecord
	// EncStage and DecStage record per-phase/iteration single-stage
	// execution times (Table 7 variance analysis).
	EncStage, DecStage *metrics.Recorder
	// PeakDecMemPerGPU is the high-water KV+weight bytes on the most
	// loaded decode-role GPU.
	PeakDecMemPerGPU int64
	// Compactions counts cache-compaction events; CompactionSeconds is
	// the total time they consumed.
	Compactions       int
	CompactionSeconds float64
	// Iterations counts decode iterations executed.
	Iterations int
}

// query is the in-flight state of one request.
type query struct {
	req   workload.Request
	start float64
	pos   int // generated tokens so far
}

func (q *query) ctxLen(m model.Model) int { return m.ContextLen(q.req.InLen, q.pos) }

// stageState holds the per-decode-stage memory bookkeeping.
type stageState struct {
	stage sched.Stage
	mem   *hw.MemTracker
	kv    *kvcache.Compacting
}

// newStageStates builds KV managers for the decode-role stages, charging
// weights up front.
func (e *Engine) newStageStates(alloc sched.Allocation) ([]*stageState, error) {
	var states []*stageState
	for _, st := range alloc.Stages {
		if st.DecLayers == 0 {
			continue
		}
		mem := hw.NewMemTracker(e.Cluster.GPU.MemoryBytes)
		if err := mem.Alloc(sched.WeightBytesPerGPU(e.Model, st)); err != nil {
			return nil, fmt.Errorf("runner: weights do not fit on stage at rank %d: %w", st.FirstRank, err)
		}
		perToken := e.Model.KVBytesPerTokenLayer() * int64(st.DecLayers) / int64(st.TP)
		states = append(states, &stageState{
			stage: st,
			mem:   mem,
			kv:    kvcache.NewCompacting(mem, perToken),
		})
	}
	if len(states) == 0 {
		return nil, fmt.Errorf("runner: allocation has no decode stages")
	}
	return states, nil
}

// admit reserves KV space for a query's cached prompt tokens on every
// decode stage; on failure it rolls back.
func admit(states []*stageState, id, promptTokens int) error {
	for i, st := range states {
		if err := st.kv.Admit(id, promptTokens, 0); err != nil {
			for _, prev := range states[:i] {
				_ = prev.kv.Release(id)
				prev.kv.Compact()
			}
			return err
		}
	}
	return nil
}

// appendToken extends a query's cache on every stage.
func appendToken(states []*stageState, id int) error {
	for _, st := range states {
		if err := st.kv.Append(id); err != nil {
			return err
		}
	}
	return nil
}

// release frees a completed query everywhere.
func release(states []*stageState, id int) {
	for _, st := range states {
		_ = st.kv.Release(id)
	}
}

// maybeCompact compacts fragmented stages and returns the time cost
// (bytes moved at device bandwidth) and whether compaction ran.
func (e *Engine) maybeCompact(states []*stageState) (float64, bool) {
	var cost float64
	ran := false
	for _, st := range states {
		live := st.kv.LiveTokens() * int64(e.Model.KVBytesPerTokenLayer()) * int64(st.stage.DecLayers) / int64(st.stage.TP)
		if live < 1 {
			live = 1
		}
		if float64(st.kv.FragBytes()) > compactFrac*float64(live) {
			moved := st.kv.Compact()
			cost = math.Max(cost, float64(moved)/e.Cluster.GPU.MemBandwidth)
			ran = true
		}
	}
	return cost, ran
}

func peakMem(states []*stageState) int64 {
	var peak int64
	for _, st := range states {
		if p := st.mem.Peak(); p > peak {
			peak = p
		}
	}
	return peak
}

// promptTokens returns the tokens a request pins in the decode-side KV
// cache after prefill.
func (e *Engine) promptTokens(r workload.Request) int {
	// Both decoder-only (self-attention over the prompt) and
	// encoder-decoder models (cross-attention memoization) cache one
	// entry per input token.
	return r.InLen
}

// encStageTimes returns per-stage encode times for a batch totalling
// tokens prompt tokens. Stages without encoder layers are skipped, so
// the Table 7 recorders never see a zero sample.
func (e *Engine) encStageTimes(stages []sched.Stage, tokens int, meanSeq float64) ([]float64, error) {
	c := sched.StageCost{Prof: e.Prof, Cluster: e.Cluster}
	out := make([]float64, 0, len(stages))
	for _, st := range stages {
		if st.EncLayers == 0 {
			continue
		}
		t, err := c.Enc(st, tokens, meanSeq, 1)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// decStageTimes returns per-stage decode-iteration times, skipping
// stages without decoder layers.
func (e *Engine) decStageTimes(stages []sched.Stage, batch int, ctx float64) ([]float64, error) {
	c := sched.StageCost{Prof: e.Prof, Cluster: e.Cluster}
	out := make([]float64, 0, len(stages))
	for _, st := range stages {
		if st.DecLayers == 0 {
			continue
		}
		t, err := c.Dec(st, batch, ctx, 1)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

func meanCtxOf(m model.Model, active []*query) float64 {
	if len(active) == 0 {
		return 1
	}
	total := 0
	for _, q := range active {
		total += q.ctxLen(m)
	}
	return float64(total) / float64(len(active))
}

// Run executes the schedule over a request stream that is wholly
// present at t=0. It is an OpenRun whose requests are all enqueued
// before the driver first wakes, so batch formation sees the
// whole-stream mean input length from the first batch on; the run then
// executes to completion. See batchRun for the two ways its reporting
// differs from an open run.
func (e *Engine) Run(cfg sched.Config, alloc sched.Allocation, reqs []workload.Request) (Result, error) {
	if len(reqs) == 0 {
		return Result{}, fmt.Errorf("runner: no requests")
	}
	o, err := e.Open(cfg, alloc, 0)
	if err != nil {
		return Result{}, err
	}
	o.batch = &batchRun{}
	for _, r := range reqs {
		o.enqueue(r, 0)
	}
	o.wake()
	if err := o.Finish(); err != nil {
		return Result{}, err
	}
	o.batch.steadyDecStage(o.res.DecStage, theta)
	res := o.Result()
	if res.Stats.Completed != len(reqs) {
		return Result{}, fmt.Errorf("runner: completed %d of %d requests (stall)", res.Stats.Completed, len(reqs))
	}
	return res, nil
}

// rraMicroBatches matches Figure 4(a)'s two interleaved mini-batches.
const rraMicroBatches = 2

// reqFIFO is an index-cursor FIFO of queued requests. Batches come out
// as subslices (no copying) and a failed admission rewinds the cursor,
// so deferring admission costs O(1), not a copy of the remaining queue.
type reqFIFO struct {
	items []workload.Request
	head  int
}

// Len returns the number of queued requests.
func (q *reqFIFO) Len() int { return len(q.items) - q.head }

// Peek returns the next n queued requests (fewer when the queue is
// shorter) without consuming them.
func (q *reqFIFO) Peek(n int) []workload.Request {
	if n > q.Len() {
		n = q.Len()
	}
	return q.items[q.head : q.head+n]
}

// Advance consumes the first n queued requests.
func (q *reqFIFO) Advance(n int) { q.head += n }

// Rewind un-consumes the last n consumed requests; they return to the
// queue front in their original order (they are still contiguous in
// the backing array).
func (q *reqFIFO) Rewind(n int) { q.head -= n }

// push appends a newly arrived request to the queue tail (open-loop
// runs grow the queue incrementally instead of pre-drawing it). When
// the consumed prefix dominates the backing array it is compacted into
// a fresh allocation, which leaves any in-flight batch subslices on the
// old array untouched; appending into spare capacity is equally safe
// because in-flight subslices are never read past their length.
func (q *reqFIFO) push(r workload.Request) {
	if q.head > 64 && q.head > len(q.items)/2 {
		q.items = append([]workload.Request(nil), q.items[q.head:]...)
		q.head = 0
	}
	q.items = append(q.items, r)
}

// completionTimes extracts the End timestamps of the records.
func completionTimes(records []QueryRecord) []float64 {
	ends := make([]float64, len(records))
	for i, r := range records {
		ends[i] = r.End
	}
	return ends
}
