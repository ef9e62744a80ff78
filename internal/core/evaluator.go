// Evaluator: the allocation-free, memoized Estimate fast path.
//
// The branch-and-bound search of §5 evaluates thousands of schedules
// against one immutable Simulator, and neighbouring probes share almost
// everything: walking the ND axis reuses the TP allocation, walking the
// batch axis reuses the completion distribution, and the O(ND) decode
// loop revisits the same rounded micro-batch sizes over and over. An
// Evaluator exploits that by memoizing every schedule-invariant
// intermediate — completion distributions by ND, RRA allocations by TP,
// WAA probes/splits/allocations by (policy, TP), and per-(stage, batch)
// pipeline stage times — and by reusing scratch buffers so the steady
// state of a search performs zero allocations per probe.
//
// An Evaluator is NOT safe for concurrent use: it is per-goroutine
// state over a shared, read-only Simulator. The scheduler keeps one per
// worker (par.ForEachWorker); experiments and the CLI create one per
// Deployment. Results are bit-identical to Simulator.Estimate, the
// reference path — asserted by the golden and equivalence tests.
package core

import (
	"fmt"
	"math"

	"exegpt/internal/sched"
	"exegpt/internal/seqdist"
)

// compEntry memoizes one ND's completion distribution (§6) together
// with the derived per-phase completion fraction and the running-sum
// active fractions for decode iterations 1..ND.
type compEntry struct {
	frac   float64   // PerPhaseCompletion
	active []float64 // ActiveFractions; index u in 1..ND
	err    error
}

// allocEntry memoizes one allocation attempt plus the per-stage weight
// bytes (schedule-invariant given the allocation) and the composite
// phase times the RRA estimate derives from it: once an allocation is
// fixed, the encoding phase depends only on the micro-batch token count
// and a decode iteration only on the rounded micro-batch size, so both
// collapse to int-keyed lookups.
type allocEntry struct {
	alloc   sched.Allocation
	weights []int64 // WeightBytesPerGPU per stage, aligned with Stages
	err     error

	encPhaseByTokens map[int]float64 // sched.PipelinePeriod of the encoding phase by microTokens
	iterByMicro      map[int]float64 // decode-iteration period by micro-batch size
}

// waaEnc is the encoder-side composite for one encTokens value.
type waaEnc struct {
	traversal, period float64
	peak              int64
}

// waaDecKey/waaDec memoize the decoder-side composite: the iteration
// period and traversal depend only on (micro, clamped Bm) once the
// allocation is fixed.
type waaDecKey struct {
	micro, bm int
}

type waaDec struct {
	iter, traversal float64
}

// waaEntry memoizes one WAA split+allocation attempt for a (policy, TP)
// pair, including the pre-split stage views, per-side weights, and the
// composite pipeline times derived from them.
type waaEntry struct {
	alloc                sched.Allocation
	encStages, decStages []sched.Stage
	encWeights           []int64
	decWeights           []int64
	err                  error

	encByTokens map[int]waaEnc
	decByKey    map[waaDecKey]waaDec
}

// waaKey identifies a WAA allocation: the CE/CD probe and memory
// estimates that drive the split are schedule-invariant (fixed probe
// batch, §4.1), so (policy, TP) fully determines the outcome.
type waaKey struct {
	policy sched.Policy
	tp     sched.TPSpec
}

// stageTimeKey addresses one memoized pipeline stage time. Stage is a
// small comparable struct, so the key doubles as the full lookup
// context: batch is the micro-batch token count (encode) or query count
// (decode); the attention context and mean sequence length are fixed
// per Simulator.
type stageTimeKey struct {
	st    sched.Stage
	batch int
}

// Evaluator is a per-goroutine evaluation context over one shared
// Simulator. See the package comment above for the design; create one
// with NewEvaluator and call Estimate exactly like Simulator.Estimate.
type Evaluator struct {
	sim *Simulator

	comp map[int]*compEntry // by ND
	rra  map[sched.TPSpec]*allocEntry
	waa  map[waaKey]*waaEntry

	// est is the whole-result memo: Algorithm 1 re-probes block corners
	// on every split (each half shares two corners with its parent), so
	// roughly half of all probes during a search are exact repeats.
	est map[sched.Config]Estimate

	probe     waaProbe
	probeErr  error
	probeDone bool

	encMemo map[stageTimeKey]float64
	decMemo map[stageTimeKey]float64

	// lastEnc/lastDec are size-1 caches in front of the memo maps: the
	// decode loop and the block-corner probes repeat the immediately
	// preceding lookup far more often than any other, and a struct
	// compare is cheaper than a map probe.
	lastEnc, lastDec struct {
		key stageTimeKey
		val float64
		ok  bool
	}

	encTimes, decTimes []float64 // scratch stage-time buffers
}

// NewEvaluator returns an empty evaluation context for sim. The memos
// fill lazily; constructing an Evaluator is cheap.
func NewEvaluator(sim *Simulator) *Evaluator {
	return &Evaluator{
		sim:     sim,
		comp:    map[int]*compEntry{},
		rra:     map[sched.TPSpec]*allocEntry{},
		waa:     map[waaKey]*waaEntry{},
		est:     map[sched.Config]Estimate{},
		encMemo: map[stageTimeKey]float64{},
		decMemo: map[stageTimeKey]float64{},
	}
}

// Sim returns the underlying shared Simulator.
func (e *Evaluator) Sim() *Simulator { return e.sim }

// Estimate simulates the timeline of cfg, bit-identical to
// Simulator.Estimate but memoized across calls. The returned Estimate
// shares its Allocation with other results from this Evaluator; treat
// it as read-only (Simulator.Estimate results already are).
func (e *Evaluator) Estimate(cfg sched.Config) (Estimate, error) {
	if est, ok := e.est[cfg]; ok {
		return est, nil
	}
	est, err := e.estimate(cfg)
	if err != nil {
		return Estimate{}, err
	}
	e.est[cfg] = est
	return est, nil
}

func (e *Evaluator) estimate(cfg sched.Config) (Estimate, error) {
	if err := cfg.Validate(e.sim.Cluster.TotalGPUs()); err != nil {
		return infeasible(cfg, err.Error()), nil
	}
	if fe, ok := familyEstimators[cfg.Policy]; ok {
		return fe.fast(e, cfg)
	}
	return infeasible(cfg, "unknown policy"), nil
}

// completion returns the memoized completion-distribution entry for nd.
func (e *Evaluator) completion(nd int) (*compEntry, error) {
	if ce, ok := e.comp[nd]; ok {
		return ce, ce.err
	}
	ce := &compEntry{}
	comp, err := seqdist.NewCompletionDist(e.sim.Out, nd)
	if err != nil {
		ce.err = err
	} else {
		ce.frac = comp.PerPhaseCompletion()
		ce.active = comp.ActiveFractions()
	}
	e.comp[nd] = ce
	return ce, ce.err
}

// rraAlloc returns the memoized RRA allocation for tp.
func (e *Evaluator) rraAlloc(tp sched.TPSpec) *allocEntry {
	if ae, ok := e.rra[tp]; ok {
		return ae
	}
	ae := &allocEntry{}
	ae.alloc, ae.err = sched.AllocateRRA(e.sim.Model, e.sim.Cluster, tp)
	if ae.err == nil {
		ae.weights = stageWeights(e.sim, ae.alloc.Stages)
		ae.encPhaseByTokens = map[int]float64{}
		ae.iterByMicro = map[int]float64{}
	}
	e.rra[tp] = ae
	return ae
}

// rraEncPhase returns the memoized RRA encoding-phase period for one
// micro-batch token count.
func (e *Evaluator) rraEncPhase(ae *allocEntry, microTokens int) (float64, error) {
	if v, ok := ae.encPhaseByTokens[microTokens]; ok {
		return v, nil
	}
	encTimes := scratch(&e.encTimes, len(ae.alloc.Stages))
	for i, st := range ae.alloc.Stages {
		t, err := e.encStage(st, microTokens)
		if err != nil {
			return 0, err
		}
		encTimes[i] = t
	}
	v := sched.PipelinePeriod(encTimes, rraMicroBatches)
	ae.encPhaseByTokens[microTokens] = v
	return v, nil
}

// rraDecIter returns the memoized RRA decode-iteration period for one
// rounded micro-batch size.
func (e *Evaluator) rraDecIter(ae *allocEntry, micro int) (float64, error) {
	if v, ok := ae.iterByMicro[micro]; ok {
		return v, nil
	}
	decTimes := scratch(&e.decTimes, len(ae.alloc.Stages))
	for i, st := range ae.alloc.Stages {
		t, err := e.decStage(st, micro)
		if err != nil {
			return 0, err
		}
		decTimes[i] = t
	}
	v := sched.PipelinePeriod(decTimes, rraMicroBatches)
	ae.iterByMicro[micro] = v
	return v, nil
}

func stageWeights(s *Simulator, stages []sched.Stage) []int64 {
	w := make([]int64, len(stages))
	for i, st := range stages {
		w[i] = sched.WeightBytesPerGPU(s.Model, st)
	}
	return w
}

// waaCostProbe memoizes Simulator.waaCostProbe: the probe batch is
// fixed (§4.1), so the result never varies with the candidate schedule.
func (e *Evaluator) waaCostProbe() (waaProbe, error) {
	if e.probeDone {
		return e.probe, e.probeErr
	}
	e.probe, e.probeErr = e.sim.waaCostProbe()
	e.probeDone = true
	return e.probe, e.probeErr
}

// waaAlloc returns the memoized WAA split+allocation for (policy, tp).
func (e *Evaluator) waaAlloc(policy sched.Policy, tp sched.TPSpec, p waaProbe) *waaEntry {
	k := waaKey{policy: policy, tp: tp}
	if we, ok := e.waa[k]; ok {
		return we
	}
	s := e.sim
	we := &waaEntry{}
	n := s.Cluster.TotalGPUs()
	encGPUs, decGPUs, err := sched.WAASplit(n, policy, p.ce, p.cd,
		p.encCopy+p.encTransient, p.decCopy+p.kvTotal)
	if err == nil {
		we.alloc, err = sched.AllocateWAA(s.Model, s.Cluster, policy, encGPUs, decGPUs, tp)
	}
	we.err = err
	if err == nil {
		we.encStages = we.alloc.EncStages()
		we.decStages = we.alloc.DecStages()
		we.encWeights = stageWeights(s, we.encStages)
		we.decWeights = stageWeights(s, we.decStages)
		we.encByTokens = map[int]waaEnc{}
		we.decByKey = map[waaDecKey]waaDec{}
	}
	e.waa[k] = we
	return we
}

// waaEncSide returns the memoized encoder-side composite (traversal,
// pipeline period, peak memory) for one encTokens value.
func (e *Evaluator) waaEncSide(we *waaEntry, encTokens int) (waaEnc, error) {
	if v, ok := we.encByTokens[encTokens]; ok {
		return v, nil
	}
	s := e.sim
	encTimes := scratch(&e.encTimes, len(we.encStages))
	for i, st := range we.encStages {
		t, err := e.encStage(st, encTokens)
		if err != nil {
			return waaEnc{}, err
		}
		encTimes[i] = t
	}
	var v waaEnc
	v.traversal = traversal(encTimes)
	for _, t := range encTimes {
		if t > v.period {
			v.period = t
		}
	}
	for i, st := range we.encStages {
		mem := we.encWeights[i] +
			int64(2*encTokens)*s.Model.KVBytesPerTokenLayer()*int64(max(st.EncLayers, 1))
		if mem > v.peak {
			v.peak = mem
		}
	}
	we.encByTokens[encTokens] = v
	return v, nil
}

// waaDecSide returns the memoized decoder-side composite (iteration
// period, traversal) for one (micro, clamped Bm) pair.
func (e *Evaluator) waaDecSide(we *waaEntry, micro, bm int) (waaDec, error) {
	k := waaDecKey{micro: micro, bm: bm}
	if v, ok := we.decByKey[k]; ok {
		return v, nil
	}
	decTimes := scratch(&e.decTimes, len(we.decStages))
	for i, st := range we.decStages {
		t, err := e.decStage(st, micro)
		if err != nil {
			return waaDec{}, err
		}
		decTimes[i] = t
	}
	v := waaDec{iter: sched.PipelinePeriod(decTimes, bm), traversal: traversal(decTimes)}
	we.decByKey[k] = v
	return v, nil
}

// encStage returns the memoized encode stage time (per-Simulator mean
// sequence length).
func (e *Evaluator) encStage(st sched.Stage, totalTokens int) (float64, error) {
	k := stageTimeKey{st: st, batch: totalTokens}
	if e.lastEnc.ok && e.lastEnc.key == k {
		return e.lastEnc.val, nil
	}
	v, ok := e.encMemo[k]
	if !ok {
		var err error
		v, err = e.sim.encStageTime(st, totalTokens, e.sim.inMean)
		if err != nil {
			return 0, err
		}
		e.encMemo[k] = v
	}
	e.lastEnc.key, e.lastEnc.val, e.lastEnc.ok = k, v, true
	return v, nil
}

// decStage returns the memoized decode stage time (per-Simulator mean
// attention context).
func (e *Evaluator) decStage(st sched.Stage, batch int) (float64, error) {
	k := stageTimeKey{st: st, batch: batch}
	if e.lastDec.ok && e.lastDec.key == k {
		return e.lastDec.val, nil
	}
	v, ok := e.decMemo[k]
	if !ok {
		var err error
		v, err = e.sim.decStageTime(st, batch, e.sim.ctxMean)
		if err != nil {
			return 0, err
		}
		e.decMemo[k] = v
	}
	e.lastDec.key, e.lastDec.val, e.lastDec.ok = k, v, true
	return v, nil
}

// scratch resizes buf to n without reallocating when capacity allows.
func scratch(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// estimateRRA is Simulator.estimateRRA with memoized completion
// distributions and allocations, reused stage-time buffers, and the
// decode loop grouped by distinct micro-batch size: consecutive
// iterations whose rounded active micro-batch repeats reuse the
// previous iteration time (decTotal still accumulates term by term, so
// the float result is unchanged).
func (e *Evaluator) estimateRRA(cfg sched.Config) (Estimate, error) {
	s := e.sim
	ce, err := e.completion(cfg.ND)
	if err != nil {
		return Estimate{}, err
	}
	bd := cfg.BD
	be := int(math.Round(float64(bd) * ce.frac))
	if be < 1 {
		be = 1
	}
	cfg.BE = be

	ae := e.rraAlloc(cfg.TP)
	if ae.err != nil {
		return infeasible(cfg, ae.err.Error()), nil
	}
	alloc := ae.alloc

	encTokens := be * s.inMeanRounded
	microTokens := encTokens / rraMicroBatches
	if microTokens < 1 {
		microTokens = 1
	}
	encPhase, err := e.rraEncPhase(ae, microTokens)
	if err != nil {
		return Estimate{}, err
	}

	// Decoding iterations u = 1..ND with decaying active batches. The
	// active fraction is nonincreasing in u, so distinct micro-batch
	// values form runs; only the first iteration of a run pays the
	// (memoized) iteration-period lookup. decTotal still accumulates
	// term by term, keeping the float result identical to the reference.
	var decTotal, firstIter, iter float64
	lastMicro := 0
	for u := 1; u <= cfg.ND; u++ {
		active := int(math.Ceil(float64(bd) * ce.active[u]))
		if active < 1 {
			active = 1
		}
		micro := active / rraMicroBatches
		if micro < 1 {
			micro = 1
		}
		if micro != lastMicro {
			iter, err = e.rraDecIter(ae, micro)
			if err != nil {
				return Estimate{}, err
			}
			lastMicro = micro
		}
		decTotal += iter
		if u == 1 {
			firstIter = iter
		}
	}
	cycle := encPhase + decTotal

	// Memory check on the most loaded stage: weights + steady KV for BD
	// queries' share of layers.
	kvTokens := s.steadyKV * float64(bd)
	var peak int64
	for i, st := range alloc.Stages {
		mem := ae.weights[i] + s.kvBytes(kvTokens, st.DecLayers, st.TP)
		if mem > peak {
			peak = mem
		}
	}
	if peak > s.capBytes {
		est := infeasible(cfg, fmt.Sprintf("OOM: peak %d > capacity %d", peak, s.capBytes))
		est.PeakDecMem = peak
		return est, nil
	}

	tput := float64(be) / cycle
	avgIter := decTotal / float64(cfg.ND)
	latency := encPhase*(1+s.s99/float64(cfg.ND)) + s.s99*avgIter

	return Estimate{
		Config: cfg, Alloc: alloc, Feasible: true,
		Throughput: tput, Latency: latency,
		EncTime: encPhase, DecIterTime: firstIter, CycleTime: cycle,
		PeakEncMem: peak, PeakDecMem: peak,
	}, nil
}

// estimateWAA is Simulator.estimateWAA with the CE/CD probe, split and
// allocation memoized by (policy, TP) and the stage-time loops running
// over reused buffers and the per-(stage, batch) memo.
func (e *Evaluator) estimateWAA(cfg sched.Config) (Estimate, error) {
	s := e.sim
	be := cfg.BE
	bd := int(math.Round(float64(be) * s.outMean))
	if bd < 1 {
		bd = 1
	}
	cfg.BD = bd

	p, err := e.waaCostProbe()
	if err != nil {
		return Estimate{}, err
	}
	we := e.waaAlloc(cfg.Policy, cfg.TP, p)
	if we.err != nil {
		return infeasible(cfg, we.err.Error()), nil
	}
	alloc := we.alloc
	encTokens := be * s.inMeanRounded

	// Encoder pipeline: pipelined over successive batches.
	enc, err := e.waaEncSide(we, encTokens)
	if err != nil {
		return Estimate{}, err
	}

	// Decoder pipeline with Bm micro-batches (clamped to the stage
	// count, see Simulator.estimateWAA).
	bm := cfg.Bm
	if bm > len(we.decStages) {
		bm = len(we.decStages)
	}
	micro := bd / bm
	if micro < 1 {
		micro = 1
	}
	dec, err := e.waaDecSide(we, micro, bm)
	if err != nil {
		return Estimate{}, err
	}

	// Steady-state period: the slower side gates; the staged KV
	// handover binds only if slower than both.
	kvXfer := s.Profile.KVTransfer(encTokens)
	period := math.Max(dec.iter, enc.period)
	period = math.Max(period, kvXfer)

	// Memory feasibility per side.
	peakEnc := enc.peak
	var peakDec int64
	for i, st := range we.decStages {
		mem := we.decWeights[i] + s.kvBytes(s.steadyKV*float64(bd), st.DecLayers, st.TP)
		if mem > peakDec {
			peakDec = mem
		}
	}
	if peakEnc > s.capBytes || peakDec > s.capBytes {
		est := infeasible(cfg, fmt.Sprintf("OOM: enc %d / dec %d > capacity %d", peakEnc, peakDec, s.capBytes))
		est.PeakEncMem, est.PeakDecMem = peakEnc, peakDec
		return est, nil
	}

	tput := float64(be) / period

	latency := enc.traversal + kvXfer + (s.s99-1)*period + dec.traversal
	latency *= 1.05 // §6: buffer time for dynamic adjustments

	return Estimate{
		Config: cfg, Alloc: alloc, Feasible: true,
		Throughput: tput, Latency: latency,
		EncTime: enc.traversal, DecIterTime: dec.iter, CycleTime: period,
		PeakEncMem: peakEnc, PeakDecMem: peakDec,
	}, nil
}
