// OpenRun: the one execution loop behind both entry points.
//
// An OpenRun owns a long-lived event simulation that requests are
// pushed into as they arrive: the engine admits from the live queue,
// goes idle when there is no work, wakes on the next arrival, and can
// be drained at any point so a controller can switch schedules —
// in-flight queries finish under the old schedule, queued ones carry
// over to the successor engine with their original arrival timestamps.
// The online serving mode (`exegpt serve`) measures latency from
// arrival (queueing included), which is what per-window SLO attainment
// reports need. Engine.Run is the same loop with every request enqueued
// at t=0 (see batchRun).
//
// RRA runs its synchronized encode-then-ND-decodes cycle as a chain of
// simulator events; WAA runs asynchronous encoder and decoder pipelines
// over the live queue. Everything is virtual-time and single-goroutine,
// so a run is bit-for-bit deterministic.
package runner

import (
	"fmt"

	"exegpt/internal/eventsim"
	"exegpt/internal/metrics"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// Arrival pairs a request with its arrival time in virtual seconds.
type Arrival struct {
	Req workload.Request
	At  float64
}

// OpenRun is one schedule's live execution. It is not safe for
// concurrent use; the serving loop drives it from one goroutine.
type OpenRun struct {
	eng    *Engine
	cfg    sched.Config
	alloc  sched.Allocation
	sim    *eventsim.Sim
	states []*stageState

	queue     reqFIFO
	arrivedAt map[int]float64 // request ID -> arrival time
	active    []*query        // query.start is the latency origin (startOf)
	totalIn   int64
	arrivals  int64

	rec     *metrics.Recorder
	res     Result
	startAt float64

	// admitting is cleared by Drain: the engine stops taking requests
	// off the queue but finishes everything already admitted/encoded.
	admitting bool
	// parked is set when the admission side has no work and its event
	// chain has ended; the next arrival restarts it.
	parked bool
	err    error

	// OnComplete, when set, observes every completion as it happens
	// (the serving loop feeds windowed recorders from it).
	OnComplete func(QueryRecord)

	// drv is the execution driver the policy's family selected.
	drv driver
	// batch is set only by Engine.Run.
	batch *batchRun

	// Event callbacks, bound once in Open so that scheduling the next
	// decode iteration or encoder issue allocates nothing.
	rraDecodeFn, rraDoneFn, startEncodeFn, iterDoneFn func()
	// iter is the RRA decode iteration within the current cycle.
	iter int

	// Dedicated-pool pipeline state; populated by the pooled driver's
	// openInit.
	encStages, decStages []sched.Stage
	bm                   int
	inbox                []openArrival
	inflight             int // encoder batches not yet fully merged
	inflightReqs         int // requests encoded but not yet active
	maxInflight          int
	decoding             bool
}

// openArrival is an encoded batch in KV handover or waiting for decoder
// capacity. issuedAt is when its encode was issued (Engine.Run's
// latency origin for WAA).
type openArrival struct {
	batch    []workload.Request
	issuedAt float64
}

// batchRun carries the two ways Engine.Run reports differently from an
// open run. Both come from the offline evaluation, where the whole
// request stream is present at t=0:
//
//   - Latency counts from decoder admission, not arrival: the end of
//     the RRA encode phase, or the WAA encode issue.
//   - Table 7 stage samples are restricted to steady state. RRA keeps
//     encoder samples only while requests are still queued, and buffers
//     decoder samples (also only while queued) for steadyDecStage. WAA
//     keeps decoder samples only until the encoder has parked on the
//     drained queue.
type batchRun struct {
	decSamples []decSample
}

// decSample is one RRA decode iteration's stage times and batch size.
type decSample struct {
	active int
	times  []float64
}

// steadyDecStage records the buffered decoder samples of iterations
// that ran within theta of the largest batch the decoder achieved: that
// is the schedule's operating point, whether or not the request stream
// ever filled the nominal BD. The achieved batch is only known once the
// run is over.
func (b *batchRun) steadyDecStage(rec *metrics.Recorder, theta float64) {
	peak := 0
	for _, s := range b.decSamples {
		peak = max(peak, s.active)
	}
	floor := float64(peak) * (1 - theta)
	for _, s := range b.decSamples {
		if float64(s.active) >= floor {
			for _, t := range s.times {
				rec.Add(t)
			}
		}
	}
}

// Open starts an open-loop execution of the schedule with the engine's
// clock positioned at startAt (the serving loop uses one global virtual
// timeline across successive engines).
func (e *Engine) Open(cfg sched.Config, alloc sched.Allocation, startAt float64) (*OpenRun, error) {
	if err := cfg.Validate(e.Cluster.TotalGPUs()); err != nil {
		return nil, err
	}
	states, err := e.newStageStates(alloc)
	if err != nil {
		return nil, err
	}
	o := &OpenRun{
		eng: e, cfg: cfg, alloc: alloc,
		sim:       eventsim.New(),
		states:    states,
		arrivedAt: map[int]float64{},
		rec:       metrics.NewRecorder(),
		res:       Result{EncStage: metrics.NewRecorder(), DecStage: metrics.NewRecorder()},
		startAt:   startAt,
		admitting: true,
		parked:    true,
	}
	o.sim.MaxSteps = 500_000_000
	o.rraDecodeFn, o.rraDoneFn = o.rraDecode, o.rraDecodeDone
	o.startEncodeFn, o.iterDoneFn = o.startEncode, o.iterateDone
	drv, err := driverFor(cfg.Policy)
	if err != nil {
		return nil, err
	}
	o.drv = drv
	if err := drv.openInit(o); err != nil {
		return nil, err
	}
	if startAt > 0 {
		o.sim.RunUntil(startAt)
	}
	return o, nil
}

// Now returns the engine's current virtual time.
func (o *OpenRun) Now() float64 { return o.sim.Now() }

// Err returns the first execution error, if any.
func (o *OpenRun) Err() error { return o.err }

// Config returns the schedule being executed.
func (o *OpenRun) Config() sched.Config { return o.cfg }

// Queued returns the number of arrived requests not yet admitted.
func (o *OpenRun) Queued() int { return o.queue.Len() }

// QueueDepth returns all requests in the system: queued, encoded
// in-flight (WAA handover), and actively decoding.
func (o *OpenRun) QueueDepth() int {
	return o.queue.Len() + o.inflightReqs + len(o.active)
}

// Done reports whether no work remains anywhere in the engine.
func (o *OpenRun) Done() bool {
	return o.queue.Len() == 0 && o.inflightReqs == 0 && len(o.active) == 0
}

// Records returns the completions so far (Start is the arrival time).
func (o *OpenRun) Records() []QueryRecord { return o.res.Records }

// Result summarizes the execution so far.
func (o *OpenRun) Result() Result {
	res := o.res
	res.Stats = metrics.Summarize(o.rec, o.sim.Now()-o.startAt, completionTimes(o.res.Records))
	res.PeakDecMemPerGPU = peakMem(o.states)
	return res
}

// meanIn is the running mean input length over everything that arrived
// (for Engine.Run, the whole stream).
func (o *OpenRun) meanIn() float64 {
	if o.arrivals == 0 {
		return 1
	}
	return float64(o.totalIn) / float64(o.arrivals)
}

// Push delivers a request to the engine. An arrival at or before the
// engine's clock is applied immediately (the serving loop replays
// backlog from a predecessor engine this way — at keeps the original
// arrival time so queueing latency carries across a schedule switch);
// a future arrival is scheduled as a simulator event.
func (o *OpenRun) Push(req workload.Request, at float64) {
	if o.err != nil {
		return
	}
	if at <= o.sim.Now() {
		o.applyArrival(req, at)
		return
	}
	o.sim.At(at, func() { o.applyArrival(req, at) })
}

func (o *OpenRun) applyArrival(req workload.Request, at float64) {
	o.enqueue(req, at)
	o.wake()
}

// enqueue queues an arrived request without waking the engine.
func (o *OpenRun) enqueue(req workload.Request, at float64) {
	o.queue.push(req)
	o.arrivedAt[req.ID] = at
	o.arrivals++
	o.totalIn += int64(req.InLen)
}

// wake restarts a parked admission side.
func (o *OpenRun) wake() {
	if o.parked {
		o.parked = false
		o.drv.openWake(o)
	}
}

// RunUntil advances the engine's virtual time to t, processing every
// event due by then.
func (o *OpenRun) RunUntil(t float64) error {
	o.sim.RunUntil(t)
	return o.err
}

// Finish runs the engine until every pushed request — including ones
// whose arrival events have not fired yet — has been admitted and
// completed. Use Drain instead to cut admission at a schedule switch.
func (o *OpenRun) Finish() error {
	o.sim.Run()
	return o.err
}

// Drain stops admission and runs the engine until every admitted (and,
// for WAA, already-encoded) request completes. Requests still queued
// unadmitted are returned with their original arrival times so they can
// be replayed into a successor engine. The engine must not be used
// after Drain except to read results.
func (o *OpenRun) Drain() ([]Arrival, error) {
	o.admitting = false
	o.sim.Run()
	if o.err != nil {
		return nil, o.err
	}
	leftover := make([]Arrival, 0, o.queue.Len())
	for o.queue.Len() > 0 {
		r := o.queue.Peek(1)[0]
		o.queue.Advance(1)
		leftover = append(leftover, Arrival{Req: r, At: o.arrivedAt[r.ID]})
		delete(o.arrivedAt, r.ID)
	}
	return leftover, nil
}

// hasEncodeWork reports whether the admission side may take requests.
func (o *OpenRun) hasEncodeWork() bool {
	return o.admitting && o.queue.Len() > 0
}

// takeBatch forms the next encode batch from the live queue through the
// engine's batch-formation policy, the one admission call site both
// drivers share.
func (o *OpenRun) takeBatch() []workload.Request {
	return o.eng.formation().Take(&o.queue, o.cfg.BE, o.meanIn(), len(o.active), o.cfg.BD)
}

// startOf is the latency origin of an admitted request: its arrival
// time, or for Engine.Run its decoder-admission time admittedAt.
func (o *OpenRun) startOf(r workload.Request, admittedAt float64) float64 {
	if o.batch != nil {
		return admittedAt
	}
	return o.arrivedAt[r.ID]
}

// complete applies one decode iteration's survivors/completions at the
// current virtual time.
func (o *OpenRun) complete() {
	now := o.sim.Now()
	survivors := o.active[:0]
	for _, q := range o.active {
		q.pos++
		if q.pos >= q.req.OutLen {
			release(o.states, q.req.ID)
			o.rec.Add(now - q.start)
			rec := QueryRecord{
				ID: q.req.ID, Start: q.start, End: now,
				InLen: q.req.InLen, OutLen: q.req.OutLen,
			}
			o.res.Records = append(o.res.Records, rec)
			delete(o.arrivedAt, q.req.ID)
			if o.OnComplete != nil {
				o.OnComplete(rec)
			}
		} else {
			if err := appendToken(o.states, q.req.ID); err != nil {
				o.err = fmt.Errorf("runner: decode OOM: %w", err)
				return
			}
			survivors = append(survivors, q)
		}
	}
	o.active = survivors
}

// doesNotFit is the error for a request that cannot be admitted even
// with no other query holding KV memory.
func doesNotFit(r workload.Request) error {
	return fmt.Errorf("runner: query %d does not fit in KV memory even on an idle system", r.ID)
}

// rraCycle runs one RRA cycle: an encoding phase over whatever has
// arrived (skipped when the queue is empty or admission stopped), then
// up to ND decode iterations. With no work at all the engine parks.
func (o *OpenRun) rraCycle() {
	if o.err != nil {
		return
	}
	if !o.hasEncodeWork() && len(o.active) == 0 {
		o.parked = true
		return
	}
	var encDur float64
	if o.hasEncodeWork() {
		batch := o.takeBatch()
		admitted, tokens, deferred := o.eng.admitBatch(o.states, batch)
		if deferred > 0 {
			o.queue.Rewind(deferred)
		}
		if len(admitted) == 0 && len(o.active) == 0 {
			o.err = doesNotFit(batch[0])
			return
		}
		if len(admitted) > 0 {
			// The phase runs as rraMicroBatches interleaved mini-batches
			// (Figure 4(a)); stage times are per micro-batch.
			microTokens := max(tokens/rraMicroBatches, 1)
			times, err := o.eng.encStageTimes(o.alloc.Stages, microTokens, o.meanIn())
			if err != nil {
				o.err = err
				return
			}
			if o.batch == nil || o.queue.Len() > 0 {
				for _, t := range times {
					o.res.EncStage.Add(t)
				}
			}
			encDur = sched.PipelinePeriod(times, rraMicroBatches)
		}
		admittedAt := o.sim.Now() + encDur
		for _, r := range admitted {
			o.active = append(o.active, &query{req: r, start: o.startOf(r, admittedAt)})
		}
	}
	o.iter = 0
	o.sim.After(encDur, o.rraDecodeFn)
}

// rraDecode issues decode iteration o.iter of the current cycle, or
// starts the next cycle once ND iterations ran or the batch emptied.
func (o *OpenRun) rraDecode() {
	if o.err != nil {
		return
	}
	if o.iter >= o.cfg.ND || len(o.active) == 0 {
		o.rraCycle()
		return
	}
	ctx := meanCtxOf(o.eng.Model, o.active)
	micro := max(len(o.active)/rraMicroBatches, 1)
	times, err := o.eng.decStageTimes(o.alloc.Stages, micro, ctx)
	if err != nil {
		o.err = err
		return
	}
	switch {
	case o.batch == nil:
		for _, t := range times {
			o.res.DecStage.Add(t)
		}
	case o.queue.Len() > 0:
		o.batch.decSamples = append(o.batch.decSamples, decSample{active: len(o.active), times: times})
	}
	o.sim.After(sched.PipelinePeriod(times, rraMicroBatches), o.rraDoneFn)
}

// rraDecodeDone retires decode iteration o.iter and, after any KV
// compaction, issues the next.
func (o *OpenRun) rraDecodeDone() {
	o.res.Iterations++
	o.complete()
	if o.err != nil {
		return
	}
	o.iter++
	if cost, ran := o.eng.maybeCompact(o.states); ran {
		o.res.Compactions++
		o.res.CompactionSeconds += cost
		o.sim.After(cost, o.rraDecodeFn)
		return
	}
	o.rraDecode()
}

// startEncode issues one WAA encoder batch from the live queue and
// pipelines the next issue one stage period later; with nothing to take
// it parks (arrival wakes it), and at the in-flight cap it stops (the
// decoder restarts it on merge).
func (o *OpenRun) startEncode() {
	if o.err != nil {
		return
	}
	if !o.hasEncodeWork() {
		o.parked = true
		return
	}
	if o.inflight >= o.maxInflight {
		return
	}
	batch := o.takeBatch()
	tokens := 0
	for _, r := range batch {
		tokens += r.InLen
	}
	times, terr := o.eng.encStageTimes(o.encStages, tokens, o.meanIn())
	if terr != nil {
		o.err = terr
		return
	}
	for _, t := range times {
		o.res.EncStage.Add(t)
	}
	period, trav := 0.0, 0.0
	for _, t := range times {
		trav += t
		if t > period {
			period = t
		}
	}
	handover := trav + o.eng.Prof.KVTransfer(tokens)
	o.inflight++
	o.inflightReqs += len(batch)
	a := openArrival{batch: batch, issuedAt: o.sim.Now()}
	o.sim.After(handover, func() {
		o.inbox = append(o.inbox, a)
		if !o.decoding {
			o.iterate()
		}
	})
	o.sim.After(period, o.startEncodeFn)
}

// iterate is the WAA decoder loop: merge arrived batches that fit
// (§4.1: encoded batches merge with previously decoded data), run one
// iteration, reschedule. Arrivals that do not fit yet wait for capacity
// freed by completing queries; the waiting list compacts in place and
// leftover batches stay subslices, so a stalled decoder never copies
// queued requests.
func (o *OpenRun) iterate() {
	if o.err != nil {
		return
	}
	waiting := o.inbox[:0]
	merged := false
	sel := o.eng.victims()
	tryAdmit := func(r workload.Request) error {
		return admit(o.states, r.ID, o.eng.promptTokens(r))
	}
	for _, a := range o.inbox {
		admitted, deferred := sel.Admit(a.batch, tryAdmit)
		for _, r := range admitted {
			o.active = append(o.active, &query{req: r, start: o.startOf(r, a.issuedAt)})
			o.inflightReqs--
			merged = true
		}
		if deferred > 0 {
			i := len(a.batch) - deferred
			if len(o.active) == 0 {
				o.err = doesNotFit(a.batch[i])
				return
			}
			waiting = append(waiting, openArrival{batch: a.batch[i:], issuedAt: a.issuedAt})
		} else {
			o.inflight--
		}
	}
	o.inbox = waiting
	if merged {
		// In-flight capacity just freed: restart the encoder, whether it
		// stopped on the cap or parked on an empty queue (startEncode
		// re-parks if there is still nothing to take).
		o.parked = false
		o.startEncode()
	}
	if o.err != nil {
		return
	}
	if len(o.active) == 0 {
		o.decoding = false
		return // park the decoder; the next merge restarts it
	}
	o.decoding = true

	micro := max(len(o.active)/o.bm, 1)
	ctx := meanCtxOf(o.eng.Model, o.active)
	times, terr := o.eng.decStageTimes(o.decStages, micro, ctx)
	if terr != nil {
		o.err = terr
		return
	}
	if o.batch == nil || !o.parked {
		for _, t := range times {
			o.res.DecStage.Add(t)
		}
	}
	dur := sched.PipelinePeriod(times, o.bm)
	if cost, ran := o.eng.maybeCompact(o.states); ran {
		dur += cost
		o.res.Compactions++
		o.res.CompactionSeconds += cost
	}
	o.sim.After(dur, o.iterDoneFn)
}

// iterateDone retires one WAA decode iteration and starts the next.
func (o *OpenRun) iterateDone() {
	o.res.Iterations++
	o.complete()
	if o.err != nil {
		return
	}
	o.iterate()
}
