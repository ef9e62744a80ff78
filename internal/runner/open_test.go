package runner

import (
	"math"
	"reflect"
	"testing"

	"exegpt/internal/hw"
	"exegpt/internal/model"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

func openEngine(t *testing.T) *Engine {
	t.Helper()
	m, err := model.ByName("OPT-13B")
	if err != nil {
		t.Fatal(err)
	}
	return engine(t, m, 4, hw.A40Cluster)
}

// pushAll feeds arrivals spaced gap seconds apart and returns the last
// arrival time.
func pushAll(o *OpenRun, reqs []workload.Request, start, gap float64) float64 {
	at := start
	for _, r := range reqs {
		o.Push(r, at)
		at += gap
	}
	return at - gap
}

func TestOpenRRACompletesAll(t *testing.T) {
	e := openEngine(t)
	reqs := requests(t, workload.Summarization, 64, 7)
	cfg := rraConfig(16, 4)
	alloc := rraAlloc(t, e, cfg.TP)

	o, err := e.Open(cfg, alloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := pushAll(o, reqs, 0, 0.05)
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	res := o.Result()
	if res.Stats.Completed != len(reqs) {
		t.Fatalf("completed %d of %d", res.Stats.Completed, len(reqs))
	}
	if !o.Done() {
		t.Fatal("engine not Done after drain")
	}
	if o.Now() < last {
		t.Fatalf("clock %v did not reach last arrival %v", o.Now(), last)
	}
	for _, r := range res.Records {
		if r.End <= r.Start {
			t.Fatalf("record %d: End %v <= Start %v", r.ID, r.End, r.Start)
		}
	}
}

func TestOpenWAACompletesAll(t *testing.T) {
	e := openEngine(t)
	reqs := requests(t, workload.Summarization, 64, 7)
	cfg := sched.Config{Policy: sched.WAAM, BE: 8, BD: 64, Bm: 2, ND: 1, TP: sched.TPSpec{Degree: 1}}
	alloc := waaAlloc(t, e, 1, 3, cfg.TP)

	o, err := e.Open(cfg, alloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	pushAll(o, reqs, 0, 0.05)
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	res := o.Result()
	if res.Stats.Completed != len(reqs) {
		t.Fatalf("completed %d of %d", res.Stats.Completed, len(reqs))
	}
	if !o.Done() {
		t.Fatal("engine not Done after drain")
	}
}

// TestOpenLatencyIncludesQueueing pins that Start is the arrival time:
// a request arriving into a busy system must show more latency than the
// same request hitting an idle one.
func TestOpenLatencyIncludesQueueing(t *testing.T) {
	e := openEngine(t)
	reqs := requests(t, workload.Summarization, 40, 3)
	cfg := rraConfig(8, 4)
	alloc := rraAlloc(t, e, cfg.TP)

	o, err := e.Open(cfg, alloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Everything arrives at t=0: the tail of the queue waits.
	for _, r := range reqs {
		o.Push(r, 0)
	}
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	recs := o.Records()
	if len(recs) != len(reqs) {
		t.Fatalf("completed %d of %d", len(recs), len(reqs))
	}
	for _, r := range recs {
		if r.Start != 0 {
			t.Fatalf("record %d Start = %v, want arrival time 0", r.ID, r.Start)
		}
	}
}

// TestOpenIdleWake pins parking: with a long gap between arrivals the
// engine must quiesce (complete the first request) and then wake for
// the second, rather than spinning or stalling.
func TestOpenIdleWake(t *testing.T) {
	e := openEngine(t)
	reqs := requests(t, workload.Summarization, 2, 11)
	for _, cfg := range []sched.Config{
		rraConfig(4, 2),
		{Policy: sched.WAAM, BE: 2, BD: 16, Bm: 2, ND: 1, TP: sched.TPSpec{Degree: 1}},
	} {
		var alloc sched.Allocation
		if cfg.Policy.IsWAA() {
			alloc = waaAlloc(t, e, 1, 3, cfg.TP)
		} else {
			alloc = rraAlloc(t, e, cfg.TP)
		}
		o, err := e.Open(cfg, alloc, 0)
		if err != nil {
			t.Fatal(err)
		}
		o.Push(reqs[0], 0)
		o.Push(reqs[1], 1000)
		if err := o.RunUntil(999); err != nil {
			t.Fatal(err)
		}
		if got := len(o.Records()); got != 1 {
			t.Fatalf("%v: %d completions before the gap, want 1", cfg.Policy, got)
		}
		if !o.Done() {
			t.Fatalf("%v: engine busy during idle gap (depth %d)", cfg.Policy, o.QueueDepth())
		}
		if err := o.Finish(); err != nil {
			t.Fatal(err)
		}
		if got := len(o.Records()); got != 2 {
			t.Fatalf("%v: %d total completions, want 2", cfg.Policy, got)
		}
		if second := o.Records()[1]; second.Start != 1000 || second.End <= 1000 {
			t.Fatalf("%v: second record %+v not anchored at its arrival", cfg.Policy, second)
		}
	}
}

// TestOpenDrainCarriesBacklog pins the schedule-switch seam: draining
// mid-run finishes admitted work and hands back the queued remainder
// with original arrival times, and a successor engine at a later start
// time finishes the job with queueing latency preserved.
func TestOpenDrainCarriesBacklog(t *testing.T) {
	e := openEngine(t)
	reqs := requests(t, workload.Summarization, 48, 5)
	cfg := rraConfig(4, 4)
	alloc := rraAlloc(t, e, cfg.TP)

	o, err := e.Open(cfg, alloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		o.Push(r, 0)
	}
	if err := o.RunUntil(0.5); err != nil {
		t.Fatal(err)
	}
	leftover, err := o.Drain()
	if err != nil {
		t.Fatal(err)
	}
	done := len(o.Records())
	if done == 0 || len(leftover) == 0 {
		t.Fatalf("drain split %d done / %d leftover; want both non-zero", done, len(leftover))
	}
	if done+len(leftover) != len(reqs) {
		t.Fatalf("done %d + leftover %d != %d", done, len(leftover), len(reqs))
	}
	for _, a := range leftover {
		if a.At != 0 {
			t.Fatalf("leftover arrival time %v, want 0", a.At)
		}
	}

	resume := o.Now() + 2.0 // drain + modeled reconfiguration downtime
	o2, err := e.Open(cfg, alloc, resume)
	if err != nil {
		t.Fatal(err)
	}
	if o2.Now() != resume {
		t.Fatalf("successor clock %v, want %v", o2.Now(), resume)
	}
	for _, a := range leftover {
		o2.Push(a.Req, a.At)
	}
	if err := o2.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := len(o2.Records()); got != len(leftover) {
		t.Fatalf("successor completed %d of %d", got, len(leftover))
	}
	for _, r := range o2.Records() {
		if r.Start != 0 || r.End <= resume {
			t.Fatalf("successor record %+v lost its queueing latency", r)
		}
	}
}

// TestOpenDeterministic pins byte-identical replay: same requests, same
// arrival times, same schedule => identical records.
func TestOpenDeterministic(t *testing.T) {
	e := openEngine(t)
	reqs := requests(t, workload.Summarization, 64, 9)
	for _, cfg := range []sched.Config{
		rraConfig(8, 4),
		{Policy: sched.WAAM, BE: 4, BD: 32, Bm: 2, ND: 1, TP: sched.TPSpec{Degree: 1}},
	} {
		var alloc sched.Allocation
		if cfg.Policy.IsWAA() {
			alloc = waaAlloc(t, e, 1, 3, cfg.TP)
		} else {
			alloc = rraAlloc(t, e, cfg.TP)
		}
		run := func() []QueryRecord {
			o, err := e.Open(cfg, alloc, 0)
			if err != nil {
				t.Fatal(err)
			}
			pushAll(o, reqs, 0, 0.02)
			if err := o.Finish(); err != nil {
				t.Fatal(err)
			}
			return o.Records()
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: records differ across identical runs", cfg.Policy)
		}
	}
}

// TestOpenMatchesBatchThroughput sanity-checks Push against Engine.Run:
// both drive the same OpenRun loop, and with every request arriving at
// t=0 they differ only in wake timing (Push wakes the driver on the
// first arrival, so the first batch sees a one-request mean input
// length; Run enqueues the whole stream first), so throughput should
// land in the same ballpark.
func TestOpenMatchesBatchThroughput(t *testing.T) {
	e := openEngine(t)
	reqs := requests(t, workload.Summarization, 200, 13)
	cfg := rraConfig(16, 4)
	alloc := rraAlloc(t, e, cfg.TP)

	batch, err := e.Run(cfg, alloc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	o, err := e.Open(cfg, alloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		o.Push(r, 0)
	}
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	open := o.Result()
	if open.Stats.Completed != batch.Stats.Completed {
		t.Fatalf("open completed %d, batch %d", open.Stats.Completed, batch.Stats.Completed)
	}
	ratio := open.Stats.Throughput / batch.Stats.Throughput
	if math.IsNaN(ratio) || ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("open tput %.3f vs batch %.3f (ratio %.2f) diverged",
			open.Stats.Throughput, batch.Stats.Throughput, ratio)
	}
}
