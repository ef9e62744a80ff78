package main

import (
	"fmt"
	"sync"
	"time"
)

// The benchmark runs on a share of a host whose speed drifts: one
// serve.Run on fixed inputs read 2.2 s and, half a minute later, 4.0 s,
// and slow spells last from seconds to minutes, longer than a run. So
// every timing the benchmark gates on is taken next to a fixed
// reference workload and reported at the reference's nominal speed:
// median wall seconds × refNominalS ÷ the reference's median wall
// seconds over the same minutes. The reference is the benchmark's own
// code, so a change to the program under test leaves it unchanged; it
// tracks about half of the drift (NOTES.md, "Timings against a
// reference workload").

// refNominalS is the reference's median time on the baseline machine
// (2-vCPU Intel Xeon virtual machine, Go 1.24), the speed every
// normalized timing is reported at.
const refNominalS = 0.15

const (
	refALUIters = 40_000_000
	refMapLen   = 512
	refMapPass  = 5000
)

// refWorker is one goroutine's share of the reference. After
// newRefWorker it allocates nothing, so it neither sees nor disturbs
// the program's heap.
type refWorker struct {
	m    map[int]int64
	aluS float64 // the register loop's share of the last run
	sink uint64
}

func newRefWorker() *refWorker {
	w := &refWorker{m: make(map[int]int64, refMapLen)}
	for i := range refMapLen {
		w.m[i*7919] = int64(i)
	}
	return w
}

// run does the reference work once: a dependent register-only loop,
// which slows when the core is shared, and passes over a 512-entry map
// that sum every value and bump an eighth of them, the shape of the
// program's KV bookkeeping (a live-token sum over the running batch),
// which also slows when caches and branch predictors are.
func (w *refWorker) run() {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < refALUIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	w.aluS = time.Since(t0).Seconds()
	var t int64
	for r := range refMapPass {
		for _, n := range w.m {
			t += n
		}
		for i := range refMapLen / 8 {
			w.m[((r*refMapLen/8+i)%refMapLen)*7919]++
		}
	}
	w.sink += x + uint64(t)
}

// refMeter times the reference on a fixed number of goroutines at once,
// as many as the measured phase keeps busy.
type refMeter struct {
	workers []*refWorker
}

func newRefMeter(par int) *refMeter {
	m := &refMeter{}
	for range max(1, par) {
		m.workers = append(m.workers, newRefWorker())
	}
	m.time() // warm up
	return m
}

// time runs the reference once on every worker and returns the wall
// seconds until all are done.
func (m *refMeter) time() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, w := range m.workers[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run()
		}()
	}
	m.workers[0].run()
	wg.Wait()
	return time.Since(t0).Seconds()
}

// normTimer times repetitions next to the reference: mark runs the
// reference between repetitions, so both sample the same minutes of
// the machine.
type normTimer struct {
	meter *refMeter
	refs  []float64 // reference wall seconds, one before each repetition and one after the last
	reps  []float64 // repetition wall seconds
	alus  []float64 // the register loop's part of each reference timing
}

// mark times the reference; call it right before each repetition and
// once after the last.
func (n *normTimer) mark() {
	n.refs = append(n.refs, n.meter.time())
	n.alus = append(n.alus, n.meter.workers[0].aluS)
}

// add records one repetition's wall seconds.
func (n *normTimer) add(s float64) { n.reps = append(n.reps, s) }

// report prints the raw timings and returns the median repetition at
// the reference's nominal speed: median(reps) × refNominalS ÷
// median(refs).
func (n *normTimer) report(label string) float64 {
	norm := median(n.reps) * refNominalS / median(n.refs)
	fmt.Printf("%s: wall s %.4v, reference s %.4v\n", label, n.reps, n.refs)
	fmt.Printf("%s: wall median %.4g s, reference median %.4g s (nominal %g s), normalized %.4g s\n",
		label, median(n.reps), median(n.refs), refNominalS, norm)
	fmt.Printf("%s: reference register loop median %.4g s\n", label, median(n.alus))
	return norm
}
