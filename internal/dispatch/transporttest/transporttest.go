// Package transporttest is the conformance suite every dispatch
// transport must pass: the same lease-grant, expiry-requeue,
// duplicate-result, stop-propagation and corruption-tolerance scenarios
// run against the in-process hub, the file spool, and the HTTP
// transport, each pinned to the byte-identical fold the single-process
// sweep produces. A new transport earns its place by calling Run with a
// Harness factory; protocol drift then fails here, named by scenario,
// instead of as a flaky distributed sweep.
package transporttest

import (
	"bytes"
	"testing"
	"time"

	"exegpt/internal/dispatch"
	"exegpt/internal/distsweep"
	"exegpt/internal/experiments"
)

// Harness is one transport instance under test: a coordinator side and
// a way to attach named workers to it.
type Harness struct {
	// Coordinator is the transport's coordinator side, ready for
	// dispatch.Run.
	Coordinator dispatch.Transport
	// Worker attaches the named worker to the same transport instance.
	Worker func(t *testing.T, id string) dispatch.WorkerTransport
	// Corrupt, when non-nil, injects one corrupted frame into the
	// worker → coordinator path — a torn spool file, a truncated POST
	// body — and reports any injection failure. The coordinator must
	// reject or discard the frame and carry on. Leave nil for
	// transports that pass typed values and cannot tear a frame (the
	// in-process hub); the corruption scenario is then skipped.
	Corrupt func() error
	// Tune, when non-nil, adjusts the coordinator options every
	// scenario runs with. Chaos-wrapped harnesses raise the retry and
	// failure budgets so injected faults exercise the requeue/dedup
	// recovery paths instead of tripping the abort paths tested
	// elsewhere.
	Tune func(o *dispatch.Options)
}

// config returns the harness's coordinator settings for one scenario.
func (h *Harness) config(fp string, n int) dispatch.Config {
	cfg := config(fp, n)
	if h.Tune != nil {
		h.Tune(&cfg.Options)
	}
	return cfg
}

// Run executes the conformance scenarios, building a fresh harness (a
// fresh coordinator) for each.
func Run(t *testing.T, factory func(t *testing.T) *Harness) {
	t.Run("GrantAndResult", func(t *testing.T) { testGrantAndResult(t, factory(t)) })
	t.Run("ExpiredLeaseRequeues", func(t *testing.T) { testExpiredLeaseRequeues(t, factory(t)) })
	t.Run("DuplicateResults", func(t *testing.T) { testDuplicateResults(t, factory(t)) })
	t.Run("StopPropagation", func(t *testing.T) { testStopPropagation(t, factory(t)) })
	t.Run("CorruptFrame", func(t *testing.T) { testCorruptFrame(t, factory(t)) })
}

// fakeCellResult builds a synthetic cell result that is a function of
// the cell index, so coverage or ordering mistakes show up as value
// mismatches after the fold.
func fakeCellResult(idx int) experiments.CellResult {
	return experiments.CellResult{
		Cell: idx,
		Rows: []experiments.SweepRow{{
			Model: "OPT-13B", Cluster: "A40", GPUs: 4, Task: "S",
			Bound: 5.0 + float64(idx), System: "FT",
			Tput: 1.5 * float64(idx+1), Feasible: true,
		}},
		Evals: 10 * (idx + 1),
	}
}

// reference folds the full fake grid directly — what any dispatch run
// over the same cells must reproduce byte-identically.
func reference(t *testing.T, fp string, n int) []byte {
	t.Helper()
	envs := make([]*distsweep.CellEnvelope, n)
	for i := 0; i < n; i++ {
		envs[i] = distsweep.NewCellEnvelope(fp, n, fakeCellResult(i))
	}
	m, err := distsweep.MergeCells(envs)
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// config returns fast-twitch coordinator settings for the scenarios.
func config(fp string, n int) dispatch.Config {
	return dispatch.Config{
		Fingerprint: fp,
		Cells:       n,
		Options: dispatch.Options{
			LeaseTimeout: 250 * time.Millisecond,
			Idle:         20 * time.Second, // fail fast instead of hanging the test
		},
	}
}

// pullWorker returns a fake-eval pull worker tuned for the scenarios.
func pullWorker(id, fp string, n int) *dispatch.Worker {
	return &dispatch.Worker{
		ID: id, Fingerprint: fp, Cells: n,
		Heartbeat: 30 * time.Millisecond,
		Poll:      10 * time.Millisecond,
		Idle:      20 * time.Second,
		Eval:      func(c int) (experiments.CellResult, error) { return fakeCellResult(c), nil },
	}
}

type runResult struct {
	m   *distsweep.Merged
	err error
}

// bgWorker is a worker loop running in its own goroutine.
type bgWorker struct {
	done chan struct{} // closed when the loop returns
	err  error         // the loop's exit error; read after done closes
}

// goWorker starts run in a goroutine and joins it when the scenario
// ends, failing the test on a worker error. The join is a t.Cleanup
// registered after the harness was built, so it runs before the
// harness's own cleanup (a spool's t.TempDir removal, an HTTP server's
// Close): no worker still polls or writes the transport by then, even
// when the scenario fails early.
func goWorker(t *testing.T, run func() error) *bgWorker {
	w := &bgWorker{done: make(chan struct{})}
	go func() {
		defer close(w.done)
		w.err = run()
	}()
	t.Cleanup(func() {
		<-w.done
		if w.err != nil {
			t.Errorf("worker exited with error: %v", w.err)
		}
	})
	return w
}

// startCoord runs the coordinator in a goroutine.
func startCoord(ct dispatch.Transport, cfg dispatch.Config) chan runResult {
	out := make(chan runResult, 1)
	go func() {
		m, err := dispatch.Run(ct, cfg)
		out <- runResult{m, err}
	}()
	return out
}

// takeLease drives one request → lease round by hand, re-sending the
// request after a second of silence as a real pull worker would — the
// request or its reply may be dropped by a chaos-wrapped transport.
func takeLease(t *testing.T, wt dispatch.WorkerTransport, id string, seq, max int) *dispatch.Lease {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := wt.Send(&dispatch.Msg{Version: dispatch.WireVersion, Type: dispatch.MsgRequest,
			Worker: id, Seq: seq, Max: max}); err != nil {
			t.Fatal(err)
		}
		for end := time.Now().Add(time.Second); time.Now().Before(end); {
			l, err := wt.RecvLease(seq, 50*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if l != nil {
				return l
			}
		}
	}
	t.Fatal("no lease within 10s")
	return nil
}

// requireIdentical pins a successful run to the reference fold.
func requireIdentical(t *testing.T, r runResult, fp string, n int) {
	t.Helper()
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.m.Cells != n {
		t.Fatalf("covered %d cells, want %d", r.m.Cells, n)
	}
	got, err := r.m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, reference(t, fp, n)) {
		t.Fatal("dispatched merge not byte-identical to the direct fold")
	}
}

// testGrantAndResult: two honest pull workers drain the grid; the fold
// is byte-identical to the direct one.
func testGrantAndResult(t *testing.T, h *Harness) {
	const fp, n = "fp-tt-grant", 6
	res := startCoord(h.Coordinator, h.config(fp, n))
	for _, id := range []string{"w1", "w2"} {
		w, wt := pullWorker(id, fp, n), h.Worker(t, id)
		goWorker(t, func() error { return w.Run(wt) })
	}
	requireIdentical(t, <-res, fp, n)
}

// testExpiredLeaseRequeues: a worker takes a lease and vanishes — no
// results, no heartbeats. Its cells must requeue after the deadline and
// a late-attaching survivor must finish the grid exactly once.
func testExpiredLeaseRequeues(t *testing.T, h *Harness) {
	const fp, n = "fp-tt-expiry", 5
	res := startCoord(h.Coordinator, h.config(fp, n))

	dead := h.Worker(t, "deadbeat")
	l := takeLease(t, dead, "deadbeat", 1, 2)
	if len(l.Cells) == 0 {
		t.Fatal("dead worker got no cells to abandon")
	}
	// Abandon the lease; only now attach the survivor.
	w, wt := pullWorker("survivor", fp, n), h.Worker(t, "survivor")
	goWorker(t, func() error { return w.Run(wt) })
	requireIdentical(t, <-res, fp, n)
}

// testDuplicateResults: a worker that delivers every result twice (a
// retried sync, a stolen-then-completed lease) must not break
// exactly-once coverage — the first copy wins.
func testDuplicateResults(t *testing.T, h *Harness) {
	const fp, n = "fp-tt-dup", 4
	res := startCoord(h.Coordinator, h.config(fp, n))

	wt := h.Worker(t, "dup")
	goWorker(t, func() error {
		for seq := 1; ; seq++ {
			// Re-send the request after a second of silence: a chaos
			// wrapper may have dropped it or its reply.
			var l *dispatch.Lease
			for l == nil {
				wt.Send(&dispatch.Msg{Version: dispatch.WireVersion, Type: dispatch.MsgRequest,
					Worker: "dup", Seq: seq, Max: 1})
				for tries := 0; l == nil && tries < 20; tries++ {
					l, _ = wt.RecvLease(seq, 50*time.Millisecond)
				}
			}
			if l.Stop {
				return nil
			}
			for _, c := range l.Cells {
				env := distsweep.NewCellEnvelope(fp, n, fakeCellResult(c))
				for i := 0; i < 2; i++ { // every result sent twice
					wt.Send(&dispatch.Msg{Version: dispatch.WireVersion, Type: dispatch.MsgResult,
						Worker: "dup", Result: env})
				}
			}
			if len(l.Cells) == 0 {
				time.Sleep(10 * time.Millisecond)
			}
		}
	})
	requireIdentical(t, <-res, fp, n)
}

// testStopPropagation: workers in their pull loop must observe Stop and
// exit once the run completes, and a worker attaching *after* the run
// finished must be told to stop rather than wait forever.
func testStopPropagation(t *testing.T, h *Harness) {
	const fp, n = "fp-tt-stop", 3
	res := startCoord(h.Coordinator, h.config(fp, n))

	w, wt := pullWorker("w1", fp, n), h.Worker(t, "w1")
	bg := goWorker(t, func() error { return w.Run(wt) })

	requireIdentical(t, <-res, fp, n)
	select {
	case <-bg.done:
		if bg.err != nil {
			t.Fatalf("worker exited with error: %v", bg.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never observed Stop after the run completed")
	}

	// A straggler attaching post-completion gets a Stop lease, not a hang.
	late := h.Worker(t, "late")
	late.Send(&dispatch.Msg{Version: dispatch.WireVersion, Type: dispatch.MsgRequest,
		Worker: "late", Seq: 1, Max: 1})
	deadline := time.Now().Add(10 * time.Second)
	for {
		l, err := late.RecvLease(1, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if l != nil {
			if !l.Stop {
				t.Fatalf("late worker got a live lease %v after completion, want Stop", l.Cells)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("late worker never received Stop")
		}
	}
}

// testCorruptFrame: one torn/truncated frame on the worker →
// coordinator path must be rejected or discarded without derailing the
// run — an honest worker still drains the grid byte-identically.
func testCorruptFrame(t *testing.T, h *Harness) {
	if h.Corrupt == nil {
		t.Skip("transport passes typed values; frames cannot tear")
	}
	const fp, n = "fp-tt-torn", 4
	res := startCoord(h.Coordinator, h.config(fp, n))

	if err := h.Corrupt(); err != nil {
		t.Fatalf("corrupt frame injection: %v", err)
	}
	w, wt := pullWorker("honest", fp, n), h.Worker(t, "honest")
	goWorker(t, func() error { return w.Run(wt) })
	requireIdentical(t, <-res, fp, n)
}
