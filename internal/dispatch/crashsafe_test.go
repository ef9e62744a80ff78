package dispatch_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"exegpt/internal/atomicfile"
	"exegpt/internal/dispatch"
	"exegpt/internal/dispatch/chaostest"
	"exegpt/internal/dispatch/journal"
	"exegpt/internal/distsweep"
	"exegpt/internal/experiments"
	"exegpt/internal/hw"
	"exegpt/internal/model"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// fakeCell and fakeFold mirror the fixtures the in-package tests use;
// this file lives outside the package so it can exercise the journal
// and chaos packages (which import dispatch) without a cycle.
func fakeCell(idx int) experiments.CellResult {
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

func fakeFold(t *testing.T, fp string, n int) []byte {
	t.Helper()
	envs := make([]*distsweep.CellEnvelope, n)
	for i := 0; i < n; i++ {
		envs[i] = distsweep.NewCellEnvelope(fp, n, fakeCell(i))
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

func crashConfig(fp string, n int) dispatch.Config {
	return dispatch.Config{
		Fingerprint: fp,
		Cells:       n,
		Options: dispatch.Options{
			LeaseTimeout: 250 * time.Millisecond,
			Idle:         20 * time.Second,
		},
	}
}

type coordResult struct {
	m   *distsweep.Merged
	err error
}

func runCoord(ct dispatch.Transport, cfg dispatch.Config) chan coordResult {
	out := make(chan coordResult, 1)
	go func() {
		m, err := dispatch.Run(ct, cfg)
		out <- coordResult{m, err}
	}()
	return out
}

// TestJournalResumeRealGridByteIdentical extends the acceptance pin
// across a coordinator death: real sweep cells, a crash injected at the
// exact append/ack kill-point, and a journal-replayed restart must
// still merge byte-identical to the uninterrupted single-process sweep
// — the journal's JSON round trip of real float-heavy results included.
func TestJournalResumeRealGridByteIdentical(t *testing.T) {
	grid := experiments.SweepGrid{
		Deployments: []sched.Deployment{
			{Model: model.OPT13B, Cluster: hw.A40Cluster, GPUs: 4},
		},
		Tasks: []workload.Task{workload.Summarization, workload.Translation, workload.CodeGeneration},
	}
	cacheDir := t.TempDir()
	newCtx := func() *experiments.Context {
		c := experiments.NewQuickContext()
		c.ProfileCacheDir = cacheDir
		return c
	}
	ctx := newCtx()
	fp, err := ctx.GridFingerprint(grid)
	if err != nil {
		t.Fatal(err)
	}
	total := len(grid.Cells())

	cells, err := ctx.SweepCells(grid, grid.CellIndices())
	if err != nil {
		t.Fatal(err)
	}
	want, err := distsweep.Merge([]*distsweep.Envelope{distsweep.NewEnvelope(fp, 1, 0, cells)})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WriteHeader(journal.Header{Fingerprint: fp, Cells: total}); err != nil {
		t.Fatal(err)
	}

	startRealWorker := func(hub *dispatch.Hub, id string) {
		wctx := newCtx()
		w := &dispatch.Worker{
			ID: id, Fingerprint: fp, Cells: total,
			Heartbeat: 50 * time.Millisecond,
			Poll:      10 * time.Millisecond,
			Idle:      30 * time.Second,
			Eval: func(c int) (experiments.CellResult, error) {
				crs, err := wctx.SweepCells(grid, []int{c})
				if err != nil {
					return experiments.CellResult{}, err
				}
				return crs[0], nil
			},
		}
		go w.Run(hub.Worker(id))
	}

	// Phase 1: crash at the second accepted result, after its record is
	// durable but before it is acknowledged.
	hub1 := dispatch.NewHub()
	cfg1 := crashConfig(fp, total)
	cfg1.Journal = &chaostest.CrashJournal{Inner: j, Appends: 1}
	res1 := runCoord(hub1, cfg1)
	startRealWorker(hub1, "w1")
	if r := <-res1; !errors.Is(r.err, chaostest.ErrCrash) {
		t.Fatalf("phase 1 ended with %v, want the injected crash", r.err)
	}
	j.Close()

	// Phase 2: replay and finish on a fresh hub.
	j2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := len(j2.Cells()); got != 2 {
		t.Fatalf("journal recovered %d cells, want 2", got)
	}
	hub2 := dispatch.NewHub()
	cfg2 := crashConfig(fp, total)
	cfg2.Journal = j2
	cfg2.Completed = j2.Cells()
	res2 := runCoord(hub2, cfg2)
	startRealWorker(hub2, "w2")
	r := <-res2
	if r.err != nil {
		t.Fatal(r.err)
	}
	gotBytes, err := r.m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatal("journal-resumed merge not byte-identical to single-process sweep")
	}
}

// TestInterruptDrainsInFlightThenResumes pins the graceful-degradation
// contract: when Interrupt fires mid-evaluation, the in-flight result
// is still accepted and journaled, the worker's next request gets Stop,
// Run returns ErrInterrupted — and a resumed run completes the grid
// byte-identically.
func TestInterruptDrainsInFlightThenResumes(t *testing.T) {
	const fp, n = "fp-interrupt", 4
	dir := t.TempDir()
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WriteHeader(journal.Header{Fingerprint: fp, Cells: n}); err != nil {
		t.Fatal(err)
	}

	interrupt := make(chan struct{})
	hub := dispatch.NewHub()
	cfg := crashConfig(fp, n)
	cfg.Journal = j
	cfg.Interrupt = interrupt
	res := runCoord(hub, cfg)

	evalStarted := make(chan int, n)
	release := make(chan struct{})
	w := &dispatch.Worker{
		ID: "w1", Fingerprint: fp, Cells: n,
		Heartbeat: 50 * time.Millisecond,
		Poll:      10 * time.Millisecond,
		Idle:      20 * time.Second,
		Eval: func(c int) (experiments.CellResult, error) {
			evalStarted <- c
			<-release
			return fakeCell(c), nil
		},
	}
	wDone := make(chan error, 1)
	go func() { wDone <- w.Run(hub.Worker("w1")) }()

	// Interrupt lands strictly before the in-flight evaluation returns.
	inFlight := <-evalStarted
	close(interrupt)
	close(release)

	r := <-res
	if !errors.Is(r.err, dispatch.ErrInterrupted) {
		t.Fatalf("interrupted run ended with %v, want ErrInterrupted", r.err)
	}
	select {
	case werr := <-wDone:
		if werr != nil {
			t.Fatalf("worker exited with %v after drain Stop", werr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never observed Stop from the draining coordinator")
	}
	j.Close()

	// The drained result is durable; the resumed run finishes the rest.
	j2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	found := false
	for _, env := range j2.Cells() {
		if env.Result.Cell == inFlight {
			found = true
		}
	}
	if !found {
		t.Fatalf("in-flight cell %d not journaled during the drain", inFlight)
	}

	hub2 := dispatch.NewHub()
	cfg2 := crashConfig(fp, n)
	cfg2.Journal = j2
	cfg2.Completed = j2.Cells()
	res2 := runCoord(hub2, cfg2)
	w2 := &dispatch.Worker{
		ID: "w2", Fingerprint: fp, Cells: n,
		Heartbeat: 50 * time.Millisecond,
		Poll:      10 * time.Millisecond,
		Idle:      20 * time.Second,
		Eval:      func(c int) (experiments.CellResult, error) { return fakeCell(c), nil },
	}
	go w2.Run(hub2.Worker("w2"))
	r2 := <-res2
	if r2.err != nil {
		t.Fatal(r2.err)
	}
	got, err := r2.m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fakeFold(t, fp, n)) {
		t.Fatal("interrupt-resumed merge not byte-identical to the direct fold")
	}
}

// TestSpoolWorkerToleratesTornLease pins the retry posture: a torn
// (half-copied) lease file must be re-polled, not treated as fatal —
// a non-atomic synchronizer completes it in place moments later.
func TestSpoolWorkerToleratesTornLease(t *testing.T) {
	spool, err := dispatch.NewSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wt, err := spool.Worker("w1")
	if err != nil {
		t.Fatal(err)
	}
	whole, err := dispatch.EncodeLease(&dispatch.Lease{
		Version: dispatch.WireVersion, Worker: "w1", Seq: 1,
		Cells: []int{2, 3}, TimeoutMS: 60000,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(spool.Root(), "leases", "lease_w1_1.json")
	if err := os.WriteFile(path, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(100 * time.Millisecond)
		atomicfile.Write(path, whole, 0o644)
	}()
	l, err := wt.RecvLease(1, 5*time.Second)
	if err != nil {
		t.Fatalf("torn lease treated as fatal: %v", err)
	}
	if l == nil || len(l.Cells) != 2 || l.Cells[0] != 2 {
		t.Fatalf("lease after completion: %+v", l)
	}
}

// TestSpoolWorkerTornLeaseTimesOutQuietly: a lease file that never
// becomes whole is a timeout (the worker re-requests), not an error.
func TestSpoolWorkerTornLeaseTimesOutQuietly(t *testing.T) {
	spool, err := dispatch.NewSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wt, err := spool.Worker("w1")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(spool.Root(), "leases", "lease_w1_1.json")
	if err := os.WriteFile(path, []byte(`{"version":1,"wor`), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := wt.RecvLease(1, 300*time.Millisecond)
	if err != nil {
		t.Fatalf("permanently torn lease escalated to an error: %v", err)
	}
	if l != nil {
		t.Fatalf("torn lease decoded to %+v", l)
	}
}

// TestSpoolWorkerRejectsForeignWireVersion: a whole frame from another
// build must still fail loudly — mixed-version fleets are a
// configuration error, not a transient.
func TestSpoolWorkerRejectsForeignWireVersion(t *testing.T) {
	spool, err := dispatch.NewSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wt, err := spool.Worker("w1")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(spool.Root(), "leases", "lease_w1_1.json")
	foreign := []byte(`{"version":99,"worker":"w1","seq":1,"cells":[0]}` + "\n")
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := wt.RecvLease(1, 5*time.Second); !errors.Is(err, dispatch.ErrWireVersion) {
		t.Fatalf("foreign wire version: got %v, want ErrWireVersion", err)
	}
}
