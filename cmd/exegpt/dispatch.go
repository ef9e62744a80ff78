package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"exegpt/internal/dispatch"
	"exegpt/internal/dispatch/httptransport"
	"exegpt/internal/distsweep"
	"exegpt/internal/experiments"
)

// gridFlagSet bundles the grid-selection flags of `sweep`, so
// coordinator and worker processes resolve — and fingerprint — the
// same grid from the same spellings.
type gridFlagSet struct {
	models   *string
	gpus     *string
	tasks    *string
	policies *string
}

func gridFlags(fs *flag.FlagSet) *gridFlagSet {
	return &gridFlagSet{
		models:   fs.String("models", "", "comma-separated model names (default: every Table 2 model)"),
		gpus:     fs.String("gpus", "", "comma-separated cluster sizes overriding Table 2 (e.g. 4,8,16)"),
		tasks:    fs.String("tasks", "", "comma-separated task IDs (default: S,T,G,C1,C2)"),
		policies: fs.String("policies", "all", "policy set: rra, waa, disagg or all"),
	}
}

// build resolves the flags into a sweep grid.
func (g *gridFlagSet) build(ctx *experiments.Context) (experiments.SweepGrid, error) {
	tasks, err := tasksByIDs(*g.tasks)
	if err != nil {
		return experiments.SweepGrid{}, err
	}
	groups, err := parsePolicies(*g.policies)
	if err != nil {
		return experiments.SweepGrid{}, err
	}
	deps, err := sweepDeployments(*g.models, *g.gpus)
	if err != nil {
		return experiments.SweepGrid{}, err
	}
	return experiments.SweepGrid{
		Deployments: deps,
		Tasks:       tasks,
		Policies:    groups,
		Workers:     ctx.Workers,
	}, nil
}

// workerArgs reproduces the context and grid flags for a forked worker
// process, with the scheduler/sweep worker budget overridden.
// Empty-valued flags are omitted rather than passed as "": the two are
// equivalent to the flag parser (empty is every grid flag's default),
// and the ssh launch path joins arguments with spaces, where an empty
// string would vanish and corrupt the remote worker's flag parse.
func (g *gridFlagSet) workerArgs(ctx *experiments.Context, workers int) []string {
	args := []string{"sweep",
		"-seed", strconv.FormatInt(ctx.Seed, 10),
		"-workers", strconv.Itoa(workers),
		"-requests", strconv.Itoa(ctx.Requests),
	}
	for _, f := range []struct{ name, value string }{
		{"-profile-cache", ctx.ProfileCacheDir},
		{"-models", *g.models},
		{"-gpus", *g.gpus},
		{"-tasks", *g.tasks},
		{"-policies", *g.policies},
	} {
		if f.value != "" {
			args = append(args, f.name, f.value)
		}
	}
	if ctx.Quick {
		args = append(args, "-quick")
	}
	return args
}

// dispatchFlagSet maps the dispatch.Options knobs onto flags, shared by
// `sweep -mode dispatch` and `-mode pull` so coordinator and workers
// tune the same struct the same way.
type dispatchFlagSet struct {
	leaseTimeout   *time.Duration
	leaseCells     *int
	cellRetries    *int
	workerFailures *int
	idle           *time.Duration
	retryBase      *time.Duration
	retryMax       *time.Duration
}

func dispatchFlags(fs *flag.FlagSet) *dispatchFlagSet {
	d := dispatch.Defaults()
	return &dispatchFlagSet{
		leaseTimeout: fs.Duration("lease-timeout", d.LeaseTimeout,
			"requeue a worker's cells after this long without a heartbeat or result"),
		leaseCells: fs.Int("lease-cells", d.LeaseCells,
			"max cells per lease (1 = finest stealing granularity)"),
		cellRetries: fs.Int("cell-retries", d.CellRetries,
			"abort the sweep when one cell has been requeued this many times"),
		workerFailures: fs.Int("worker-failures", d.WorkerFailures,
			"exclude a worker from further leases after this many failed leases"),
		idle: fs.Duration("dispatch-idle", d.Idle,
			"abort the sweep when no worker message arrives for this long (0 waits forever)"),
		retryBase: fs.Duration("retry-base", d.RetryBase,
			"worker transport retries: first backoff step (doubles with jitter up to -retry-max)"),
		retryMax: fs.Duration("retry-max", d.RetryMax,
			"worker transport retries: backoff ceiling"),
	}
}

// options collects the parsed flags into a validated dispatch.Options.
func (d *dispatchFlagSet) options() (dispatch.Options, error) {
	o := dispatch.Options{
		LeaseTimeout:   *d.leaseTimeout,
		LeaseCells:     *d.leaseCells,
		CellRetries:    *d.cellRetries,
		WorkerFailures: *d.workerFailures,
		Idle:           *d.idle,
		RetryBase:      *d.retryBase,
		RetryMax:       *d.retryMax,
	}
	if err := o.Validate(); err != nil {
		return dispatch.Options{}, err
	}
	return o, nil
}

// scaleFlagSet carries the supervised-fleet knobs of `sweep -mode
// dispatch`. -scale-max 0 (the default) disables supervision entirely:
// the fleet is the fixed -dispatch-workers set.
type scaleFlagSet struct {
	min        *int
	max        *int
	restartMax *int
}

func scaleFlags(fs *flag.FlagSet) *scaleFlagSet {
	return &scaleFlagSet{
		min: fs.Int("scale-min", 1,
			"supervised dispatch: minimum worker count the supervisor maintains"),
		max: fs.Int("scale-max", 0,
			"supervised dispatch: scale the local worker fleet between -scale-min and this many workers, replacing crashed ones (0 disables the supervisor)"),
		restartMax: fs.Int("restart-max", 3,
			"supervised dispatch: replacements per worker slot before it is declared poisoned and left down"),
	}
}

// params validates and collects the scale flags. seed pins the
// supervisor's restart-backoff jitter.
func (s *scaleFlagSet) params(seed int64) (scaleParams, error) {
	p := scaleParams{min: *s.min, max: *s.max, restartMax: *s.restartMax, seed: seed}
	if p.max == 0 {
		return p, nil
	}
	if p.min < 1 {
		return scaleParams{}, fmt.Errorf("-scale-min %d < 1", p.min)
	}
	if p.max < p.min {
		return scaleParams{}, fmt.Errorf("-scale-max %d < -scale-min %d", p.max, p.min)
	}
	if p.restartMax < 1 {
		return scaleParams{}, fmt.Errorf("-restart-max %d < 1", p.restartMax)
	}
	return p, nil
}

// coordConfig assembles a coordinator Config; a forked fleet attaches
// its StderrTail once it is running.
func coordConfig(fp string, cells int, opts dispatch.Options) dispatch.Config {
	return dispatch.Config{
		Fingerprint: fp,
		Cells:       cells,
		Options:     opts,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
}

// defaultWorkerID derives a spool-safe worker id from host and pid.
func defaultWorkerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", dispatch.SanitizeWorkerID(host), os.Getpid())
}

// httpCoord is a listening HTTP coordinator endpoint: the transport
// plus the server that exposes it.
type httpCoord struct {
	srv *httptransport.Server
	hs  *http.Server
	ln  net.Listener
}

// listenHTTP binds the coordinator's HTTP API on addr (host:port; port
// 0 picks a free one) and starts serving it.
func listenHTTP(addr string) (*httpCoord, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dispatch: listen %s: %w", addr, err)
	}
	srv := httptransport.NewServer()
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return &httpCoord{srv: srv, hs: hs, ln: ln}, nil
}

// localURL is the coordinator URL as reachable from this machine.
func (h *httpCoord) localURL() string {
	addr := h.ln.Addr().(*net.TCPAddr)
	host := addr.IP.String()
	if addr.IP.IsUnspecified() {
		host = "127.0.0.1"
	}
	return fmt.Sprintf("http://%s", net.JoinHostPort(host, strconv.Itoa(addr.Port)))
}

// remoteURL is the coordinator URL as reachable from other hosts; it
// needs the operator to have bound an explicit, routable host.
func (h *httpCoord) remoteURL(flagAddr string) (string, error) {
	host, _, err := net.SplitHostPort(flagAddr)
	if err != nil || host == "" || host == "0.0.0.0" || host == "::" {
		return "", fmt.Errorf("-hosts workers must reach the coordinator: give -http an explicit routable address (e.g. -http $(hostname):8080), not %q", flagAddr)
	}
	port := h.ln.Addr().(*net.TCPAddr).Port
	return fmt.Sprintf("http://%s", net.JoinHostPort(host, strconv.Itoa(port))), nil
}

// run drives the coordinator over the HTTP transport, lingers briefly
// so polling workers observe Stop, then closes the listener.
func (h *httpCoord) run(cfg dispatch.Config) (*distsweep.Merged, error) {
	merged, err := dispatch.Run(h.srv, cfg)
	h.srv.DrainStops(5 * time.Second)
	h.hs.Close()
	return merged, err
}

// runPullWorker is `exegpt sweep -mode pull`: one pull-loop worker
// process evaluating leased cells against a spool directory or an HTTP
// coordinator URL.
func runPullWorker(ctx *experiments.Context, grid experiments.SweepGrid, fp, spoolDir, connectURL, id string, opts dispatch.Options) error {
	if id == "" {
		id = defaultWorkerID()
	}
	var wt dispatch.WorkerTransport
	var via string
	switch {
	case connectURL != "":
		// -dispatch-idle bounds the worker's patience on both paths: how
		// long a send retries an unreachable coordinator (attaching
		// before it is up is fine within this budget) and, below, how
		// long to wait for a lease reply. 0 falls back to the client's
		// own default rather than retrying sends forever.
		c, err := httptransport.Dial(connectURL, id, opts.Idle)
		if err != nil {
			return err
		}
		c.Tune(opts.RetryBase, opts.RetryMax, 0)
		wt, via = c, connectURL
	default:
		sp, err := dispatch.NewSpool(spoolDir)
		if err != nil {
			return err
		}
		swt, err := sp.Worker(id)
		if err != nil {
			return err
		}
		wt, via = swt, spoolDir
	}
	// SIGINT/SIGTERM drain the worker gracefully: it finishes the cell
	// it is evaluating, releases the rest of its lease back to the
	// coordinator, and exits cleanly. A second signal exits immediately.
	drain := make(chan struct{})
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "worker %s: %v: draining (finishing the in-flight cell, releasing the rest; signal again to exit immediately)\n", id, s)
		close(drain)
		s = <-sig
		fmt.Fprintf(os.Stderr, "worker %s: %v: exiting immediately\n", id, s)
		os.Exit(130)
	}()

	w := &dispatch.Worker{
		ID:          id,
		Fingerprint: fp,
		Cells:       len(grid.Cells()),
		Batch:       opts.LeaseCells,
		Idle:        opts.Idle,
		RetryBase:   opts.RetryBase,
		RetryMax:    opts.RetryMax,
		Drain:       drain,
		Eval: func(c int) (experiments.CellResult, error) {
			crs, err := ctx.SweepCells(grid, []int{c})
			if err != nil {
				return experiments.CellResult{}, err
			}
			return crs[0], nil
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	fmt.Fprintf(os.Stderr, "sweep: pull worker %s on %s (%d-cell grid %.12s)\n",
		id, via, w.Cells, fp)
	return w.Run(wt)
}

// runDispatch is `exegpt sweep -mode dispatch`: a work-stealing
// coordinator — over a file spool or, with -http, over the HTTP
// transport — plus its worker fleet: local pull-worker processes by
// default, one ssh-launched worker per -hosts entry, or none with
// -dispatch-workers 0, where the operator attaches `sweep -mode pull`
// workers by hand at any time during the sweep.
func runDispatch(ctx *experiments.Context, grid experiments.SweepGrid, g *gridFlagSet,
	fp, spoolDir, httpAddr, hosts, remoteBin string, workers int, opts dispatch.Options,
	sc scaleParams, journalDir, jsonOut string) error {

	// Open (and replay) the journal before spending anything on
	// transports or workers: a resume that recovered every cell skips
	// the fleet launch entirely.
	cells := len(grid.Cells())
	cfg := coordConfig(fp, cells, opts)
	j, err := openJournal(journalDir, fp, cells, opts, &cfg)
	if err != nil {
		return err
	}
	if j != nil {
		defer j.Close()
	}
	allRecovered := len(cfg.Completed) == cells

	var ct dispatch.Transport
	var hc *httpCoord
	connectURL := "" // non-empty: workers attach over HTTP instead of the spool
	if httpAddr != "" {
		var err error
		if hc, err = listenHTTP(httpAddr); err != nil {
			return err
		}
		if hosts != "" {
			if connectURL, err = hc.remoteURL(httpAddr); err != nil {
				return err
			}
		} else {
			connectURL = hc.localURL()
		}
		if ctx.ProfileCacheDir == "" && hosts == "" {
			// Local fleets without a shared cache still profile each
			// (model, sub-cluster) once between them.
			tmp, err := os.MkdirTemp("", "exegpt-profiles-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			ctx.ProfileCacheDir = tmp
		}
		ct = hc.srv
		fmt.Fprintf(os.Stderr, "sweep: coordinator HTTP API on %s (status: %s/v1/status)\n",
			connectURL, connectURL)
	} else {
		dir := spoolDir
		if dir == "" {
			if hosts != "" {
				return fmt.Errorf("-hosts needs -spool (a directory path shared by this host and every worker host) or -http (a routable coordinator address)")
			}
			tmp, err := os.MkdirTemp("", "exegpt-spool-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		sp, err := dispatch.NewSpool(dir)
		if err != nil {
			return err
		}
		if ctx.ProfileCacheDir == "" {
			// Workers re-profile from scratch without a shared cache; give
			// them one inside the spool so each (model, sub-cluster)
			// profiles once across the fleet.
			ctx.ProfileCacheDir = filepath.Join(dir, "profiles")
		}
		// Take the coordinator side before launching anything: it clears a
		// previous run's stop marker, which a freshly launched worker would
		// otherwise see and obey.
		if ct, err = sp.Coordinator(); err != nil {
			return err
		}
		spoolDir = dir
	}

	// attachArgs is how a worker reaches this coordinator. The
	// coordinator's idle budget doubles as the worker's: a worker that
	// attaches after the run already finished (a journal resume with
	// nothing left) gives up within it instead of retrying for the
	// 10-minute default.
	attachArgs := func(id string) []string {
		args := []string{"-worker-id", id,
			"-lease-cells", strconv.Itoa(opts.LeaseCells),
			"-dispatch-idle", opts.Idle.String(),
			"-retry-base", opts.RetryBase.String(),
			"-retry-max", opts.RetryMax.String()}
		if connectURL != "" {
			return append([]string{"-mode", "pull", "-connect", connectURL}, args...)
		}
		return append([]string{"-mode", "pull", "-spool", spoolDir}, args...)
	}

	intr := installInterrupt(&cfg)
	defer intr.Stop()

	// Launch the fleet. Worker failures are tolerated by design — the
	// coordinator requeues their leases — so spawn errors become
	// warnings unless the coordinator itself fails.
	var fleet *distsweep.Fleet
	var sf *supervisedFleet
	var names []string
	switch {
	case allRecovered:
		// Every cell came back from the journal: the coordinator
		// completes without evaluating anything, so a fleet would only
		// attach to a finished run.
		fmt.Fprintf(os.Stderr, "sweep: journal already covers all %d cells; skipping worker launch\n", cells)
	case hosts != "":
		targets := strings.Split(hosts, ",")
		var argvs [][]string
		for i, h := range targets {
			h = strings.TrimSpace(h)
			if h == "" {
				continue
			}
			id := fmt.Sprintf("host%d-%s", i, dispatch.SanitizeWorkerID(h))
			argv := []string{h, remoteBin}
			argv = append(argv, g.workerArgs(ctx, 0)...)
			argv = append(argv, attachArgs(id)...)
			argvs = append(argvs, argv)
			names = append(names, id)
		}
		if len(argvs) == 0 {
			return fmt.Errorf("-hosts %q names no hosts", hosts)
		}
		fmt.Fprintf(os.Stderr, "sweep: dispatching to %d ssh workers\n", len(argvs))
		if fleet, err = distsweep.StartFleet("ssh", argvs, names); err != nil {
			return err
		}
	case sc.on():
		bin, err := os.Executable()
		if err != nil {
			return err
		}
		// The fleet may grow to scale-max workers on this box: split the
		// worker budget as if it were already there, so scale-ups don't
		// oversubscribe the machine.
		budget := ctx.Workers
		if budget <= 0 {
			budget = runtime.GOMAXPROCS(0)
		}
		perWorker := budget / sc.max
		if perWorker < 1 {
			perWorker = 1
		}
		argv := func(id string) []string {
			return append(g.workerArgs(ctx, perWorker), attachArgs(id)...)
		}
		fmt.Fprintf(os.Stderr, "sweep: supervised fleet of %d..%d local pull workers (restart cap %d)\n",
			sc.min, sc.max, sc.restartMax)
		if sf, err = startSupervisedFleet(&cfg, bin, argv, sc, intr); err != nil {
			return err
		}
	case workers == 0:
		// Coordinator only: the operator attaches pull workers by hand.
		fmt.Fprintf(os.Stderr, "sweep: coordinating %d cells (grid %.12s); attach workers with: exegpt sweep <grid flags> %s\n",
			cells, fp, strings.Join(attachArgs("ID")[:4], " "))
	default:
		bin, err := os.Executable()
		if err != nil {
			return err
		}
		// All pull workers run on this box: split the worker budget
		// across them instead of multiplying the two parallelism levels.
		budget := ctx.Workers
		if budget <= 0 {
			budget = runtime.GOMAXPROCS(0)
		}
		perWorker := budget / workers
		if perWorker < 1 {
			perWorker = 1
		}
		argvs := make([][]string, workers)
		for i := range argvs {
			id := fmt.Sprintf("w%d", i)
			argvs[i] = append(g.workerArgs(ctx, perWorker), attachArgs(id)...)
			names = append(names, id)
		}
		fmt.Fprintf(os.Stderr, "sweep: dispatching to %d local pull workers\n", workers)
		if fleet, err = distsweep.StartFleet(bin, argvs, names); err != nil {
			return err
		}
	}

	if fleet != nil {
		cfg.StderrTail = fleet.StderrTail
	}
	if hc != nil && cfg.Controller != nil {
		// Expose the supervisor's drain hook on the HTTP API, so an
		// operator can POST /v1/drain to retire a worker by hand.
		hc.srv.AttachControl(cfg.Controller)
	}
	var merged *distsweep.Merged
	if hc != nil {
		merged, err = hc.run(cfg)
	} else {
		merged, err = dispatch.Run(ct, cfg)
	}
	// The stop signal is down (every coordinator path finishes the
	// transport), so the fleet drains; surface its exit status.
	var werr error
	if sf != nil {
		werr = sf.Shutdown()
	} else if fleet != nil {
		werr = fleet.Wait()
	}
	if err != nil {
		resumeHint(err, journalDir)
		return err
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "sweep: note: worker failures tolerated by work stealing: %v\n", werr)
	}
	return printMerged(merged, grid, jsonOut)
}
