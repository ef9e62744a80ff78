package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"exegpt/internal/distsweep"
	"exegpt/internal/experiments"
	"exegpt/internal/sched"
)

// sweepFlagSet is every flag `exegpt sweep` reads.
type sweepFlagSet struct {
	newCtx          func() *experiments.Context
	grid            *gridFlagSet
	dispatch        *dispatchFlagSet
	scale           *scaleFlagSet
	mode            *string
	jsonOut         *string
	dispatchWorkers *int
	hosts           *string
	remoteBin       *string
	spool           *string
	http            *string
	connect         *string
	workerID        *string
	journal         *string
}

func sweepFlags(fs *flag.FlagSet) *sweepFlagSet {
	return &sweepFlagSet{
		newCtx:          commonFlags(fs),
		grid:            gridFlags(fs),
		mode:            fs.String("mode", string(modeSingle), "distribution mode: single, dispatch or pull"),
		jsonOut:         fs.String("json", "", "write the merged sweep (rows, evals, frontiers) as JSON to this file"),
		dispatchWorkers: fs.Int("dispatch-workers", 2, "dispatch mode (no -hosts): how many local pull workers to fork (0: none, workers attach by hand via -spool or -http)"),
		hosts:           fs.String("hosts", "", "dispatch mode: comma-separated ssh hosts to launch one pull worker on each (needs a shared -spool path or a routable -http address)"),
		remoteBin:       fs.String("remote-bin", "exegpt", "with -hosts: the exegpt binary path on the remote hosts"),
		spool:           fs.String("spool", "", "file-spool directory for dispatch/pull modes (default in dispatch mode: a temp dir, removed after the merge)"),
		http:            fs.String("http", "", "dispatch mode: serve the coordinator's HTTP API on this host:port instead of a file spool"),
		connect:         fs.String("connect", "", "pull mode: attach to the coordinator's HTTP API at this URL (e.g. http://gpu1:8080)"),
		workerID:        fs.String("worker-id", "", "pull mode: this worker's name in leases and logs (default: host-pid)"),
		journal:         fs.String("journal", "", "dispatch mode: journal every accepted result in this directory; rerunning with the same directory resumes an interrupted sweep"),
		dispatch:        dispatchFlags(fs),
		scale:           scaleFlags(fs),
	}
}

// cmdSweep grid-evaluates deployments x tasks, parallel across
// deployments — and, across processes, in one of three modes selected
// with -mode:
//
//	-mode single (default)                one process, print the table
//	-mode dispatch                        work-stealing coordinator: fork
//	                                      -dispatch-workers local pull
//	                                      workers (file spool, or HTTP
//	                                      with -http ADDR)
//	-mode dispatch -hosts a,b -spool DIR|-http HOST:PORT
//	                                      same, one ssh worker per host
//	-mode dispatch -dispatch-workers 0 -spool DIR|-http HOST:PORT
//	                                      coordinator only: operators
//	                                      attach pull workers by hand
//	-mode pull     -spool DIR | -connect URL
//	                                      pull worker: lease cells from
//	                                      the coordinator until it says
//	                                      Stop; attachable at any time
//
// Workers sharing a -profile-cache directory profile each (model,
// sub-cluster) once between them. Every multi-process mode produces
// output bit-identical to the single-process sweep (see
// internal/distsweep and internal/dispatch).
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	f := sweepFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx := f.newCtx()
	grid, err := f.grid.build(ctx)
	if err != nil {
		return err
	}
	fp, err := ctx.GridFingerprint(grid)
	if err != nil {
		return err
	}
	opts, err := f.dispatch.options()
	if err != nil {
		return err
	}
	sc, err := f.scale.params(ctx.Seed)
	if err != nil {
		return err
	}
	m, err := resolveSweepMode(*f.mode)
	if err != nil {
		return err
	}
	if err := validateSweepMode(m, sweepModeFlags{
		hosts: *f.hosts, spool: *f.spool, http: *f.http, connect: *f.connect,
		workerID: *f.workerID, journal: *f.journal, json: *f.jsonOut, scaleMax: sc.max,
		workers: *f.dispatchWorkers,
	}); err != nil {
		return err
	}

	switch m {
	case modePull:
		return runPullWorker(ctx, grid, fp, *f.spool, *f.connect, *f.workerID, opts)
	case modeDispatch:
		return runDispatch(ctx, grid, f.grid, fp, *f.spool, *f.http, *f.hosts, *f.remoteBin,
			*f.dispatchWorkers, opts, sc, *f.journal, *f.jsonOut)
	}
	cells, err := ctx.SweepCells(grid, grid.CellIndices())
	if err != nil {
		return err
	}
	// Route the single-process result through the same fold the
	// dispatched run uses, so the two artifacts are byte-identical by
	// construction.
	merged, err := distsweep.Merge([]*distsweep.Envelope{distsweep.NewEnvelope(fp, 1, 0, cells)})
	if err != nil {
		return err
	}
	return printMerged(merged, grid, *f.jsonOut)
}

// printMerged prints the sweep header + table and optionally writes the
// merged JSON artifact.
func printMerged(m *distsweep.Merged, grid experiments.SweepGrid, jsonOut string) error {
	fmt.Printf("sweep: %d cells (%d deployments), %d schedule evals, grid %.12s\n",
		m.Cells, len(grid.Deployments), m.Evals, m.Fingerprint)
	fmt.Print(experiments.FormatSweep(m.Rows))
	if jsonOut != "" {
		if err := m.WriteFile(jsonOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sweep: merged JSON -> %s\n", jsonOut)
	}
	return nil
}

// sweepDeployments builds the deployment grid: each model on its
// Table 2 cluster, at its Table 2 GPU count or at every size in -gpus.
func sweepDeployments(modelList, gpuList string) ([]sched.Deployment, error) {
	models, err := modelsByNames(modelList)
	if err != nil {
		return nil, err
	}
	var sizes []int
	if gpuList != "" {
		for _, s := range strings.Split(gpuList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad -gpus entry %q", s)
			}
			sizes = append(sizes, n)
		}
	}
	var deps []sched.Deployment
	for _, m := range models {
		dep, err := sched.DeploymentFor(m.Name)
		if err != nil {
			return nil, err
		}
		if len(sizes) == 0 {
			deps = append(deps, dep)
			continue
		}
		for _, n := range sizes {
			if n > dep.Cluster.TotalGPUs() {
				continue // grid point exceeds the cluster; skip, not fail
			}
			d := dep
			d.GPUs = n
			deps = append(deps, d)
		}
	}
	if len(deps) == 0 {
		return nil, fmt.Errorf("no deployments selected (every -gpus size exceeds its cluster?)")
	}
	return deps, nil
}
