package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"

	"exegpt/internal/atomicfile"
	"exegpt/internal/model"
	"exegpt/internal/sched"
	"exegpt/internal/serve"
	"exegpt/internal/workload"
)

// cmdServe runs the online serving loop: open-loop arrivals into the
// incremental runner engine, with adaptive schedule switching.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	newCtx := commonFlags(fs)
	modelName := fs.String("model", "OPT-13B", "model name (Table 1)")
	clusterName := fs.String("cluster", "", "cluster (A40 or A100; default: the model's Table 2 cluster)")
	gpus := fs.Int("gpus", 0, "GPUs to deploy on (default: the model's Table 2 count)")
	taskID := fs.String("task", "S", "task ID (S, T, G, C1, C2, wmt, alpaca, cnn)")
	policySet := fs.String("policies", "all", "policy set: rra, waa, disagg or all")
	arrival := fs.String("arrival", "poisson", "arrival process: poisson, mmpp, diurnal or step")
	rate := fs.Float64("rate", 2, "mean arrival rate in requests/second")
	duration := fs.Float64("duration", 300, "serving duration in virtual seconds (arrivals stop, then the backlog drains)")
	slo := fs.Float64("slo", 0, "per-request latency SLO in seconds (0 = none); bounds the schedule search and counts violations")
	window := fs.Float64("window", 10, "stats/controller window width in seconds")
	switchCost := fs.Float64("switch-cost", 5, "modeled TP re-shard downtime per schedule switch, in virtual seconds")
	driftTol := fs.Float64("drift-tol", 0.25, "relative arrival-rate/length drift that triggers a controller evaluation")
	checkEvery := fs.Int("check-every", 3, "controller period in windows")
	stepAt := fs.Float64("step-at", 0, "step arrivals: time of the rate step in seconds")
	stepFactor := fs.Float64("step-factor", 0, "step arrivals: rate multiplier after the step")
	jsonOut := fs.String("json", "", "also write the JSON report artifact to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkServeFlags(*rate, *duration, *slo, *window, *switchCost, *driftTol, *checkEvery); err != nil {
		return err
	}

	m, err := model.ByName(*modelName)
	if err != nil {
		return err
	}
	dep, err := sched.DeploymentFor(m.Name)
	if err != nil {
		if *clusterName == "" || *gpus == 0 {
			return err
		}
	}
	cluster := dep.Cluster
	if *clusterName != "" {
		if cluster, err = clusterByName(*clusterName); err != nil {
			return err
		}
	}
	nGPUs := dep.GPUs
	if *gpus > 0 {
		nGPUs = *gpus
	}
	task, err := workload.ByID(*taskID)
	if err != nil {
		return err
	}
	groups, err := parsePolicies(*policySet)
	if err != nil {
		return err
	}

	ctx := newCtx()
	d, err := ctx.Deploy(m, cluster, nGPUs, task)
	if err != nil {
		return err
	}

	rep, err := serve.Run(d, serve.Options{
		Arrival:    *arrival,
		Rate:       *rate,
		Duration:   *duration,
		Seed:       ctx.Seed,
		SLO:        *slo,
		Window:     *window,
		SwitchCost: *switchCost,
		DriftTol:   *driftTol,
		CheckEvery: *checkEvery,
		StepAt:     *stepAt,
		StepFactor: *stepFactor,
		Policies:   flattenPolicies(groups),
	})
	if err != nil {
		return err
	}
	fmt.Print(rep.Summary())
	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := atomicfile.Write(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", *jsonOut)
	}
	return nil
}

// checkServeFlags rejects values that serve.Options would otherwise
// misread (NaN, ±Inf, a negative rate, duration or SLO) or silently
// replace with its defaults (a non-positive window, switch cost, drift
// tolerance or controller period).
func checkServeFlags(rate, duration, slo, window, switchCost, driftTol float64, checkEvery int) error {
	for _, f := range []struct {
		name   string
		v      float64
		zeroOK bool
	}{
		{"rate", rate, true},
		{"duration", duration, true},
		{"slo", slo, true},
		{"window", window, false},
		{"switch-cost", switchCost, false},
		{"drift-tol", driftTol, false},
		{"check-every", float64(checkEvery), false},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 || (f.v == 0 && !f.zeroOK) {
			want := "finite and >= 0"
			if !f.zeroOK {
				want = "finite and > 0"
			}
			return fmt.Errorf("serve: -%s must be %s, got %v", f.name, want, f.v)
		}
	}
	return nil
}
