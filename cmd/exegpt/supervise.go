package main

// Supervised-fleet plumbing for `exegpt sweep -mode dispatch`: with
// -scale-max set, the coordinator's worker fleet is managed by a
// supervisor reconciliation loop (internal/dispatch/supervisor)
// instead of being a fixed set — crashed or excluded workers are replaced with capped backoff, the
// fleet scales between -scale-min and -scale-max from queue depth, and
// scale-downs drain gracefully through the coordinator.

import (
	"fmt"
	"os"
	"time"

	"exegpt/internal/dispatch"
	"exegpt/internal/dispatch/supervisor"
	"exegpt/internal/distsweep"
)

// scaleParams are the validated scale flags; max == 0 means
// supervision is off.
type scaleParams struct {
	min, max, restartMax int
	seed                 int64
}

func (p scaleParams) on() bool { return p.max > 0 }

// fleetOps adapts distsweep.Fleet to the supervisor's Ops interface,
// building each incarnation's argv at spawn time (worker ids are baked
// into the argument vector).
type fleetOps struct {
	fleet *distsweep.Fleet
	argv  func(id string) []string
}

func (o fleetOps) Spawn(id string) error          { return o.fleet.Start(id, o.argv(id)) }
func (o fleetOps) Exited(id string) (bool, error) { return o.fleet.Exited(id) }
func (o fleetOps) Kill(id string) error           { return o.fleet.Kill(id) }

// supervisedFleet is a running supervisor plus the process fleet it
// manages.
type supervisedFleet struct {
	fleet *distsweep.Fleet
	stop  chan struct{}
	done  chan struct{}
	err   error // supervisor's fatal error, if any; set before done closes
}

// startSupervisedFleet wires a Controller into cfg (the supervisor's
// window onto coordinator state and its drain/restart channel back
// in), then starts the reconciliation loop. No worker exists yet when
// this returns — the first tick spawns -scale-min of them via argv. A
// fatal supervisor error (every slot poisoned) drains the coordinator
// through intr so the run fails fast instead of idling.
func startSupervisedFleet(cfg *dispatch.Config, bin string, argv func(id string) []string,
	sc scaleParams, intr *interrupter) (*supervisedFleet, error) {

	ctrl := dispatch.NewController()
	cfg.Controller = ctrl
	fleet := distsweep.NewFleet(bin)
	sup, err := supervisor.New(supervisor.Config{
		Control:     ctrl,
		Fleet:       fleetOps{fleet: fleet, argv: argv},
		Min:         sc.min,
		Max:         sc.max,
		MaxRestarts: sc.restartMax,
		BackoffBase: time.Second,
		BackoffMax:  30 * time.Second,
		Seed:        sc.seed,
		Restarts:    cfg.Restarts,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return nil, err
	}
	cfg.StderrTail = fleet.StderrTail
	sf := &supervisedFleet{fleet: fleet, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sf.done)
		if err := sup.Run(sf.stop); err != nil {
			sf.err = err
			intr.Trigger(err.Error())
		}
	}()
	return sf, nil
}

// Shutdown stops the supervisor (draining still-live workers through
// the coordinator if it is still up) and waits for every worker ever
// started. Call it after the coordinator has finished its transport,
// so workers observe Stop and exit. Returns the fleet's joined exit
// error — informational under work stealing — or the supervisor's own
// fatal error if it had one.
func (sf *supervisedFleet) Shutdown() error {
	close(sf.stop)
	<-sf.done
	werr := sf.fleet.Wait()
	if sf.err != nil {
		return sf.err
	}
	return werr
}
