// Execution-driver registry: the runner's end of the per-family
// dispatch. A family's capability flags select its driver — dedicated
// encode/decode pools run as asynchronous encoder and decoder
// pipelines, shared pools as the synchronized cycle — so a family
// registered in sched runs under both Engine.Run and Engine.Open
// without a new policy branch here.
package runner

import (
	"fmt"

	"exegpt/internal/sched"
)

// driver binds one capability class of families to the OpenRun event
// loop: openInit sets up the run's pipeline state and openWake restarts
// a parked admission side.
type driver interface {
	openInit(o *OpenRun) error
	openWake(o *OpenRun)
}

// driverByCaps maps a family's capabilities onto its driver.
func driverByCaps(c sched.Caps) driver {
	if c.DedicatedPools {
		return pooledDriver{}
	}
	return syncDriver{}
}

// driverFor resolves the driver for a policy from the family registry.
func driverFor(p sched.Policy) (driver, error) {
	if f, ok := sched.FamilyOf(p); ok {
		return driverByCaps(f.Caps), nil
	}
	return nil, fmt.Errorf("runner: no driver for policy %v", p)
}

// syncDriver runs the synchronized phase loop of shared-pool families
// (one encoding phase then ND decoding iterations, Figure 4(a)).
type syncDriver struct{}

func (syncDriver) openInit(o *OpenRun) error { return nil }

func (syncDriver) openWake(o *OpenRun) { o.rraCycle() }

// pooledDriver runs dedicated-pool families as asynchronous encoder and
// decoder pipelines on the discrete-event simulator (Figure 4(b)).
type pooledDriver struct{}

func (pooledDriver) openInit(o *OpenRun) error {
	o.encStages = o.alloc.EncStages()
	o.decStages = o.alloc.DecStages()
	if len(o.encStages) == 0 || len(o.decStages) == 0 {
		return fmt.Errorf("runner: WAA needs dedicated encode and decode stages")
	}
	o.bm = min(o.cfg.Bm, len(o.decStages))
	// The encoder pipeline naturally holds one batch per stage, and the
	// KV handover keeps more in flight; bound the buffer so the encoder
	// is never throttled below its steady issue rate but cannot run
	// unboundedly ahead of the decoder.
	o.maxInflight = len(o.encStages) + 3
	return nil
}

func (pooledDriver) openWake(o *OpenRun) { o.startEncode() }
