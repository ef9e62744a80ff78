package main

import "fmt"

// sweepMode is the distribution-mode selector of `exegpt sweep`.
type sweepMode string

const (
	modeSingle   sweepMode = "single"
	modeDispatch sweepMode = "dispatch"
	modePull     sweepMode = "pull"
)

// resolveSweepMode parses the -mode flag.
func resolveSweepMode(s string) (sweepMode, error) {
	switch m := sweepMode(s); m {
	case modeSingle, modeDispatch, modePull:
		return m, nil
	}
	return "", fmt.Errorf("unknown -mode %q (single, dispatch or pull)", s)
}

// sweepModeFlags carries the distribution flags that only some modes
// accept, for per-mode validation.
type sweepModeFlags struct {
	hosts    string
	spool    string
	http     string
	connect  string
	workerID string
	journal  string
	json     string
	scaleMax int
	workers  int // -dispatch-workers
}

// validateSweepMode rejects flag combinations the selected mode cannot
// honor, so a typo fails loudly instead of being silently ignored.
func validateSweepMode(m sweepMode, f sweepModeFlags) error {
	// reject lists, per mode, the flags that mode has no use for.
	reject := func(pairs ...[2]string) error {
		for _, p := range pairs {
			if p[1] != "" {
				return fmt.Errorf("-mode %s does not use %s", m, p[0])
			}
		}
		return nil
	}
	if f.scaleMax > 0 && m != modeDispatch {
		return fmt.Errorf("-scale-max supervises a dispatch-mode fleet; -mode %s has no fleet to scale", m)
	}
	switch m {
	case modeSingle:
		return reject([2]string{"-hosts", f.hosts}, [2]string{"-spool", f.spool},
			[2]string{"-http", f.http}, [2]string{"-connect", f.connect},
			[2]string{"-worker-id", f.workerID}, [2]string{"-journal", f.journal})
	case modeDispatch:
		if f.spool != "" && f.http != "" {
			return fmt.Errorf("-mode dispatch uses one transport: -spool DIR (file spool) or -http ADDR (HTTP API), not both")
		}
		if f.scaleMax > 0 && f.hosts != "" {
			return fmt.Errorf("-scale-max supervises local workers; an ssh fleet (-hosts) is fixed — pick one")
		}
		if err := reject([2]string{"-connect", f.connect}); err != nil {
			return err
		}
		if f.workers < 0 {
			return fmt.Errorf("-dispatch-workers %d < 0", f.workers)
		}
		// 0 forks no workers: unless -scale-max or -hosts supplies a
		// fleet, hand-attached workers need a spool or an HTTP address
		// they can reach, which a temp spool is not.
		if f.workers == 0 && f.spool == "" && f.http == "" && f.scaleMax == 0 && f.hosts == "" {
			return fmt.Errorf("-dispatch-workers 0 runs the coordinator alone: give -spool DIR or -http ADDR for the pull workers to attach to")
		}
		return nil
	case modePull:
		if (f.spool == "") == (f.connect == "") {
			return fmt.Errorf("-mode pull attaches to exactly one coordinator: give -spool DIR (file spool) or -connect URL (HTTP API)")
		}
		// A pull worker streams its cells to the coordinator, which
		// writes the merged artifact; the worker has none to write.
		return reject([2]string{"-hosts", f.hosts}, [2]string{"-http", f.http},
			[2]string{"-journal", f.journal}, [2]string{"-json", f.json})
	}
	return nil
}
