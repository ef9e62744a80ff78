package main

// Crash-safety plumbing for the `exegpt sweep -mode dispatch`
// coordinator: the -journal flag's open/replay/resume logic and the
// SIGINT/SIGTERM graceful drain, so a coordinator killed mid-sweep — by
// the operator or by the machine — restarts from its journal instead of
// from scratch.

import (
	"errors"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"exegpt/internal/dispatch"
	"exegpt/internal/dispatch/journal"
)

// interrupter routes coordinator-drain requests — SIGINT/SIGTERM from
// the operator, or a programmatic Trigger like a fatal supervisor
// error — into the coordinator's graceful drain: the drain stops new
// lease grants and lets in-flight work finish into the journal.
type interrupter struct {
	drain chan struct{}
	once  sync.Once
	sig   chan os.Signal
}

// installInterrupt wires an interrupter into cfg and starts its signal
// handler: the first SIGINT/SIGTERM drains, a second exits
// immediately. Call Stop to release the handler (for coordinator paths
// that return to a caller).
func installInterrupt(cfg *dispatch.Config) *interrupter {
	in := &interrupter{drain: make(chan struct{}), sig: make(chan os.Signal, 2)}
	cfg.Interrupt = in.drain
	signal.Notify(in.sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s, ok := <-in.sig
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "dispatch: %v: draining in-flight leases, then exiting (signal again to exit immediately)\n", s)
		in.fire()
		if s, ok := <-in.sig; ok {
			fmt.Fprintf(os.Stderr, "dispatch: %v: exiting immediately\n", s)
			os.Exit(130)
		}
	}()
	return in
}

func (in *interrupter) fire() { in.once.Do(func() { close(in.drain) }) }

// Trigger drains the coordinator for a programmatic reason (idempotent
// with the signal path).
func (in *interrupter) Trigger(reason string) {
	fmt.Fprintf(os.Stderr, "dispatch: %s: draining in-flight leases, then exiting\n", reason)
	in.fire()
}

// Stop releases the signal handler.
func (in *interrupter) Stop() {
	signal.Stop(in.sig)
	close(in.sig)
}

// openJournal opens (or creates) the sweep journal in dir and wires it
// into cfg: a fresh journal records the sweep's identity; an existing
// one must match it, and seeds the run with every cell and exclusion
// the previous coordinator accepted. Returns nil for an empty dir —
// journaling is opt-in.
func openJournal(dir, fp string, cells int, opts dispatch.Options, cfg *dispatch.Config) (*journal.Journal, error) {
	if dir == "" {
		return nil, nil
	}
	j, err := journal.Open(dir)
	if err != nil {
		return nil, err
	}
	if tb := j.TruncatedBytes(); tb > 0 {
		fmt.Fprintf(os.Stderr, "dispatch: journal: dropped a torn %d-byte tail (crash mid-append)\n", tb)
	}
	if h := j.Header(); h != nil {
		if h.Fingerprint != fp || h.Cells != cells {
			j.Close()
			return nil, fmt.Errorf("journal %s records grid %.12s… (%d cells) but this run sweeps %.12s… (%d cells): resume with the original grid flags, or point -journal at an empty directory",
				j.Path(), h.Fingerprint, h.Cells, fp, cells)
		}
		if h.Options != journal.OptionsOf(opts) {
			// Lease knobs never change results, only pacing; note the
			// drift instead of refusing to resume.
			fmt.Fprintf(os.Stderr, "dispatch: journal: note: dispatch options differ from the interrupted run's\n")
		}
		cfg.Completed = j.Cells()
		cfg.Exclusions = j.Exclusions()
		cfg.Restarts = j.Restarts()
		if len(cfg.Completed) > 0 || len(cfg.Exclusions) > 0 || len(cfg.Restarts) > 0 {
			fmt.Fprintf(os.Stderr, "dispatch: journal: resuming %d/%d cells (%d worker exclusions, %d supervised slots) from %s\n",
				len(cfg.Completed), cells, len(cfg.Exclusions), len(cfg.Restarts), j.Path())
		}
	} else {
		if err := j.WriteHeader(journal.Header{
			Fingerprint: fp, Cells: cells, Options: journal.OptionsOf(opts),
		}); err != nil {
			j.Close()
			return nil, err
		}
	}
	cfg.Journal = j
	return j, nil
}

// resumeHint tells the operator how to pick an interrupted journaled
// sweep back up.
func resumeHint(err error, journalDir string) {
	if journalDir != "" && errors.Is(err, dispatch.ErrInterrupted) {
		fmt.Fprintf(os.Stderr, "dispatch: progress saved; rerun with the same flags (-journal %s) to resume\n", journalDir)
	}
}
