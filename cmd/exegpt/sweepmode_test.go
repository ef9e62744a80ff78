package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestResolveSweepMode parses sweep argument lists with the real sweep
// flag set. -mode is the only mode selector: the retired static-shard
// modes and the old mode-implying flags must fail loudly rather than
// fall back to a single-process run.
func TestResolveSweepMode(t *testing.T) {
	const undefined = "flag provided but not defined"
	cases := []struct {
		name    string
		args    []string
		want    sweepMode
		wantErr string
	}{
		{name: "default single", want: modeSingle},
		{name: "explicit pull", args: []string{"-mode", "pull"}, want: modePull},
		{name: "explicit dispatch", args: []string{"-mode", "dispatch"}, want: modeDispatch},
		{name: "unknown mode", args: []string{"-mode", "serverless"}, wantErr: "unknown -mode"},
		{name: "retired worker mode", args: []string{"-mode", "worker"}, wantErr: "unknown -mode"},
		{name: "retired spawn mode", args: []string{"-mode", "spawn"}, wantErr: "unknown -mode"},
		{name: "legacy shards", args: []string{"-shards", "2"}, wantErr: undefined},
		{name: "legacy spawn", args: []string{"-spawn"}, wantErr: undefined},
		{name: "legacy dispatch", args: []string{"-dispatch"}, wantErr: undefined},
		{name: "legacy pull", args: []string{"-pull"}, wantErr: undefined},
		{name: "explicit matches legacy", args: []string{"-mode", "dispatch", "-dispatch"}, wantErr: undefined},
		{name: "conflicting legacy pair", args: []string{"-spawn", "-pull"}, wantErr: undefined},
		{name: "explicit contradicts legacy", args: []string{"-mode", "spawn", "-pull"}, wantErr: undefined},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f := sweepFlags(fs)
			var got sweepMode
			err := fs.Parse(c.args)
			if err == nil {
				got, err = resolveSweepMode(*f.mode)
			}
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("got (%q, %v), want error containing %q", got, err, c.wantErr)
				}
				return
			}
			if err != nil || got != c.want {
				t.Fatalf("got (%q, %v), want %q", got, err, c.want)
			}
		})
	}
}

func TestValidateSweepMode(t *testing.T) {
	cases := []struct {
		name    string
		m       sweepMode
		f       sweepModeFlags
		wantErr string
	}{
		{name: "single plain", m: modeSingle},
		{name: "single with json", m: modeSingle, f: sweepModeFlags{json: "out.json"}},
		{name: "single with connect", m: modeSingle, f: sweepModeFlags{connect: "http://x"}, wantErr: "does not use -connect"},
		{name: "single with scale-max", m: modeSingle, f: sweepModeFlags{scaleMax: 3}, wantErr: "no fleet to scale"},
		{name: "dispatch spool", m: modeDispatch, f: sweepModeFlags{spool: "/s", workers: 2}},
		{name: "dispatch http", m: modeDispatch, f: sweepModeFlags{http: ":8080", hosts: "a,b"}},
		{name: "dispatch both transports", m: modeDispatch, f: sweepModeFlags{spool: "/s", http: ":8080"}, wantErr: "not both"},
		{name: "dispatch with connect", m: modeDispatch, f: sweepModeFlags{connect: "http://x"}, wantErr: "does not use -connect"},
		{name: "dispatch forked temp spool", m: modeDispatch, f: sweepModeFlags{workers: 2}},
		{name: "dispatch no workers alone", m: modeDispatch, wantErr: "give -spool DIR or -http ADDR"},
		{name: "dispatch negative workers", m: modeDispatch, f: sweepModeFlags{workers: -1, spool: "/s"}, wantErr: "-dispatch-workers -1 < 0"},
		{name: "dispatch no workers spool", m: modeDispatch, f: sweepModeFlags{spool: "/s"}},
		{name: "dispatch no workers http", m: modeDispatch, f: sweepModeFlags{http: ":8080"}},
		{name: "dispatch no workers scale-max", m: modeDispatch, f: sweepModeFlags{scaleMax: 3}},
		{name: "dispatch no workers hosts", m: modeDispatch, f: sweepModeFlags{hosts: "a,b"}},
		{name: "pull spool", m: modePull, f: sweepModeFlags{spool: "/s", workerID: "w1"}},
		{name: "pull connect", m: modePull, f: sweepModeFlags{connect: "http://x"}},
		{name: "pull neither", m: modePull, wantErr: "exactly one coordinator"},
		{name: "pull both", m: modePull, f: sweepModeFlags{spool: "/s", connect: "http://x"}, wantErr: "exactly one coordinator"},
		{name: "pull with hosts", m: modePull, f: sweepModeFlags{connect: "http://x", hosts: "a"}, wantErr: "does not use -hosts"},
		{name: "pull with json", m: modePull, f: sweepModeFlags{connect: "http://x", json: "out.json"}, wantErr: "does not use -json"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateSweepMode(c.m, c.f)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("got %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}
