package dispatch

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"exegpt/internal/distsweep"
	"exegpt/internal/experiments"
)

// TestWireMsgRoundTrip: the codec must preserve every field and frame
// each message as one newline-terminated line.
func TestWireMsgRoundTrip(t *testing.T) {
	env := distsweep.NewCellEnvelope("fp-wire", 4, experiments.CellResult{Cell: 2, Evals: 7})
	in := &Msg{Type: MsgResult, Worker: "w1", Seq: 3, Result: env}
	data, err := EncodeMsg(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(data, []byte("\n")) {
		t.Fatal("frame not newline-terminated")
	}
	out, err := DecodeMsg(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Version != WireVersion {
		t.Fatalf("encode did not stamp the wire version: got %d", out.Version)
	}
	if out.Type != in.Type || out.Worker != in.Worker || out.Seq != in.Seq {
		t.Fatalf("round trip mangled the message: %+v", out)
	}
	if out.Result == nil || out.Result.Result.Cell != 2 || out.Result.Fingerprint != "fp-wire" {
		t.Fatalf("round trip mangled the result envelope: %+v", out.Result)
	}
}

// TestWireCellEnvelopeRoundTrip: a result frame carries its cell
// envelope through the codec intact, the relaxed +Inf bound bit-exactly,
// and a truncated frame is reported as corrupt instead of decoding.
func TestWireCellEnvelopeRoundTrip(t *testing.T) {
	cell := fakeCellResult(1)
	cell.Rows[0].Bound = math.Inf(1)
	env := distsweep.NewCellEnvelope("fp", 5, cell)
	data, err := EncodeMsg(&Msg{Type: MsgResult, Worker: "w1", Seq: 1, Result: env})
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeMsg(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Result, env) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", out.Result, env)
	}
	if !math.IsInf(out.Result.Result.Rows[0].Bound, 1) {
		t.Fatalf("infinite bound lost: %v", out.Result.Result.Rows[0].Bound)
	}
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 2} {
		if _, err := DecodeMsg(data[:cut]); err == nil {
			t.Fatalf("truncation at %d silently decoded", cut)
		} else if !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("truncation at %d: error %q does not say corrupt", cut, err)
		}
	}
}

// TestWireReleaseRoundTrip: the voluntary-return message must carry
// its cell list through the codec — a drained worker's released cells
// ride on it.
func TestWireReleaseRoundTrip(t *testing.T) {
	in := &Msg{Type: MsgRelease, Worker: "w1", Cells: []int{5, 2, 7}}
	data, err := EncodeMsg(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeMsg(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != MsgRelease || out.Worker != "w1" ||
		len(out.Cells) != 3 || out.Cells[0] != 5 || out.Cells[1] != 2 || out.Cells[2] != 7 {
		t.Fatalf("round trip mangled the release: %+v", out)
	}
}

// TestWireLeaseRoundTrip mirrors the message round trip for leases.
func TestWireLeaseRoundTrip(t *testing.T) {
	in := &Lease{Worker: "w1", Seq: 9, Cells: []int{3, 1, 4}, TimeoutMS: 1500, Stop: false}
	data, err := EncodeLease(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeLease(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Version != WireVersion || out.Worker != "w1" || out.Seq != 9 ||
		out.TimeoutMS != 1500 || len(out.Cells) != 3 || out.Cells[0] != 3 {
		t.Fatalf("round trip mangled the lease: %+v", out)
	}
}

// TestWireRejectsVersionMismatch: frames from a differently-versioned
// build must fail with the sentinel, so mixed fleets die loudly.
func TestWireRejectsVersionMismatch(t *testing.T) {
	if _, err := DecodeMsg([]byte(`{"version":99,"type":1,"worker":"w"}`)); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("mixed-version msg: got %v, want ErrWireVersion", err)
	}
	if _, err := DecodeLease([]byte(`{"version":0,"worker":"w","seq":1}`)); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("unversioned lease: got %v, want ErrWireVersion", err)
	}
}

// TestWireRejectsGarbage: torn or non-JSON frames must error, not
// half-decode.
func TestWireRejectsGarbage(t *testing.T) {
	for _, torn := range []string{"", "{", `{"version":1,"type":3,"worker":"w","resu`, "not json\n"} {
		if _, err := DecodeMsg([]byte(torn)); err == nil {
			t.Errorf("DecodeMsg(%q) accepted", torn)
		}
		if _, err := DecodeLease([]byte(torn)); err == nil {
			t.Errorf("DecodeLease(%q) accepted", torn)
		}
	}
}

// TestOptionsDefaultsValidate: Defaults must validate, zero-valued
// fields must resolve to defaults, and negatives must be rejected.
func TestOptionsDefaultsValidate(t *testing.T) {
	if err := Defaults().Validate(); err != nil {
		t.Fatalf("Defaults() invalid: %v", err)
	}
	resolved := Options{}.withDefaults()
	d := Defaults()
	if resolved.LeaseTimeout != d.LeaseTimeout || resolved.LeaseCells != d.LeaseCells ||
		resolved.CellRetries != d.CellRetries || resolved.WorkerFailures != d.WorkerFailures {
		t.Fatalf("zero Options resolved to %+v, want defaults %+v", resolved, d)
	}
	if resolved.Idle != 0 {
		t.Fatalf("zero Idle must stay 0 (wait forever), got %v", resolved.Idle)
	}
	for _, bad := range []Options{
		{LeaseTimeout: -1}, {LeaseCells: -2}, {CellRetries: -1}, {WorkerFailures: -3}, {Idle: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Options %+v validated", bad)
		}
	}
}
