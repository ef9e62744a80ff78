// Golden outcomes of the four baseline systems. Run and LatencyForBound
// feed Figures 6–8 and the FT latency bounds of every sweep, so their
// results are pinned at full precision across refactors of the stage
// cost model. Regenerate with UPDATE_GOLDEN=1 only after an intentional
// behavior change.
package baselines

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"exegpt/internal/hw"
	"exegpt/internal/metrics"
	"exegpt/internal/model"
	"exegpt/internal/workload"
)

const goldenBaselinesPath = "testdata/golden_baselines.json"

// goldenBaseline is one pinned outcome: a Run (Stats, PeakMem,
// Iterations or the error text) or a LatencyForBound value.
type goldenBaseline struct {
	Name       string            `json:"name"`
	Err        string            `json:"err,omitempty"`
	Stats      *metrics.RunStats `json:"stats,omitempty"`
	PeakMem    int64             `json:"peak_mem,omitempty"`
	Iterations int               `json:"iterations,omitempty"`
	Latency    *float64          `json:"latency,omitempty"`
}

// goldenBaselines executes every pinned case in a fixed order: each
// system on a single-node decoder-only deployment and a two-node T5
// deployment (inter-node pipeline handover), over two tasks and a
// small and a large batch.
func goldenBaselines(t *testing.T) []goldenBaseline {
	t.Helper()
	deployments := []struct {
		name  string
		model model.Model
		gpus  int
	}{
		{"OPT-13B/4xA40", model.OPT13B, 4},
		{"T5-11B/16xA40", model.T511B, 16},
	}
	var out []goldenBaseline
	for _, d := range deployments {
		for _, sys := range []System{FT, DSI, ORCA, VLLM} {
			e := engine(t, sys, d.model, d.gpus, hw.A40Cluster)
			for _, task := range []workload.Task{workload.Summarization, workload.Translation} {
				rs := reqs(t, task, 80, 11)
				for _, batch := range []int{8, 64} {
					name := fmt.Sprintf("%s/%v/%s/B%d", d.name, sys, task.ID, batch)
					g := goldenBaseline{Name: name + "/run"}
					res, err := e.Run(batch, rs, task.Out.Max)
					if err != nil {
						g.Err = err.Error()
					} else {
						stats := res.Stats
						g.Stats, g.PeakMem, g.Iterations = &stats, res.PeakMem, res.Iterations
					}
					out = append(out, g)

					lat, err := e.LatencyForBound(batch, task.In.Avg, task.Out.Avg, task.Out.Max)
					g = goldenBaseline{Name: name + "/latency-for-bound"}
					if err != nil {
						g.Err = err.Error()
					} else {
						g.Latency = &lat
					}
					out = append(out, g)
				}
			}
		}
	}
	return out
}

// TestBaselinesGolden pins every baseline's Run and LatencyForBound to
// the committed outcomes. With UPDATE_GOLDEN=1 it rewrites the file
// from the current engines instead.
func TestBaselinesGolden(t *testing.T) {
	got, err := json.MarshalIndent(goldenBaselines(t), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenBaselinesPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenBaselinesPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, got) {
		return
	}
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			t.Fatalf("line %d differs:\n want %s\n  got %s", i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("golden has %d lines, engines produced %d", len(wl), len(gl))
}
