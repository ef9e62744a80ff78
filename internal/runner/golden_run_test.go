// Golden outcomes of the batch entry point. Engine.Run feeds the sweep,
// the tables and the figures, so its records, counters and Table 7
// stage statistics are pinned bit for bit across refactors of the
// execution drivers. Regenerate with UPDATE_GOLDEN=1 only after an
// intentional behavior change.
package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"exegpt/internal/hw"
	"exegpt/internal/metrics"
	"exegpt/internal/model"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

const goldenRunPath = "testdata/golden_run.json"

// recordRow matches one innermost JSON array: a record row.
var recordRow = regexp.MustCompile(`\[[^\[\]{}]*\]`)

// goldenStage summarizes a stage-time recorder the way Table 7 reads
// it. Mean is taken before PctlRange, which sorts the samples.
type goldenStage struct {
	Count     int     `json:"count"`
	Mean      float64 `json:"mean"`
	PctlRange float64 `json:"pctl_range_99"`
}

func stageOf(r *metrics.Recorder) goldenStage {
	g := goldenStage{Count: r.Count(), Mean: r.Mean()}
	g.PctlRange = r.PctlRange(0.99)
	return g
}

// goldenRun is one pinned Engine.Run outcome: either the error text or
// the full result. Records are [ID, Start, End, InLen, OutLen] rows.
type goldenRun struct {
	Name              string            `json:"name"`
	Err               string            `json:"err,omitempty"`
	Stats             *metrics.RunStats `json:"stats,omitempty"`
	Iterations        int               `json:"iterations,omitempty"`
	Compactions       int               `json:"compactions,omitempty"`
	CompactionSeconds float64           `json:"compaction_seconds,omitempty"`
	PeakDecMemPerGPU  int64             `json:"peak_dec_mem_per_gpu,omitempty"`
	EncStage          *goldenStage      `json:"enc_stage,omitempty"`
	DecStage          *goldenStage      `json:"dec_stage,omitempty"`
	Records           [][5]float64      `json:"records,omitempty"`
}

func goldenOf(name string, res Result, err error) goldenRun {
	g := goldenRun{Name: name}
	if err != nil {
		g.Err = err.Error()
		return g
	}
	stats := res.Stats
	enc, dec := stageOf(res.EncStage), stageOf(res.DecStage)
	g.Stats, g.EncStage, g.DecStage = &stats, &enc, &dec
	g.Iterations, g.Compactions = res.Iterations, res.Compactions
	g.CompactionSeconds, g.PeakDecMemPerGPU = res.CompactionSeconds, res.PeakDecMemPerGPU
	for _, r := range res.Records {
		g.Records = append(g.Records, [5]float64{
			float64(r.ID), r.Start, r.End, float64(r.InLen), float64(r.OutLen)})
	}
	return g
}

// goldenRuns executes every pinned case in a fixed order.
func goldenRuns(t *testing.T) []goldenRun {
	t.Helper()
	opt := engine(t, model.OPT13B, 4, hw.A40Cluster)
	noAdjust := engine(t, model.OPT13B, 4, hw.A40Cluster)
	noAdjust.DynamicAdjust = false
	gpt := engine(t, model.GPT339B, 16, hw.A40Cluster)
	tp8 := sched.TPSpec{Degree: 8, GPUs: 16}
	tp1 := sched.TPSpec{Degree: 1}
	waaC, err := sched.AllocateWAA(opt.Model, opt.Cluster, sched.WAAC, 1, 3, tp1)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		eng   *Engine
		cfg   sched.Config
		alloc sched.Allocation
		reqs  []workload.Request
	}{
		{"RRA/OPT-13B/S/BD64-ND8", opt, rraConfig(64, 8), rraAlloc(t, opt, tp1),
			requests(t, workload.Summarization, 300, 7)},
		{"RRA/OPT-13B/T/BD32-ND8/no-adjust", noAdjust, rraConfig(32, 8), rraAlloc(t, noAdjust, tp1),
			requests(t, workload.Translation, 150, 3)},
		{"RRA/GPT3-39B/S/BD32-ND8/TP8", gpt,
			sched.Config{Policy: sched.RRA, BE: 1, BD: 32, ND: 8, TP: tp8}, rraAlloc(t, gpt, tp8),
			requests(t, workload.Summarization, 150, 37)},
		{"RRA/OPT-13B/S/BD2048-ND8/engine-run-bench", opt, engineRunConfig(), rraAlloc(t, opt, tp1),
			requests(t, workload.Summarization, 1500, 53)},
		{"WAA-M/OPT-13B/S/BE4-BD128-Bm2", opt,
			sched.Config{Policy: sched.WAAM, BE: 4, BD: 128, Bm: 2, TP: tp1}, waaAlloc(t, opt, 1, 3, tp1),
			requests(t, workload.Summarization, 300, 9)},
		{"WAA-C/OPT-13B/S/BE6-BD190-Bm2", opt,
			sched.Config{Policy: sched.WAAC, BE: 6, BD: 190, Bm: 2, TP: tp1}, waaC,
			requests(t, workload.Summarization, 300, 31)},
		{"WAA-M/OPT-13B/S/BE16-BD2048-Bm2/engine-run-bench", opt, engineRunWAAConfig(), waaAlloc(t, opt, 1, 3, tp1),
			requests(t, workload.Summarization, 1500, 53)},
		{"RRA/OPT-13B/err/does-not-fit", opt, rraConfig(64, 8), rraAlloc(t, opt, tp1), hugePrompt()},
		{"RRA/OPT-13B/err/decode-oom", opt, rraConfig(64, 8), rraAlloc(t, opt, tp1), longGenerations()},
		// A deferred admission leaves the KV cache too full for the next
		// decode step, so this run ends in a decode OOM as well.
		{"RRA/OPT-13B/T/BE64-BD2048/err/deferred-then-decode-oom", opt,
			sched.Config{Policy: sched.RRA, BE: 64, BD: 2048, ND: 8, TP: tp1}, rraAlloc(t, opt, tp1),
			requests(t, workload.Translation, 1500, 53)},
	}
	out := make([]goldenRun, 0, len(cases))
	for _, c := range cases {
		res, err := c.eng.Run(c.cfg, c.alloc, c.reqs)
		out = append(out, goldenOf(c.name, res, err))
	}
	return out
}

// TestRunGolden pins Engine.Run to the committed outcomes. With
// UPDATE_GOLDEN=1 it rewrites the file from the current engine instead.
func TestRunGolden(t *testing.T) {
	got := goldenRuns(t)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		// One record row per line keeps the file reviewable.
		data = recordRow.ReplaceAllFunc(data, func(row []byte) []byte {
			var b bytes.Buffer
			_ = json.Compact(&b, row) // row is valid JSON: MarshalIndent wrote it
			return b.Bytes()
		})
		if err := os.WriteFile(goldenRunPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(goldenRunPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, engine produced %d", len(want), len(got))
	}
	for i := range want {
		w, _ := json.MarshalIndent(want[i], "", " ")
		g, _ := json.MarshalIndent(got[i], "", " ")
		if string(w) == string(g) {
			continue
		}
		wl, gl := strings.Split(string(w), "\n"), strings.Split(string(g), "\n")
		for j := 0; j < len(wl) && j < len(gl); j++ {
			if wl[j] != gl[j] {
				t.Errorf("%s: line %d differs:\n want %s\n  got %s", want[i].Name, j, wl[j], gl[j])
				break
			}
		}
		if len(wl) != len(gl) {
			t.Errorf("%s: %d lines, want %d", want[i].Name, len(gl), len(wl))
		}
	}
}
