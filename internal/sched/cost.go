package sched

import (
	"exegpt/internal/hw"
	"exegpt/internal/profile"
)

// StageCost prices one pipeline stage from profiled per-layer times: the
// stage's layer count times the per-layer time, plus the handover of
// its activations to the next stage. XSimulator, XRunner and the
// baselines all price stages through it, so an estimate and the
// execution it predicts share one cost model.
type StageCost struct {
	Prof    *profile.Table
	Cluster hw.Cluster
}

// LinkClass returns the collective link class of a stage's TP group.
func LinkClass(s Stage) profile.LinkClass {
	if s.CrossNode {
		return profile.InterNode
	}
	return profile.IntraNode
}

// PPClass returns the link class between a stage and the next one;
// adjacent rank blocks may span nodes, approximated by the from-stage
// boundary.
func (c *StageCost) PPClass(from Stage) profile.LinkClass {
	last := from.FirstRank + from.TP - 1
	next := (last + 1) % c.Cluster.TotalGPUs()
	if c.Cluster.NodeOf(last) != c.Cluster.NodeOf(next) {
		return profile.InterNode
	}
	return profile.IntraNode
}

// Enc returns one stage's encoding time for a batch of tokens prompt
// tokens with mean sequence length meanSeq, plus the pipeline handover.
// scale multiplies the per-layer time before the layer count (a
// system's kernel efficiency; 1 for ExeGPT's own engines).
func (c *StageCost) Enc(st Stage, tokens int, meanSeq, scale float64) (float64, error) {
	layer, err := c.Prof.EncodeLayer(tokens, meanSeq, st.TP, LinkClass(st))
	if err != nil {
		return 0, err
	}
	send, err := c.Prof.PPSend(tokens, c.PPClass(st))
	if err != nil {
		return 0, err
	}
	return float64(st.EncLayers)*(layer*scale) + send, nil
}

// Dec returns one stage's decode-iteration time for batch queries with
// mean attention context ctx, plus the pipeline handover; scale is as
// in Enc.
func (c *StageCost) Dec(st Stage, batch int, ctx, scale float64) (float64, error) {
	layer, err := c.Prof.DecodeLayer(batch, ctx, st.TP, LinkClass(st))
	if err != nil {
		return 0, err
	}
	send, err := c.Prof.PPSend(batch, c.PPClass(st))
	if err != nil {
		return 0, err
	}
	return float64(st.DecLayers)*(layer*scale) + send, nil
}

// PipelinePeriod returns the steady-state period of one autoregressive
// iteration over the stage times when m micro-batches are in flight:
// max(Σ t_s, m * max_s t_s). With m=1 the pipeline serializes to the
// traversal (Figure 4(b)); more micro-batches overlap stages
// (Figure 4(c)) at the cost of per-micro-batch efficiency.
func PipelinePeriod(times []float64, m int) float64 {
	if m < 1 {
		m = 1
	}
	var sum, max float64
	for _, t := range times {
		sum += t
		if t > max {
			max = t
		}
	}
	if p := float64(m) * max; p > sum {
		return p
	}
	return sum
}
