package experiments

import (
	"context"
	"fmt"
	"sort"

	"glider/internal/cpu"
	"glider/internal/policy"
	// Register the champsim/zipf/mix workload-spec schemes so every cell
	// (and therefore gliderd and the gateway) accepts ingested workloads.
	_ "glider/internal/trace/ingest"
	"glider/internal/workload"
)

// A "cell" is the unit of work the gliderd service executes: one (workload,
// policy, accesses, seed) simulation, or one prediction query against the
// predictor state such a simulation ends with. Both the server executor and
// the differential test suite call these entry points, so a server response
// is byte-identical to a direct run by construction — any divergence is a
// server bug, not a modeling question.
//
// The workload argument is anything workload.Resolve accepts: a registry
// benchmark name or an ingest spec string (champsim/zipf/mix). Results echo
// the canonical spec (spec.Name), so every spelling of a workload produces
// byte-identical payloads.

// CellResult summarizes one single-core timing simulation.
type CellResult struct {
	Workload     string  `json:"workload"`
	Policy       string  `json:"policy"`
	Accesses     int     `json:"accesses"`
	Seed         int64   `json:"seed"`
	IPC          float64 `json:"ipc"`
	Cycles       float64 `json:"cycles"`
	Instructions float64 `json:"instructions"`
	LLCAccesses  uint64  `json:"llc_accesses"`
	LLCHits      uint64  `json:"llc_hits"`
	LLCMisses    uint64  `json:"llc_misses"`
	LLCMissRate  float64 `json:"llc_miss_rate"`
	DRAMReads    uint64  `json:"dram_reads"`
	DRAMWrites   uint64  `json:"dram_writes"`
}

// RunCell runs one single-core timing simulation (the same methodology as the
// Figure 11/12 study: Table 1 hierarchy, warmup on the first fifth of the
// trace). Cancelling ctx aborts the simulation promptly.
func RunCell(ctx context.Context, workloadName, policyName string, accesses int, seed int64) (CellResult, error) {
	spec, err := workload.Resolve(workloadName)
	if err != nil {
		return CellResult{}, err
	}
	if !policy.Known(policyName) {
		return CellResult{}, fmt.Errorf("experiments: unknown policy %q", policyName)
	}
	res, err := cpu.SingleCore(ctx, spec, policyName, accesses, seed)
	if err != nil {
		return CellResult{}, err
	}
	out := CellResult{
		Workload:     spec.Name,
		Policy:       policyName,
		Accesses:     accesses,
		Seed:         seed,
		IPC:          res.IPC,
		Cycles:       res.Cycles,
		Instructions: res.Instructions,
		LLCAccesses:  res.LLC.Accesses,
		LLCHits:      res.LLC.Hits,
		LLCMisses:    res.LLC.Misses,
		LLCMissRate:  res.LLC.MissRate(),
		DRAMReads:    res.DRAM.Reads,
		DRAMWrites:   res.DRAM.Writes,
	}
	return out, nil
}

// PCVerdict is one PC's end-of-run friendly/averse classification.
type PCVerdict struct {
	PC       uint64 `json:"pc"`
	Accesses int    `json:"accesses"`
	Friendly bool   `json:"friendly"`
}

// ISVMRow is one Glider ISVM table row (mirrors glider.RowSnapshot with
// stable JSON names).
type ISVMRow struct {
	Index   int    `json:"index"`
	L1      int    `json:"l1"`
	Weights []int8 `json:"weights"`
}

// ModelRow is one per-PC introspection row of a learned reuse-distance
// model (FRD, MSA): error histogram plus current predicted buckets. The
// alias keeps the policy package's JSON field names as the wire contract.
type ModelRow = policy.ModelRow

// PredictResult reports a prediction query: the per-PC verdicts of a trained
// predictor plus model introspection — Glider's most-trained ISVM weight
// rows, or the reuse-distance models' per-PC error rows.
type PredictResult struct {
	Workload    string      `json:"workload"`
	Policy      string      `json:"policy"`
	Accesses    int         `json:"accesses"`
	Seed        int64       `json:"seed"`
	LLCMissRate float64     `json:"llc_miss_rate"`
	Verdicts    []PCVerdict `json:"verdicts"`
	ISVMRows    []ISVMRow   `json:"isvm_rows,omitempty"`
	ModelRows   []ModelRow  `json:"model_rows,omitempty"`
}

// RunPredictCell trains a predictor-backed policy (Hawkeye, Glider, FRD,
// MSA) by running the workload functionally, then reports the end-of-run
// verdicts for the topPCs hottest PCs of the post-warmup LLC stream (ordered
// by access count descending, PC ascending on ties) and up to isvmRows model
// introspection rows — ISVM weights for Glider, per-PC prediction-error
// histograms for the reuse-distance models. Policies without a queryable
// predictor are rejected.
func RunPredictCell(ctx context.Context, workloadName, policyName string, accesses int, seed int64, topPCs, isvmRows int) (PredictResult, error) {
	spec, err := workload.Resolve(workloadName)
	if err != nil {
		return PredictResult{}, err
	}
	llc, err := cpu.BuildLLC(1, policyName)
	if err != nil {
		return PredictResult{}, err
	}
	pred, ok := llc.Policy().(cpu.FriendlyPredictor)
	if !ok {
		return PredictResult{}, fmt.Errorf("experiments: policy %q does not expose a friendly/averse predictor", policyName)
	}
	c, err := cpu.SharedCapture(ctx, spec, accesses, seed, 1)
	if err != nil {
		return PredictResult{}, err
	}
	res, err := c.RunFunctional(ctx, llc, accesses/5, true)
	if err != nil {
		return PredictResult{}, err
	}

	counts := make(map[uint64]int)
	for _, a := range res.LLCStream.Accesses {
		counts[a.PC]++
	}
	pcs := make([]uint64, 0, len(counts))
	for pc := range counts {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool {
		if counts[pcs[i]] != counts[pcs[j]] {
			return counts[pcs[i]] > counts[pcs[j]]
		}
		return pcs[i] < pcs[j]
	})
	if topPCs < len(pcs) {
		pcs = pcs[:topPCs]
	}

	out := PredictResult{
		Workload:    spec.Name,
		Policy:      policyName,
		Accesses:    accesses,
		Seed:        seed,
		LLCMissRate: res.LLC.MissRate(),
		Verdicts:    make([]PCVerdict, 0, len(pcs)),
	}
	for _, pc := range pcs {
		out.Verdicts = append(out.Verdicts, PCVerdict{
			PC:       pc,
			Accesses: counts[pc],
			Friendly: pred.PredictFriendly(pc, 0),
		})
	}
	if g, ok := llc.Policy().(*policy.Glider); ok && isvmRows > 0 {
		for _, row := range g.Predictor().TopRows(isvmRows) {
			out.ISVMRows = append(out.ISVMRows, ISVMRow(row))
		}
	}
	if mi, ok := llc.Policy().(policy.ModelIntrospector); ok && isvmRows > 0 {
		out.ModelRows = mi.TopModelRows(isvmRows)
	}
	return out, nil
}
