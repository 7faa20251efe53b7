package experiments

import (
	"context"
	"fmt"
	"io"

	"glider/internal/cache"
	"glider/internal/cpu"
	gl "glider/internal/glider"
	"glider/internal/offline"
	"glider/internal/opt"
	"glider/internal/policy"
	"glider/internal/workload"
)

// Ablations for the design choices DESIGN.md calls out.

// AblationRow is one configuration's result.
type AblationRow struct {
	Name  string
	Value float64
	Unit  string
}

// Ablation is a named set of configuration results.
type Ablation struct {
	Title string
	Rows  []AblationRow
}

// Render writes the ablation.
func (a Ablation) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation: %s\n", a.Title)
	for _, r := range a.Rows {
		fmt.Fprintf(w, "  %-40s %10.3f %s\n", r.Name, r.Value, r.Unit)
	}
}

// RunAblationOptgenVsBelady compares online OPTgen verdicts against exact
// Belady labels, per window factor — quantifying how faithful the hardware
// training signal is.
func RunAblationOptgenVsBelady(cfg Config) (Ablation, error) {
	spec, err := workload.Lookup("omnetpp")
	if err != nil {
		return Ablation{}, err
	}
	c, err := cpu.SharedCapture(context.Background(), spec, cfg.Accesses, cfg.Seed, 1)
	if err != nil {
		return Ablation{}, err
	}
	stream := c.LLCStream()
	labels := opt.LabelTrace(stream, cache.LLCConfig.Sets, cache.LLCConfig.Ways)

	out := Ablation{Title: "OPTgen window factor vs exact Belady agreement"}
	for _, wf := range []int{2, 4, 8, 16} {
		gens := map[int]*opt.OPTgen{}
		last := map[uint64]int{}
		agree, total := 0, 0
		for i, a := range stream.Accesses {
			set := int(a.Block() & uint64(cache.LLCConfig.Sets-1))
			g := gens[set]
			if g == nil {
				g = opt.NewOPTgen(cache.LLCConfig.Ways, wf*cache.LLCConfig.Ways)
				gens[set] = g
			}
			v := g.Access(a.Block())
			if prev, ok := last[a.Block()]; ok {
				switch v {
				case opt.VerdictHit:
					total++
					if labels[prev] {
						agree++
					}
				case opt.VerdictMiss, opt.VerdictExpired:
					total++
					if !labels[prev] {
						agree++
					}
				}
			}
			last[a.Block()] = i
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(agree) / float64(total)
		}
		out.Rows = append(out.Rows, AblationRow{Name: fmt.Sprintf("window = %d × associativity", wf), Value: pct, Unit: "% agreement"})
	}
	return out, nil
}

// RunAblationOrderedVsUnordered quantifies the paper's central feature
// choice: offline accuracy of the unordered k-sparse ISVM vs the ordered
// history SVM at equal history lengths.
func RunAblationOrderedVsUnordered(cfg Config) (Ablation, error) {
	spec, err := workload.Lookup("omnetpp")
	if err != nil {
		return Ablation{}, err
	}
	d, err := offline.BuildDataset(spec, cfg.OfflineAccesses, cfg.Seed)
	if err != nil {
		return Ablation{}, err
	}
	out := Ablation{Title: "unordered k-sparse vs ordered history feature (offline accuracy)"}
	for _, k := range []int{3, 5, 8} {
		_, unordered, err := offline.TrainISVMOffline(d, k, cfg.LinearEpochs)
		if err != nil {
			return Ablation{}, err
		}
		_, ordered, err := offline.TrainOrderedSVMOffline(d, k, cfg.LinearEpochs)
		if err != nil {
			return Ablation{}, err
		}
		out.Rows = append(out.Rows,
			AblationRow{Name: fmt.Sprintf("unordered unique-PC feature, k=%d", k), Value: unordered.FinalAccuracy() * 100, Unit: "% accuracy"},
			AblationRow{Name: fmt.Sprintf("ordered history feature,    h=%d", k), Value: ordered.FinalAccuracy() * 100, Unit: "% accuracy"},
		)
	}
	return out, nil
}

// gliderMissRate runs one benchmark under a custom Glider configuration.
func gliderMissRate(spec workload.Spec, cfg Config, gcfg gl.Config) (float64, error) {
	c, err := cpu.SharedCapture(context.Background(), spec, cfg.Accesses, cfg.Seed, 1)
	if err != nil {
		return 0, err
	}
	llcCfg := cache.LLCConfig
	llc, err := cache.New(llcCfg, policy.NewGliderWithConfig(llcCfg.Sets, llcCfg.Ways, gcfg))
	if err != nil {
		return 0, err
	}
	res, err := c.RunFunctional(context.Background(), llc, cfg.Accesses/5, false)
	if err != nil {
		return 0, err
	}
	return res.LLC.MissRate(), nil
}

// RunAblationThreshold compares the adaptive training threshold against
// fixed thresholds.
func RunAblationThreshold(cfg Config) (Ablation, error) {
	spec, err := workload.Lookup("omnetpp")
	if err != nil {
		return Ablation{}, err
	}
	out := Ablation{Title: "Glider training threshold (LLC miss rate, omnetpp)"}
	variants := []struct {
		name       string
		thresholds []int
	}{
		{"adaptive {0,30,100,300,3000} (paper)", []int{0, 30, 100, 300, 3000}},
		{"fixed 0", []int{0}},
		{"fixed 30", []int{30}},
		{"fixed 100", []int{100}},
		{"fixed 300", []int{300}},
	}
	for _, v := range variants {
		gcfg := gl.DefaultConfig(1)
		gcfg.TrainingThresholds = v.thresholds
		mr, err := gliderMissRate(spec, cfg, gcfg)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, AblationRow{Name: v.name, Value: mr * 100, Unit: "% miss rate"})
	}
	return out, nil
}

// RunAblationTableSize sweeps the ISVM table dimensions (§4.4: 2048 PCs ×
// 16 weights).
func RunAblationTableSize(cfg Config) (Ablation, error) {
	spec, err := workload.Lookup("omnetpp")
	if err != nil {
		return Ablation{}, err
	}
	out := Ablation{Title: "Glider ISVM table geometry (LLC miss rate, omnetpp)"}
	variants := []struct {
		tableSize, weights int
	}{
		{256, 8}, {1024, 16}, {2048, 16}, {4096, 32},
	}
	for _, v := range variants {
		gcfg := gl.DefaultConfig(1)
		gcfg.TableSize = v.tableSize
		gcfg.WeightsPerISVM = v.weights
		mr, err := gliderMissRate(spec, cfg, gcfg)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, AblationRow{
			Name:  fmt.Sprintf("%d ISVMs × %d weights (%d KB)", v.tableSize, v.weights, v.tableSize*v.weights/1024),
			Value: mr * 100, Unit: "% miss rate",
		})
	}
	return out, nil
}

// RunAblationHistoryLen sweeps Glider's PCHR length k online (the paper
// fixes k = 5).
func RunAblationHistoryLen(cfg Config) (Ablation, error) {
	spec, err := workload.Lookup("omnetpp")
	if err != nil {
		return Ablation{}, err
	}
	out := Ablation{Title: "Glider PCHR length k (LLC miss rate, omnetpp)"}
	for _, k := range []int{1, 3, 5, 8} {
		gcfg := gl.DefaultConfig(1)
		gcfg.HistoryLen = k
		mr, err := gliderMissRate(spec, cfg, gcfg)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, AblationRow{Name: fmt.Sprintf("k = %d", k), Value: mr * 100, Unit: "% miss rate"})
	}
	return out, nil
}
