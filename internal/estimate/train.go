package estimate

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"glider/internal/cpu"
	"glider/internal/ml"
	"glider/internal/obs"
	"glider/internal/simrunner"
	"glider/internal/workload"
)

// Training constants. The Estimator stores hullSlack, hullAbsSlack and
// minIPCBound, so a loaded model keeps the values it was trained with.
const (
	// fitSeeds is the number of fit-split seeds. More seeds would teach the
	// heads to average across trace-seed jitter, shrinking the calibration
	// residuals and therefore the bounds, at proportional training cost.
	fitSeeds = 1
	// ridgeLambda is the ridge penalty of every head.
	ridgeLambda = 0.05
	// minIPCBound floors the IPC bound: a zero calibration residual must
	// not produce a zero-width bound.
	minIPCBound = 0.03
	// hullSlack and hullAbsSlack widen the gate's feature hull, relative to
	// the per-feature training span and absolutely for near-constant
	// features under seed jitter.
	hullSlack, hullAbsSlack = 0.35, 0.02
)

// TrainConfig sizes a training run. Zero values take the documented
// defaults, so callers set only what they mean to change.
type TrainConfig struct {
	// Workloads are the training workloads — anything workload.Resolve
	// accepts. At least two, so the feature hull has width.
	Workloads []string
	// Policies are the policy names to train heads for.
	Policies []string
	// AccessesList are the trace lengths simulated per workload. One value
	// trains a model valid only at that length (the hull pins
	// log2_accesses); multiple values widen the hull across lengths.
	AccessesList []int
	// Seed is the base trace seed. Training simulates the same
	// (workload, accesses) grid at fitSeeds+2 consecutive seeds and splits
	// by seed: seeds Seed .. Seed+fitSeeds−1 fit the linear heads, seed
	// Seed+fitSeeds becomes the anchor split (its exact values are stored
	// in the model and every prediction is corrected against its nearest
	// anchor), and seed Seed+fitSeeds+1 is the calibration split — fresh
	// traces of the same workloads, predicted by the full anchored model,
	// which is exactly the error mode the gate admits at serving time:
	// predicting an unseen trace of an in-hull workload. Held-out-workload
	// generalization is intentionally NOT what the bounds promise; queries
	// outside the feature hull are refused by the gate instead.
	Seed int64
	// Inflate multiplies the max calibration residual into the conformal
	// bound (default 2.0) — headroom so bounds survive distribution drift
	// between calibration and serving.
	Inflate float64
	// MinMissBound floors the miss-rate bound (default 0.015), as
	// minIPCBound floors the IPC bound.
	MinMissBound float64
	// Workers bounds concurrent simulation jobs (0 = one per CPU). Results
	// are bit-identical for every worker count.
	Workers int
	// Progress/Obs/Sink are forwarded to the simulation runner.
	Progress func(simrunner.Progress)
	Obs      *obs.Registry
	Sink     obs.Sink
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Inflate <= 0 {
		c.Inflate = 2.0
	}
	if c.MinMissBound <= 0 {
		c.MinMissBound = 0.015
	}
	return c
}

// PolicyEval is one policy's held-out calibration evaluation, computed on
// the quantized heads (the exact model that serves).
type PolicyEval struct {
	Policy string `json:"policy"`
	// MAEMiss / MAEIPC are mean absolute calibration residuals.
	MAEMiss float64 `json:"mae_miss"`
	MAEIPC  float64 `json:"mae_ipc"`
	// QMiss / QIPC are the resulting conformal bounds.
	QMiss float64 `json:"q_miss"`
	QIPC  float64 `json:"q_ipc"`
	// FitSamples / CalibSamples count the split sizes.
	FitSamples   int `json:"fit_samples"`
	CalibSamples int `json:"calib_samples"`
}

// Report summarizes a training run.
type Report struct {
	Cells        int          `json:"cells"`
	Workloads    []string     `json:"workloads"`
	AccessesList []int        `json:"accesses_list"`
	Seed         int64        `json:"seed"`
	CalibSeed    int64        `json:"calib_seed"`
	Policies     []PolicyEval `json:"policies"`
	MeanMAEMiss  float64      `json:"mean_mae_miss"`
	MeanMAEIPC   float64      `json:"mean_mae_ipc"`
	MaxQMiss     float64      `json:"max_q_miss"`
	MaxQIPC      float64      `json:"max_q_ipc"`
}

// Render writes the per-policy evaluation table.
func (r Report) Render(w io.Writer) {
	fmt.Fprintf(w, "Surrogate training: %d cells over %d workloads (fit seed %d, calib seed %d)\n",
		r.Cells, len(r.Workloads), r.Seed, r.CalibSeed)
	fmt.Fprintf(w, "  %-10s %9s %9s %9s %9s\n", "policy", "MAE miss", "Q miss", "MAE ipc", "Q ipc")
	for _, p := range r.Policies {
		fmt.Fprintf(w, "  %-10s %9.4f %9.4f %9.4f %9.4f\n", p.Policy, p.MAEMiss, p.QMiss, p.MAEIPC, p.QIPC)
	}
	fmt.Fprintf(w, "  mean MAE miss %.4f, ipc %.4f; max bound miss %.4f, ipc %.4f\n",
		r.MeanMAEMiss, r.MeanMAEIPC, r.MaxQMiss, r.MaxQIPC)
}

// trainPair is one (workload, accesses, seed) training point: its features
// plus the exact simulation outcome per policy.
type trainPair struct {
	spec     workload.Spec
	accesses int
	seed     int64
	feats    []float64
	miss     []float64 // by policy index
	ipc      []float64
}

// Train simulates the (workload, accesses, policy) grid exactly at
// fitSeeds+2 consecutive seeds, extracts features per (workload, accesses,
// seed) triple, fits per-policy quantized ridge heads on the fit split,
// stores the anchor split's exact values for anchored prediction, and
// calibrates conformal bounds on the calibration split — fresh traces of
// the same workloads, predicted by the full anchored model, the
// distribution the confidence gate admits at serving time.
// Training is deterministic: simulation results are assembled by index,
// feature aggregates are order-free, and the solver is pivoted Gaussian
// elimination — the same config yields a bit-identical model for any worker
// count, rerun, or machine.
func Train(ctx context.Context, cfg TrainConfig) (*Estimator, Report, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workloads) < 2 {
		return nil, Report{}, fmt.Errorf("estimate: training needs >= 2 workloads, got %d", len(cfg.Workloads))
	}
	if len(cfg.Policies) == 0 {
		return nil, Report{}, fmt.Errorf("estimate: training needs >= 1 policy")
	}
	if len(cfg.AccessesList) == 0 {
		return nil, Report{}, fmt.Errorf("estimate: training needs >= 1 accesses value")
	}
	specs := make([]workload.Spec, len(cfg.Workloads))
	for i, name := range cfg.Workloads {
		spec, err := workload.Resolve(name)
		if err != nil {
			return nil, Report{}, fmt.Errorf("estimate: training workload %q: %w", name, err)
		}
		specs[i] = spec
	}

	// One pair per (workload, accesses, seed); features come from the same
	// shared trace the simulations consume.
	anchorSeed := cfg.Seed + fitSeeds
	calibSeed := anchorSeed + 1
	var fit, anchor, calib []*trainPair
	for _, spec := range specs {
		for _, acc := range cfg.AccessesList {
			for seed := cfg.Seed; seed <= calibSeed; seed++ {
				t, err := workload.SharedE(spec, acc, seed)
				if err != nil {
					return nil, Report{}, fmt.Errorf("estimate: trace for %s/%d: %w", spec.Name, acc, err)
				}
				p := &trainPair{
					spec: spec, accesses: acc, seed: seed,
					feats: Features(t),
					miss:  make([]float64, len(cfg.Policies)),
					ipc:   make([]float64, len(cfg.Policies)),
				}
				switch {
				case seed < anchorSeed:
					fit = append(fit, p)
				case seed == anchorSeed:
					anchor = append(anchor, p)
				default:
					calib = append(calib, p)
				}
			}
		}
	}
	pairs := append(append(append([]*trainPair(nil), fit...), anchor...), calib...)

	// Exact simulation of the full training grid on the parallel runner.
	type cell struct{ miss, ipc float64 }
	var jobs []simrunner.Job[cell]
	type slot struct{ pair, pol int }
	var slots []slot
	for pi, pair := range pairs {
		for qi, pol := range cfg.Policies {
			pair, pol := pair, pol
			jobs = append(jobs, simrunner.Job[cell]{
				Key: simrunner.Key("estimate-train", pair.spec.Name, strconv.Itoa(pair.accesses), strconv.FormatInt(pair.seed, 10), pol),
				Run: func(ctx context.Context) (cell, error) {
					res, err := cpu.SingleCore(ctx, pair.spec, pol, pair.accesses, pair.seed)
					if err != nil {
						return cell{}, fmt.Errorf("estimate train %s/%s: %w", pair.spec.Name, pol, err)
					}
					return cell{miss: res.LLC.MissRate(), ipc: res.IPC}, nil
				},
			})
			slots = append(slots, slot{pi, qi})
		}
	}
	opts := simrunner.Options{Workers: cfg.Workers, Progress: cfg.Progress, Obs: cfg.Obs, Sink: cfg.Sink}
	values, err := simrunner.Values(simrunner.Run(ctx, opts, jobs))
	if err != nil {
		return nil, Report{}, err
	}
	for i, v := range values {
		pairs[slots[i].pair].miss[slots[i].pol] = v.miss
		pairs[slots[i].pair].ipc[slots[i].pol] = v.ipc
	}

	est := &Estimator{
		Schema:       SchemaVersion,
		Names:        FeatureNames(),
		Slack:        hullSlack,
		AbsSlack:     hullAbsSlack,
		Inflate:      cfg.Inflate,
		MinMissBound: cfg.MinMissBound,
		MinIPCBound:  minIPCBound,
		Heads:        make(map[string]*Head, len(cfg.Policies)),
	}
	est.Mean, est.Scale = standardStats(fit)
	est.Min, est.Max = hull(pairs)

	fitRows := make([][]float64, len(fit))
	for i, p := range fit {
		fitRows[i] = est.standardize(p.feats)
	}
	anchorRows := make([][]float64, len(anchor))
	for i, p := range anchor {
		anchorRows[i] = est.standardize(p.feats)
	}
	calibRows := make([][]float64, len(calib))
	for i, p := range calib {
		calibRows[i] = est.standardize(p.feats)
	}
	est.AnchorFeats = anchorRows
	est.CalibFeats = calibRows

	report := Report{
		Cells:        len(jobs),
		AccessesList: append([]int(nil), cfg.AccessesList...),
		Seed:         cfg.Seed,
		CalibSeed:    calibSeed,
	}
	for _, spec := range specs {
		report.Workloads = append(report.Workloads, spec.Name)
	}

	// Per-policy heads, fitted in sorted policy order (determinism is by
	// construction here — each fit is independent — but sorted order keeps
	// the report stable however cfg.Policies was spelled).
	polOrder := make([]int, len(cfg.Policies))
	for i := range polOrder {
		polOrder[i] = i
	}
	sort.Slice(polOrder, func(a, b int) bool { return cfg.Policies[polOrder[a]] < cfg.Policies[polOrder[b]] })
	for _, qi := range polOrder {
		pol := cfg.Policies[qi]
		if _, dup := est.Heads[pol]; dup {
			return nil, Report{}, fmt.Errorf("estimate: duplicate policy %q in training config", pol)
		}
		yMiss := make([]float64, len(fit))
		yIPC := make([]float64, len(fit))
		for i, p := range fit {
			yMiss[i] = p.miss[qi]
			yIPC[i] = p.ipc[qi]
		}
		missM, err := ml.FitRidgeQuantized(fitRows, yMiss, ridgeLambda)
		if err != nil {
			return nil, Report{}, fmt.Errorf("estimate: fitting %s miss head: %w", pol, err)
		}
		ipcM, err := ml.FitRidgeQuantized(fitRows, yIPC, ridgeLambda)
		if err != nil {
			return nil, Report{}, fmt.Errorf("estimate: fitting %s ipc head: %w", pol, err)
		}

		ev := PolicyEval{Policy: pol, FitSamples: len(fit), CalibSamples: len(calib)}
		head := &Head{
			Miss: missM, IPC: ipcM, Samples: len(fit),
			AnchorMiss: make([]float64, len(anchor)),
			AnchorIPC:  make([]float64, len(anchor)),
			CalibMiss:  make([]float64, len(calib)),
			CalibIPC:   make([]float64, len(calib)),
			NoiseMiss:  make([]float64, len(calib)),
			NoiseIPC:   make([]float64, len(calib)),
		}
		for i, p := range anchor {
			head.AnchorMiss[i] = p.miss[qi]
			head.AnchorIPC[i] = p.ipc[qi]
		}
		// Calibration residuals of the full anchored predictor — the exact
		// function that serves.
		var maxMiss, maxIPC float64
		for i, p := range calib {
			predMiss, predIPC := est.predictHead(head, calibRows[i])
			rMiss := math.Abs(predMiss - p.miss[qi])
			rIPC := math.Abs(predIPC - p.ipc[qi])
			head.CalibMiss[i] = rMiss
			head.CalibIPC[i] = rIPC
			ev.MAEMiss += rMiss / float64(len(calib))
			ev.MAEIPC += rIPC / float64(len(calib))
			maxMiss = math.Max(maxMiss, rMiss)
			maxIPC = math.Max(maxIPC, rIPC)
		}
		head.MeanMiss, head.MeanIPC = ev.MAEMiss, ev.MAEIPC
		// Aleatoric floor per grid point: the target's spread across every
		// training seed of that (workload, accesses) pair. Keyed min/max
		// accumulation keeps this order-free.
		type span struct{ loM, hiM, loI, hiI float64 }
		spans := make(map[string]*span)
		for _, p := range pairs {
			k := p.spec.Name + "\x00" + strconv.Itoa(p.accesses)
			s, ok := spans[k]
			if !ok {
				spans[k] = &span{loM: p.miss[qi], hiM: p.miss[qi], loI: p.ipc[qi], hiI: p.ipc[qi]}
				continue
			}
			s.loM = math.Min(s.loM, p.miss[qi])
			s.hiM = math.Max(s.hiM, p.miss[qi])
			s.loI = math.Min(s.loI, p.ipc[qi])
			s.hiI = math.Max(s.hiI, p.ipc[qi])
		}
		var maxNoiseMiss, maxNoiseIPC float64
		for i, p := range calib {
			s := spans[p.spec.Name+"\x00"+strconv.Itoa(p.accesses)]
			head.NoiseMiss[i] = s.hiM - s.loM
			head.NoiseIPC[i] = s.hiI - s.loI
			maxNoiseMiss = math.Max(maxNoiseMiss, head.NoiseMiss[i])
			maxNoiseIPC = math.Max(maxNoiseIPC, head.NoiseIPC[i])
		}
		ev.QMiss = math.Max(cfg.Inflate*(maxMiss+maxNoiseMiss), cfg.MinMissBound)
		ev.QIPC = math.Max(cfg.Inflate*(maxIPC+maxNoiseIPC), minIPCBound)
		head.QMiss, head.QIPC = ev.QMiss, ev.QIPC
		est.Heads[pol] = head

		report.Policies = append(report.Policies, ev)
		report.MeanMAEMiss += ev.MAEMiss / float64(len(cfg.Policies))
		report.MeanMAEIPC += ev.MAEIPC / float64(len(cfg.Policies))
		report.MaxQMiss = math.Max(report.MaxQMiss, ev.QMiss)
		report.MaxQIPC = math.Max(report.MaxQIPC, ev.QIPC)
	}
	return est, report, nil
}

// standardStats computes per-feature mean and standard deviation over the
// fit pairs; constant features get scale 1 so standardization is a no-op on
// them (and the ridge penalty zeroes their weight).
func standardStats(fit []*trainPair) (mean, scale []float64) {
	mean = make([]float64, FeatureDim)
	scale = make([]float64, FeatureDim)
	n := float64(len(fit))
	for _, p := range fit {
		for i, x := range p.feats {
			mean[i] += x / n
		}
	}
	for _, p := range fit {
		for i, x := range p.feats {
			d := x - mean[i]
			scale[i] += d * d / n
		}
	}
	for i := range scale {
		if s := math.Sqrt(scale[i]); s > 1e-9 {
			scale[i] = s
		} else {
			scale[i] = 1
		}
	}
	return mean, scale
}

// hull computes the per-feature min/max over all training pairs.
func hull(pairs []*trainPair) (lo, hi []float64) {
	lo = make([]float64, FeatureDim)
	hi = make([]float64, FeatureDim)
	for i := range lo {
		lo[i] = math.Inf(1)
		hi[i] = math.Inf(-1)
	}
	for _, p := range pairs {
		for i, x := range p.feats {
			lo[i] = math.Min(lo[i], x)
			hi[i] = math.Max(hi[i], x)
		}
	}
	return lo, hi
}
