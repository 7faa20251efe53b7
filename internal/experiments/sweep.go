package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"glider/internal/cpu"
	"glider/internal/estimate"
	"glider/internal/policy"
	"glider/internal/simrunner"
	"glider/internal/workload"
)

// ------------------------------------------------------------- Sweep pruning
//
// A configuration sweep asks, per workload, which policy wins. The exhaustive
// answer simulates every (workload, policy) cell; the pruned answer runs the
// surrogate over the whole grid and exactly simulates only the cells whose
// confidence intervals could contain the winner, plus every cell the
// confidence gate refused. The conformal bounds give the guarantee: if every
// surrogate error is within its bound, a cell outside the margin set cannot
// beat the best upper confidence bound, so the true winner is always in the
// simulated set and the reported frontier is exact — the surrogate can skip
// cells, never misreport one it kept.

// SweepOptions selects the sweep grid and the model for pruning.
type SweepOptions struct {
	// Workloads are the sweep's workloads (anything workload.Resolve
	// accepts); nil means DefaultSweepWorkloads.
	Workloads []string
	// Policies are the policy names; nil means every registered policy.
	Policies []string
	// Estimator prunes the sweep; RunSweepPruned requires it and
	// RunSweepExhaustive ignores it.
	Estimator *estimate.Estimator
}

// DefaultSweepWorkloads is the thousand-cell sweep grid: the paper's 33
// single-core benchmarks, the scenario zoo, and a Zipf/mix parameter sweep —
// 53 workloads, which over the 19-policy registry is 1007 cells.
func DefaultSweepWorkloads() []string {
	var names []string
	for _, s := range workload.SingleCoreSet() {
		names = append(names, s.Name)
	}
	names = append(names, DefaultZoo()...)
	for _, skew := range []string{"0.6", "0.8", "1.0", "1.2"} {
		for _, objects := range []string{"32768", "65536", "131072"} {
			names = append(names, "zipf(objects="+objects+",skew="+skew+")")
		}
	}
	names = append(names,
		"zipf(objects=131072,skew=0.8,scan-every=25000,scan-len=8192)",
		"zipf(objects=98304,skew=1.0,churn-every=40000)",
		"mix(poisson,zipf(objects=65536,skew=0.8),soplex,p=0.6)",
	)
	return names
}

// SweepCell is one grid cell. Source says how the numbers were produced:
// "exact" cells are simulation output; "surrogate" cells carry the model's
// prediction plus its conformal bound.
type SweepCell struct {
	Workload    string  `json:"workload"`
	Policy      string  `json:"policy"`
	IPC         float64 `json:"ipc"`
	LLCMissRate float64 `json:"llc_miss_rate"`
	Source      string  `json:"source"`
	// MissRateBound bounds a surrogate cell's miss-rate error; zero on
	// exact cells.
	MissRateBound float64 `json:"llc_miss_rate_bound,omitempty"`
}

// Sweep is a grid sweep result. Cells are workload-major in input order;
// Frontier holds each workload's winner (lowest exact miss rate, policy name
// ascending on ties), always an exact cell.
type Sweep struct {
	Workloads      []string    `json:"workloads"`
	Policies       []string    `json:"policies"`
	Accesses       int         `json:"accesses"`
	Seed           int64       `json:"seed"`
	Cells          []SweepCell `json:"cells"`
	Frontier       []SweepCell `json:"frontier"`
	ExactCells     int         `json:"exact_cells"`
	SurrogateCells int         `json:"surrogate_cells"`
}

// at returns the cell of workload wi and policy pi. Both sweep variants
// hold the whole grid, workload-major.
func (s Sweep) at(wi, pi int) SweepCell { return s.Cells[wi*len(s.Policies)+pi] }

// PruneFactor is the grid-size-to-exact-simulations ratio — the sweep-cost
// reduction the surrogate bought (1.0 for an exhaustive sweep).
func (s Sweep) PruneFactor() float64 {
	if s.ExactCells == 0 {
		return 0
	}
	return float64(len(s.Cells)) / float64(s.ExactCells)
}

// Render writes the sweep summary and the per-workload frontier.
func (s Sweep) Render(w io.Writer) {
	fmt.Fprintf(w, "Sweep: %d workloads × %d policies = %d cells; %d simulated exactly, %d surrogate (%.1f× pruning)\n",
		len(s.Workloads), len(s.Policies), len(s.Cells), s.ExactCells, s.SurrogateCells, s.PruneFactor())
	fmt.Fprintf(w, "  %-64s %-10s %9s %7s\n", "workload", "winner", "miss", "ipc")
	for _, c := range s.Frontier {
		fmt.Fprintf(w, "  %-64s %-10s %8.2f%% %7.3f\n", c.Workload, c.Policy, 100*c.LLCMissRate, c.IPC)
	}
}

// resolveSweep applies option defaults and resolves workload specs.
func resolveSweep(opts SweepOptions) ([]workload.Spec, []string, error) {
	names := opts.Workloads
	if len(names) == 0 {
		names = DefaultSweepWorkloads()
	}
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		spec, err := workload.Resolve(n)
		if err != nil {
			return nil, nil, fmt.Errorf("sweep workload %q: %w", n, err)
		}
		specs[i] = spec
	}
	pols := opts.Policies
	if len(pols) == 0 {
		pols = policy.Names()
	}
	for _, p := range pols {
		if _, ok := policy.Registry[p]; !ok {
			return nil, nil, fmt.Errorf("sweep: unknown policy %q", p)
		}
	}
	return specs, pols, nil
}

// RunSweepExhaustive simulates every cell of the grid exactly.
func RunSweepExhaustive(cfg Config, opts SweepOptions) (Sweep, error) {
	specs, pols, err := resolveSweep(opts)
	if err != nil {
		return Sweep{}, err
	}
	s := newSweep(cfg, specs, pols)
	if s.Cells, err = runGrid(cfg, specs, pols); err != nil {
		return Sweep{}, err
	}
	s.ExactCells = len(s.Cells)
	s.computeFrontier()
	return s, nil
}

// runGrid simulates every (workload, policy) cell exactly, one runner job
// per cell, and returns the cells workload-major in input order. It is the
// one grid behind every single-core study: the sweeps, the zoo, the learned
// and lineage studies, and Figures 11–12.
func runGrid(cfg Config, specs []workload.Spec, pols []string) ([]SweepCell, error) {
	jobs := make([]simrunner.Job[SweepCell], 0, len(specs)*len(pols))
	for _, spec := range specs {
		for _, pol := range pols {
			jobs = append(jobs, exactCellJob(cfg, spec, pol))
		}
	}
	return simrunner.Values(simrunner.Run(context.Background(), cfg.runnerOpts(), jobs))
}

// RunSweepPruned runs the surrogate over the grid and simulates only the
// margin set: per workload, every cell the gate refused, the predicted
// winner, and every confident cell whose lower confidence bound does not
// exceed the best exactly-simulated miss rate. Exact cells are produced by
// the same simulation entry point as RunSweepExhaustive, so shared cells
// are bit-identical between the two.
func RunSweepPruned(cfg Config, opts SweepOptions) (Sweep, error) {
	specs, pols, err := resolveSweep(opts)
	if err != nil {
		return Sweep{}, err
	}
	est := opts.Estimator
	if est == nil {
		return Sweep{}, fmt.Errorf("sweep: pruning needs an estimator")
	}
	s := newSweep(cfg, specs, pols)

	// Feature extraction per workload (trace generation + reuse analysis),
	// on the runner: it is the pruned sweep's main per-workload cost.
	var featJobs []simrunner.Job[[]float64]
	for _, spec := range specs {
		spec := spec
		featJobs = append(featJobs, simrunner.Job[[]float64]{
			Key: simrunner.Key("sweep-feat", spec.Name),
			Run: func(ctx context.Context) ([]float64, error) {
				t, err := workload.SharedE(spec, cfg.Accesses, cfg.Seed)
				if err != nil {
					return nil, err
				}
				return estimate.Features(t), nil
			},
		})
	}
	feats, err := simrunner.Values(simrunner.Run(context.Background(), cfg.runnerOpts(), featJobs))
	if err != nil {
		return Sweep{}, err
	}

	// Surrogate pass, then two exact batches. The anchor batch simulates, per
	// workload, every gate-refused cell plus the confident cell with the
	// lowest upper confidence bound — the predicted winner. The margin batch
	// then compares every remaining cell's lower confidence bound against the
	// workload's best *exact* anchor miss rate, not against a pred+bound
	// upper estimate: anchoring the threshold on an exact value halves the
	// margin window and therefore the number of cells that must be
	// simulated. The guarantee is unchanged — a skipped cell has
	// pred − bound > (some exact miss rate) ≥ (final frontier miss rate), so
	// under valid bounds its true miss rate is strictly worse than the
	// reported winner's.
	preds := make([][]estimate.Prediction, len(specs))
	type ref struct{ wl, pol int }
	exactVal := make(map[ref]SweepCell)
	runBatch := func(jobs []simrunner.Job[SweepCell], refs []ref) error {
		cells, err := simrunner.Values(simrunner.Run(context.Background(), cfg.runnerOpts(), jobs))
		if err != nil {
			return err
		}
		for i, c := range cells {
			exactVal[refs[i]] = c
		}
		return nil
	}

	var anchorJobs []simrunner.Job[SweepCell]
	var anchorRefs []ref
	for wi, spec := range specs {
		preds[wi] = make([]estimate.Prediction, len(pols))
		bestQi, bestUCB := -1, 0.0
		for qi, pol := range pols {
			p := est.Predict(pol, feats[wi])
			preds[wi][qi] = p
			if !p.Confident {
				anchorJobs = append(anchorJobs, exactCellJob(cfg, spec, pol))
				anchorRefs = append(anchorRefs, ref{wi, qi})
				continue
			}
			if ucb := p.MissRate + p.MissBound; bestQi < 0 || ucb < bestUCB {
				bestQi, bestUCB = qi, ucb
			}
		}
		if bestQi >= 0 {
			anchorJobs = append(anchorJobs, exactCellJob(cfg, spec, pols[bestQi]))
			anchorRefs = append(anchorRefs, ref{wi, bestQi})
		}
	}
	if err := runBatch(anchorJobs, anchorRefs); err != nil {
		return Sweep{}, err
	}

	var marginJobs []simrunner.Job[SweepCell]
	var marginRefs []ref
	for wi, spec := range specs {
		thr, haveThr := 0.0, false
		for qi := range pols {
			if c, ok := exactVal[ref{wi, qi}]; ok && (!haveThr || c.LLCMissRate < thr) {
				thr, haveThr = c.LLCMissRate, true
			}
		}
		for qi, pol := range pols {
			if _, done := exactVal[ref{wi, qi}]; done {
				continue
			}
			p := preds[wi][qi]
			if haveThr && p.MissRate-p.MissBound > thr {
				continue // provably not the winner (given the bounds)
			}
			marginJobs = append(marginJobs, exactCellJob(cfg, spec, pol))
			marginRefs = append(marginRefs, ref{wi, qi})
		}
	}
	if err := runBatch(marginJobs, marginRefs); err != nil {
		return Sweep{}, err
	}

	for wi, spec := range specs {
		for qi, pol := range pols {
			if c, ok := exactVal[ref{wi, qi}]; ok {
				s.Cells = append(s.Cells, c)
				s.ExactCells++
				continue
			}
			p := preds[wi][qi]
			s.Cells = append(s.Cells, SweepCell{
				Workload:      spec.Name,
				Policy:        pol,
				IPC:           p.IPC,
				LLCMissRate:   p.MissRate,
				Source:        "surrogate",
				MissRateBound: p.MissBound,
			})
			s.SurrogateCells++
		}
	}
	s.computeFrontier()
	return s, nil
}

func newSweep(cfg Config, specs []workload.Spec, pols []string) Sweep {
	s := Sweep{
		Policies: append([]string(nil), pols...),
		Accesses: cfg.Accesses,
		Seed:     cfg.Seed,
	}
	for _, spec := range specs {
		s.Workloads = append(s.Workloads, spec.Name)
	}
	return s
}

// exactCellJob simulates one cell; every grid builds its exact cells
// through it, which is what makes shared cells bit-identical.
func exactCellJob(cfg Config, spec workload.Spec, pol string) simrunner.Job[SweepCell] {
	return simrunner.Job[SweepCell]{
		Key: simrunner.Key("sweep", spec.Name, strconv.Itoa(cfg.Accesses), pol),
		Run: func(ctx context.Context) (SweepCell, error) {
			res, err := cpu.SingleCore(ctx, spec, pol, cfg.Accesses, cfg.Seed)
			if err != nil {
				return SweepCell{}, fmt.Errorf("sweep %s/%s: %w", spec.Name, pol, err)
			}
			return SweepCell{
				Workload:    spec.Name,
				Policy:      pol,
				IPC:         res.IPC,
				LLCMissRate: res.LLC.MissRate(),
				Source:      "exact",
			}, nil
		},
	}
}

// computeFrontier picks each workload's winner among its exact cells:
// lowest miss rate, policy name ascending on ties. Surrogate cells never
// enter the frontier — under valid bounds the margin set always contains
// the true winner, so restricting to exact cells loses nothing.
func (s *Sweep) computeFrontier() {
	byWL := make(map[string]SweepCell, len(s.Workloads))
	for _, c := range s.Cells {
		if c.Source != "exact" {
			continue
		}
		best, ok := byWL[c.Workload]
		if !ok || c.LLCMissRate < best.LLCMissRate ||
			(c.LLCMissRate == best.LLCMissRate && c.Policy < best.Policy) {
			byWL[c.Workload] = c
		}
	}
	s.Frontier = s.Frontier[:0]
	for _, wl := range s.Workloads {
		if c, ok := byWL[wl]; ok {
			s.Frontier = append(s.Frontier, c)
		}
	}
}
