package server

import (
	"fmt"
	"hash/fnv"
	"time"

	"glider/internal/policy"
	"glider/internal/workload"
)

// Job kinds accepted by the API.
const (
	// KindSim is a single-core timing simulation (experiments.RunCell).
	KindSim = "sim"
	// KindPredict is a prediction query: train a predictor-backed policy on
	// a workload and report per-PC verdicts plus Glider's ISVM rows
	// (experiments.RunPredictCell).
	KindPredict = "predict"
	// KindEstimate is a surrogate estimate: the learned proxy simulator
	// answers when its confidence gate accepts the cell and falls back to
	// exact simulation otherwise (experiments.RunEstimateCell). The result
	// names its provenance in the "source" field, echoed in the
	// X-Gliderd-Estimate response header.
	KindEstimate = "estimate"
)

// JobSpec is the wire format of one job. The zero values of the optional
// fields are normalized by Validate before hashing, so requests that spell
// the same job differently (omitted vs explicit defaults, any field order)
// coalesce onto one execution and one cache entry.
type JobSpec struct {
	Kind     string `json:"kind,omitempty"`
	Workload string `json:"workload"`
	Policy   string `json:"policy"`
	Accesses int    `json:"accesses"`
	Seed     int64  `json:"seed"`
	// TopPCs and ISVMRows apply to predict jobs only (sim jobs normalize
	// them to zero).
	TopPCs   int `json:"top_pcs,omitempty"`
	ISVMRows int `json:"isvm_rows,omitempty"`
	// TimeoutMS bounds this request's wall-clock time. It shapes the
	// request's context deadline, not the job's identity: it is excluded
	// from Hash so a retry with a longer timeout hits the cache.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Limits bounds what a single request may ask for.
type Limits struct {
	// MaxAccesses caps the trace length of one job.
	MaxAccesses int
	// MaxTopPCs and MaxISVMRows cap a predict job's report sizes.
	MaxTopPCs   int
	MaxISVMRows int
	// MaxTimeout caps the per-request deadline a client may pick.
	MaxTimeout time.Duration
}

// DefaultLimits returns the server's default request bounds.
func DefaultLimits() Limits {
	return Limits{
		MaxAccesses: 2_000_000,
		MaxTopPCs:   256,
		MaxISVMRows: 64,
		MaxTimeout:  5 * time.Minute,
	}
}

// defaulted fills zero limits from DefaultLimits.
func (l Limits) defaulted() Limits {
	d := DefaultLimits()
	if l.MaxAccesses <= 0 {
		l.MaxAccesses = d.MaxAccesses
	}
	if l.MaxTopPCs <= 0 {
		l.MaxTopPCs = d.MaxTopPCs
	}
	if l.MaxISVMRows <= 0 {
		l.MaxISVMRows = d.MaxISVMRows
	}
	if l.MaxTimeout <= 0 {
		l.MaxTimeout = d.MaxTimeout
	}
	return l
}

// Validate checks the spec against the limits and normalizes it: predict
// jobs get default report sizes, sim jobs zero theirs out. Call it before
// Hash. Errors carry 422 semantics.
func (j *JobSpec) Validate(lim Limits) error {
	lim = lim.defaulted()
	switch j.Kind {
	case KindSim, KindPredict, KindEstimate:
	default:
		return &Error{Status: 422, Msg: fmt.Sprintf("unknown job kind %q (want %q, %q, or %q)", j.Kind, KindSim, KindPredict, KindEstimate)}
	}
	spec, err := workload.Resolve(j.Workload)
	if err != nil {
		return &Error{Status: 422, Msg: fmt.Sprintf("unknown workload %q: %v", j.Workload, err)}
	}
	// Canonicalize so every spelling of a workload spec shares one job hash
	// (and therefore one cache entry) and echoes the same payload a direct
	// experiments.RunCell would produce.
	j.Workload = spec.Name
	if _, ok := policy.Registry[j.Policy]; !ok {
		return &Error{Status: 422, Msg: fmt.Sprintf("unknown policy %q", j.Policy)}
	}
	if j.Accesses < 1 || j.Accesses > lim.MaxAccesses {
		return &Error{Status: 422, Msg: fmt.Sprintf("accesses %d out of range [1, %d]", j.Accesses, lim.MaxAccesses)}
	}
	if j.TopPCs < 0 || j.ISVMRows < 0 || j.TimeoutMS < 0 {
		return &Error{Status: 422, Msg: "top_pcs, isvm_rows, and timeout_ms must be non-negative"}
	}
	switch j.Kind {
	case KindSim, KindEstimate:
		// Estimate jobs share sim's identity fields; report-size knobs do
		// not apply, so zero them for a canonical hash.
		j.TopPCs, j.ISVMRows = 0, 0
	case KindPredict:
		if !predictorCapable(j.Policy) {
			return &Error{Status: 422, Msg: fmt.Sprintf("policy %q does not expose a friendly/averse predictor", j.Policy)}
		}
		if j.TopPCs == 0 {
			j.TopPCs = 32
		}
		if j.TopPCs > lim.MaxTopPCs {
			return &Error{Status: 422, Msg: fmt.Sprintf("top_pcs %d exceeds limit %d", j.TopPCs, lim.MaxTopPCs)}
		}
		if j.ISVMRows == 0 {
			j.ISVMRows = 8
		}
		if j.ISVMRows > lim.MaxISVMRows {
			return &Error{Status: 422, Msg: fmt.Sprintf("isvm_rows %d exceeds limit %d", j.ISVMRows, lim.MaxISVMRows)}
		}
	}
	return nil
}

// predictorCapable reports whether the named policy implements
// cpu.FriendlyPredictor; the structural probe lives in the policy package
// so the catalog, validation, and test suites all share one source of truth.
func predictorCapable(name string) bool {
	return policy.PredictorCapable(name)
}

// Hash returns the job's canonical identity: an FNV-1a hash over the
// normalized identity fields with unambiguous separators. JSON field order
// cannot affect it (hashing happens after decoding), and TimeoutMS is
// deliberately excluded — the deadline shapes the request, not the result.
func (j JobSpec) Hash() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%d\x00%d\x00%d\x00%d",
		j.Kind, j.Workload, j.Policy, j.Accesses, j.Seed, j.TopPCs, j.ISVMRows)
	return fmt.Sprintf("j%016x", h.Sum64())
}
