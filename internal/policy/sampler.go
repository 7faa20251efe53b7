package policy

import (
	"glider/internal/obs"
	"glider/internal/opt"
)

// optgenWindowFactor is the per-set OPTgen history window in units of
// associativity. The CRC2 Hawkeye samples 64 of 2048 sets with an
// 8×-associativity window, but its traces are ~150× longer than this
// simulator's synthetic ones: at that density a sampled set here would see
// barely one window's worth of accesses in an entire run and the predictor
// would never observe expiry (negative) signal. Sampling every set with a
// 4× window gives each predictor a comparable number of training events per
// simulated access — a simulation-scale adaptation documented in DESIGN.md.
const optgenWindowFactor = 4

// sweepPeriod is the global access cadence (in LLC accesses) at which all
// samplers detrain entries that fell out of their windows un-reused. Per-set
// cadences would fire only a couple of times per run at simulation scale,
// delaying all negative training to the end of the trace.
const sweepPeriod = 4096

// optSampler is the OPTgen training skeleton Hawkeye and Glider share. Every
// set is sampled: each has an OPTgen instance reconstructing MIN over its
// recent accesses and a table recording, per block, what the predictor saw
// when the block was last touched (payload V). A global sweep retires the
// entries whose blocks were not re-accessed within the OPTgen window.
type optSampler[V any] struct {
	window   uint64
	optgen   []opt.OPTgen
	last     []opt.Table[V]
	accesses uint64
	expired  []opt.Entry[V]
}

func newOPTSampler[V any](sets, ways int) optSampler[V] {
	window := optgenWindowFactor * ways
	return optSampler[V]{
		window: uint64(window),
		optgen: opt.NewOPTgens(sets, ways, window),
		last:   opt.NewTables[V](sets, window/2), // busier sets grow on their own
	}
}

// reset empties every set's OPTgen and table and restarts the sweep
// cadence, keeping the tables' grown slots and attached metrics.
func (s *optSampler[V]) reset() {
	for i := range s.optgen {
		s.optgen[i].Reset()
		s.last[i].Reset()
	}
	s.accesses = 0
	s.expired = s.expired[:0]
}

// attachObs publishes every set's OPTgen verdicts and occupancy into shared
// metrics.
func (s *optSampler[V]) attachObs(verdicts *obs.Vec, occupancy *obs.Histogram) {
	for i := range s.optgen {
		s.optgen[i].AttachObs(verdicts, occupancy)
	}
}

// access runs OPTgen on a demand access to block and stamps the block's
// entry with the set's new clock. It returns OPTgen's verdict and the entry's
// payload, which still describes the previous touch when found is true: the
// caller trains on it, then overwrites it. The payload pointer is valid until
// the next access or sweep.
func (s *optSampler[V]) access(set int, block uint64) (v opt.Verdict, prev *V, found bool) {
	g := &s.optgen[set]
	v = g.Access(block)
	_, prev, found = s.last[set].Touch(block, g.Clock())
	return v, prev, found
}

// tick counts one demand access. Every sweepPeriod accesses it retires the
// entries older than the window and returns them in ascending set, then
// block order: ISVM training is order-sensitive, so the detraining that
// follows must not depend on table layout. The slice is reused by the next
// sweep.
func (s *optSampler[V]) tick() []opt.Entry[V] {
	s.accesses++
	if s.accesses%sweepPeriod != 0 {
		return nil
	}
	s.expired = s.expired[:0]
	for set := range s.last {
		s.expired = s.last[set].Expire(s.optgen[set].Clock(), s.window, s.expired)
	}
	return s.expired
}
