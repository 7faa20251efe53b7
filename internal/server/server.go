// Package server implements gliderd's HTTP API: a backpressured front end
// over the repository's simulation engine. Requests name a (workload,
// policy, accesses, seed) cell; the server canonicalizes each into a job
// hash, coalesces duplicates onto one execution, queues jobs into a bounded
// buffer (rejecting with 429 + Retry-After when full), runs them on a fixed
// set of workers that each take one job from the queue at a time, and
// caches marshaled results in an LRU keyed by the job hash. Per-request
// deadlines propagate as context cancellation all the way into the
// simulation loops, and a graceful drain lets running jobs finish while
// queued and new work is rejected with 503.
//
// Because results are produced by the same experiments entry points a
// direct run uses (experiments.RunCell / RunPredictCell / RunEstimateCell)
// and cached as
// marshaled bytes, a server response's result field is byte-identical to a
// direct run — the property the differential test suite pins.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"glider/internal/experiments"
	"glider/internal/ledger"
	"glider/internal/obs"
	"glider/internal/simrunner"
)

// Config sizes the server. Zero values select the documented defaults.
type Config struct {
	// QueueDepth bounds the number of accepted jobs no worker has started;
	// beyond it requests are rejected with 429 (default 64).
	QueueDepth int
	// Workers is the number of jobs that run at once, one per worker
	// (default GOMAXPROCS). A node holds at most QueueDepth + Workers jobs.
	Workers int
	// CacheEntries bounds the result LRU (default 256).
	CacheEntries int
	// DefaultTimeout is the per-request deadline when the job does not set
	// timeout_ms (default 60s).
	DefaultTimeout time.Duration
	// Limits bounds what a single job may ask for.
	Limits Limits
	// ShardID names this instance inside a fleet. When set, every response
	// carries it in the ShardHeader header and the /healthz payload reports
	// it — the attribution the gateway's routing tests pin.
	ShardID string
	// Obs receives the server's metrics; nil allocates a fresh registry
	// (exposed on /metrics either way).
	Obs *obs.Registry
	// Ledger, when set, records every successfully served result as a
	// content-addressed artifact and exposes the chain head and inclusion
	// proofs on /v1/ledger/root and /v1/ledger/proof. Recording is
	// best-effort: a ledger failure never fails the job that produced the
	// result; server.ledger.append_errors counts it. nil disables the
	// endpoints (they answer 404).
	Ledger *ledger.Ledger
	// Executor overrides job execution — the deterministic seam the
	// backpressure and drain tests use. nil selects the real experiments
	// entry points.
	Executor func(ctx context.Context, spec JobSpec) (json.RawMessage, error)
}

func (c Config) defaulted() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	return c
}

// Sentinel rejections: errQueueFull is a 429 and errDraining a 503, both
// with Retry-After; errNoLedger is a 404.
var (
	errQueueFull = &Error{Status: http.StatusTooManyRequests, RetryAfter: 1, Msg: "job queue is full"}
	errDraining  = &Error{Status: http.StatusServiceUnavailable, RetryAfter: 1, Msg: "server is draining"}
	errNoLedger  = &Error{Status: http.StatusNotFound, Msg: "no ledger configured"}
)

// Server is the gliderd service: the shared request Front over a local
// Backend — a bounded queue, Config.Workers workers that each run one
// flight at a time, and an optional ledger. Create with New, mount Handler,
// stop with Drain.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	front *Front
	queue chan *Flight

	// stop is closed by Drain, under mu. Submit checks it under mu inside
	// the front's lock, so every flight is refused, started by a worker
	// before the close, or still queued at the close and answered 503.
	mu          sync.Mutex
	stop        chan struct{}
	workersDone chan struct{}

	queueDepth   *obs.Histogram
	waitTimer    *obs.Timer
	execTimer    *obs.Timer
	rejectedFul  *obs.Counter
	rejectedDrn  *obs.Counter
	appendErrors *obs.Counter
}

// New builds a server and starts its workers.
func New(cfg Config) *Server {
	cfg = cfg.defaulted()
	s := &Server{
		cfg:         cfg,
		reg:         cfg.Obs,
		queue:       make(chan *Flight, cfg.QueueDepth),
		stop:        make(chan struct{}),
		workersDone: make(chan struct{}),
	}
	s.front = NewFront(s, s.reg, "server", "", cfg.Limits, cfg.CacheEntries, cfg.DefaultTimeout)
	s.queueDepth = s.reg.Histogram("server.queue.depth", obs.LinearBuckets(0, float64(max(cfg.QueueDepth/8, 1)), 9))
	s.waitTimer = s.reg.Timer("server.job.wait.seconds")
	s.execTimer = s.reg.Timer("server.job.exec.seconds")
	s.rejectedFul = s.reg.Counter("server.rejected.queue_full")
	s.rejectedDrn = s.reg.Counter("server.rejected.draining")
	s.appendErrors = s.reg.Counter("server.ledger.append_errors")
	var wg sync.WaitGroup
	wg.Add(cfg.Workers)
	for range cfg.Workers {
		go func() {
			defer wg.Done()
			s.work()
		}()
	}
	go func() {
		wg.Wait()
		close(s.workersDone)
	}()
	return s
}

// Registry exposes the server's metric registry (the /metrics source).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Drain stops accepting work, rejects everything still queued with 503, and
// waits — bounded by ctx — for the running flights to finish. Safe to call
// more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining() {
		close(s.stop)
	}
	s.mu.Unlock()
	// Nothing joins the queue once stop is closed, so this empties it for
	// good; a worker that took a flight in the meantime rejects it too.
queued:
	for {
		select {
		case f := <-s.queue:
			s.reject(f)
		default:
			break queued
		}
	}
	select {
	case <-s.workersDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// draining reports whether Drain has begun.
func (s *Server) draining() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// ---------------------------------------------------------------- workers

// work runs queued flights one at a time until Drain.
func (s *Server) work() {
	for {
		select {
		case <-s.stop:
			return
		case f := <-s.queue:
			// A stop that raced the receive wins: once draining is
			// observable, nothing queued may start.
			if s.draining() {
				s.reject(f)
			} else {
				s.run(f)
			}
		}
	}
}

// run executes one flight under its own request context, so its deadline
// cancels it mid-simulation and a drain does not. The one-job simrunner.Run
// turns a panic into the flight's error and times the job.
func (s *Server) run(f *Flight) {
	s.waitTimer.Observe(time.Since(f.enqueued))
	r := simrunner.Run(f.Ctx, simrunner.Options{Workers: 1, Obs: s.reg}, []simrunner.Job[json.RawMessage]{{
		Key: f.Hash,
		Run: func(ctx context.Context) (json.RawMessage, error) {
			start := time.Now()
			res, err := s.exec(ctx, f.Spec)
			s.execTimer.Observe(time.Since(start))
			return res, err
		},
	}})
	f.Finish(r[0].Value, false, r[0].Err)
}

// reject answers a queued flight 503 because the server is draining.
func (s *Server) reject(f *Flight) {
	s.rejectedDrn.Inc()
	f.Finish(nil, false, errDraining)
}

// -------------------------------------------------------------- execution

func (s *Server) exec(ctx context.Context, spec JobSpec) (json.RawMessage, error) {
	res, err := s.execInner(ctx, spec)
	if err == nil && s.cfg.Ledger != nil {
		// Record the served bytes. Best-effort by design: a failed append is
		// counted, and the job still answers. Artifacts are
		// content-addressed, so a result served again after the cache
		// dropped it is recorded once.
		if kind := ArtifactKind(spec.Kind); kind != "" {
			if _, err := s.cfg.Ledger.Append(kind, json.RawMessage(res)); err != nil {
				s.appendErrors.Inc()
			}
		}
	}
	return res, err
}

func (s *Server) execInner(ctx context.Context, spec JobSpec) (json.RawMessage, error) {
	if s.cfg.Executor != nil {
		return s.cfg.Executor(ctx, spec)
	}
	switch spec.Kind {
	case KindSim:
		res, err := experiments.RunCell(ctx, spec.Workload, spec.Policy, spec.Accesses, spec.Seed)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	case KindPredict:
		res, err := experiments.RunPredictCell(ctx, spec.Workload, spec.Policy, spec.Accesses, spec.Seed, spec.TopPCs, spec.ISVMRows)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	case KindEstimate:
		res, err := experiments.RunEstimateCell(ctx, spec.Workload, spec.Policy, spec.Accesses, spec.Seed)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	default:
		return nil, &Error{Status: 422, Msg: fmt.Sprintf("unknown job kind %q", spec.Kind)}
	}
}

// ArtifactKind maps a job kind to the ledger artifact kind its result is
// recorded under ("" for kinds the ledger does not record). Clients derive a
// served result's artifact ID with ledger.ArtifactIDFor(ArtifactKind(kind),
// envelope.Result).
func ArtifactKind(jobKind string) string {
	switch jobKind {
	case KindSim:
		return experiments.LedgerKindCell
	case KindPredict:
		return experiments.LedgerKindPredict
	case KindEstimate:
		return experiments.LedgerKindEstimate
	}
	return ""
}

// ---------------------------------------------------------------- backend

// Submit queues f for the workers without blocking: a full queue rejects
// it with 429 and a draining server with 503.
func (s *Server) Submit(f *Flight) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining() {
		s.rejectedDrn.Inc()
		return errDraining
	}
	f.enqueued = time.Now()
	select {
	case s.queue <- f:
		s.queueDepth.Observe(float64(len(s.queue)))
		return nil
	default:
		s.rejectedFul.Inc()
		return errQueueFull
	}
}

// LedgerRoot returns the local ledger's chain head.
func (s *Server) LedgerRoot(ctx context.Context) (ledger.ChainState, error) {
	if s.cfg.Ledger == nil {
		return ledger.ChainState{}, errNoLedger
	}
	return s.cfg.Ledger.Root(), nil
}

// LedgerProof proves a hex artifact ID against the local ledger, anchoring
// the artifact first if it is still pending. Unknown artifacts answer 404
// so a gateway can fan a proof request across a fleet and take the first
// hit.
func (s *Server) LedgerProof(ctx context.Context, artifact string) (ledger.Proof, error) {
	if s.cfg.Ledger == nil {
		return ledger.Proof{}, errNoLedger
	}
	id, err := ledger.ParseID(artifact)
	if err != nil {
		return ledger.Proof{}, &Error{Status: http.StatusBadRequest, Msg: fmt.Sprintf("artifact: %v", err)}
	}
	p, err := s.cfg.Ledger.Prove(id)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ledger.ErrUnknownArtifact) {
			status = http.StatusNotFound
		}
		return ledger.Proof{}, &Error{Status: status, Msg: err.Error()}
	}
	return p, nil
}

// ----------------------------------------------------------------- HTTP

// ShardHeader is the response header naming the instance that served a
// request (set only when Config.ShardID is non-empty).
const ShardHeader = "X-Gliderd-Shard"

// Health is the /healthz payload: the coarse state string ("ok" or
// "draining"), the shard identity, queue occupancy (flights accepted but
// not yet started by a worker) and the capacity the node runs with, so a
// gateway can both gate membership on Status and see saturation building
// before it turns into 429s. A node holds at most QueueCapacity + Workers
// flights.
type Health struct {
	Status        string `json:"status"`
	Shard         string `json:"shard,omitempty"`
	Draining      bool   `json:"draining"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	Workers       int    `json:"workers"`
}

// Health reports the node's state as /healthz serves it, with the queue
// capacity and worker count resolved from their defaults.
func (s *Server) Health() Health {
	h := Health{
		Status:        "ok",
		Shard:         s.cfg.ShardID,
		Draining:      s.draining(),
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		Workers:       s.cfg.Workers,
	}
	if h.Draining {
		h.Status = "draining"
	}
	return h
}

// Handler mounts the API: the front's endpoints plus /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.front.Mount(mux)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.cfg.ShardID == "" {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(ShardHeader, s.cfg.ShardID)
		mux.ServeHTTP(w, r)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("server.http.healthz").Inc()
	h := s.Health()
	status := http.StatusOK
	if h.Draining {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, h)
}
