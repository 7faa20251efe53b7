package server

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"glider/internal/ledger"
	"glider/internal/obs"
	"glider/internal/policy"
	"glider/internal/workload"
)

// Backend is what sits behind a Front: something that runs the jobs the
// front's cache cannot answer and serves a ledger. gliderd's Server queues
// them for its local workers; the gateway routes them across a ring of
// gliderd nodes.
type Backend interface {
	// Submit starts f and returns at once; the backend reports the outcome
	// later through f.Finish. The front calls it with its lock held, so it
	// must neither block nor call back into the front. An error rejects f:
	// no request ever joins it and it must not be finished.
	Submit(f *Flight) error
	// LedgerRoot returns the chain head of the ledger behind the backend.
	LedgerRoot(ctx context.Context) (ledger.ChainState, error)
	// LedgerProof returns the inclusion proof of a hex artifact ID.
	LedgerProof(ctx context.Context, artifact string) (ledger.Proof, error)
}

// Error is a failure with the answer it gets on the wire: the HTTP status,
// the Retry-After hint in seconds (0 sends none), and the message of the
// JSON error body.
type Error struct {
	Status     int
	RetryAfter int
	Msg        string
}

func (e *Error) Error() string { return e.Msg }

// Envelope is the response wrapper for one job: its canonical hash, whether
// the result came from a cache, and the result bytes exactly as the
// executor marshaled them.
type Envelope struct {
	Hash   string          `json:"hash"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Catalog lists what the server can simulate.
type Catalog struct {
	Workloads []string `json:"workloads"`
	// Schemes are the registered workload-spec schemes; jobs also accept
	// spec strings like "zipf(objects=4096,skew=0.9)" built from these.
	Schemes  []string `json:"schemes"`
	Policies []string `json:"policies"`
	// Predictors are the policies predict jobs accept.
	Predictors []string `json:"predictors"`
}

// CacheHeader reports which tier served a job on a door that names its own
// cache tier (the gateway: "gateway"): that name for a hit in the door's
// cache, "node" when the backend answered from its cache, "miss" when the
// job ran.
const CacheHeader = "X-Gliderd-Cache"

// EstimateHeader is the response header on /v1/estimate answers naming the
// result's provenance — "surrogate" or "exact-fallback" — mirroring the
// result's "source" field so clients and proxies can attribute an answer
// without parsing the body.
const EstimateHeader = "X-Gliderd-Estimate"

// Flight is one execution of a job hash in progress. Every request for the
// hash waits on it, and the first requester's context — carrying that
// request's deadline — bounds the execution.
type Flight struct {
	Spec JobSpec
	Hash string
	Ctx  context.Context

	front    *Front
	enqueued time.Time // when gliderd's queue took the flight
	done     chan struct{}
	result   json.RawMessage
	cached   bool
	err      error
}

// Finish publishes the flight's outcome and wakes its waiters; cached marks
// a result the backend answered from its own cache. A result enters the
// front's cache in the same critical section that retires the flight, so
// no request can miss both and run the job again. The backend calls Finish
// exactly once per flight it accepted.
func (f *Flight) Finish(res json.RawMessage, cached bool, err error) {
	fr := f.front
	fr.mu.Lock()
	if err == nil {
		fr.cacheAdd(f.Hash, res)
	}
	if fr.flights[f.Hash] == f {
		delete(fr.flights, f.Hash)
	}
	fr.mu.Unlock()
	f.result, f.cached, f.err = res, cached, err
	close(f.done)
}

// Front is the request path gliderd and the gateway share: strict
// decoding, validation, the canonical hash, one result LRU and one
// singleflight table, the request deadline, per-endpoint metrics, and the
// JSON and error answers. What its cache cannot answer goes to its Backend.
type Front struct {
	backend Backend
	reg     *obs.Registry
	prefix  string // metric names: <prefix>.http.<endpoint>, <prefix>.cache.hits, ...
	tier    string // CacheHeader value for a hit in this cache; "" sends no header
	limits  Limits
	entries int
	timeout time.Duration // deadline of a job without timeout_ms

	hits, misses, coalesced *obs.Counter

	// mu guards the LRU and the flight table together.
	mu      sync.Mutex
	flights map[string]*Flight
	cache   map[string]*list.Element
	order   *list.List // front = most recently used cacheEntry
}

// cacheEntry is one LRU slot.
type cacheEntry struct {
	hash   string
	result json.RawMessage
}

// NewFront builds a front over backend. prefix names its metrics in reg,
// tier is its CacheHeader value ("" for none), lim bounds every job, the
// LRU holds entries results, and timeout is the deadline of a job that
// sets no timeout_ms (capped by lim.MaxTimeout like any other).
func NewFront(backend Backend, reg *obs.Registry, prefix, tier string, lim Limits, entries int, timeout time.Duration) *Front {
	return &Front{
		backend:   backend,
		reg:       reg,
		prefix:    prefix,
		tier:      tier,
		limits:    lim.defaulted(),
		entries:   entries,
		timeout:   timeout,
		hits:      reg.Counter(prefix + ".cache.hits"),
		misses:    reg.Counter(prefix + ".cache.misses"),
		coalesced: reg.Counter(prefix + ".jobs.coalesced"),
		flights:   make(map[string]*Flight),
		cache:     make(map[string]*list.Element),
		order:     list.New(),
	}
}

// Mount registers the endpoints both doors serve.
func (fr *Front) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /metrics", fr.handleMetrics)
	mux.HandleFunc("GET /v1/catalog", fr.handleCatalog)
	mux.HandleFunc("GET /v1/ledger/root", fr.handleLedgerRoot)
	mux.HandleFunc("GET /v1/ledger/proof", fr.handleLedgerProof)
	for _, kind := range []string{KindSim, KindPredict, KindEstimate} {
		mux.HandleFunc("POST /v1/"+kind, fr.handleJob(kind))
	}
}

// ------------------------------------------------------------- resolution

// resolve answers a validated job from the cache, by joining the flight
// already running it, or by submitting a new flight, and names the tier
// that answered. The request's deadline is built only once the cache
// misses, so a hit does not pay for it. When a joined flight dies because
// its owner's deadline fired, live waiters retry — one of them becomes the
// new owner — so one impatient client cannot fail its neighbours.
func (fr *Front) resolve(parent context.Context, spec JobSpec) (Envelope, string, error) {
	env := Envelope{Hash: spec.Hash()}
	var ctx context.Context // the request's deadline; nil until the cache misses
	for {
		fr.mu.Lock()
		if res, ok := fr.cacheGet(env.Hash); ok {
			fr.mu.Unlock()
			if ctx == nil {
				fr.hits.Inc()
			}
			env.Cached, env.Result = true, res
			return env, fr.tier, nil
		}
		if ctx == nil {
			fr.mu.Unlock()
			fr.misses.Inc()
			var cancel context.CancelFunc
			ctx, cancel = fr.deadline(parent, spec)
			defer cancel()
			continue
		}
		f, joined := fr.flights[env.Hash]
		if !joined {
			f = &Flight{Spec: spec, Hash: env.Hash, Ctx: ctx, front: fr, done: make(chan struct{})}
			if err := fr.backend.Submit(f); err != nil {
				fr.mu.Unlock()
				return env, "", err
			}
			fr.flights[env.Hash] = f
		}
		fr.mu.Unlock()
		if joined {
			fr.coalesced.Inc()
		}
		select {
		case <-f.done:
			if f.err != nil && f.Ctx.Err() != nil && ctx.Err() == nil {
				continue // owner bailed; retake the job
			}
			if f.err != nil {
				return env, "", f.err
			}
			env.Cached, env.Result = f.cached, f.result
			if f.cached {
				return env, "node", nil
			}
			return env, "miss", nil
		case <-ctx.Done():
			// Our own deadline. If we own the flight, its context is ours:
			// the backend observes the cancellation and finishes the
			// flight, and its waiters retry under their own contexts.
			return env, "", ctx.Err()
		}
	}
}

// deadline derives a job's context from its request: timeout_ms, or the
// front's default, capped by Limits.MaxTimeout.
func (fr *Front) deadline(parent context.Context, spec JobSpec) (context.Context, context.CancelFunc) {
	d := fr.timeout
	if spec.TimeoutMS > 0 {
		d = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	return context.WithTimeout(parent, min(d, fr.limits.MaxTimeout))
}

// cacheGet returns the cached result bytes. Caller holds fr.mu.
func (fr *Front) cacheGet(hash string) (json.RawMessage, bool) {
	el, ok := fr.cache[hash]
	if !ok {
		return nil, false
	}
	fr.order.MoveToFront(el)
	return el.Value.(*cacheEntry).result, true
}

// cacheAdd inserts a result, evicting the least-recently-used entry past
// capacity. Caller holds fr.mu.
func (fr *Front) cacheAdd(hash string, res json.RawMessage) {
	if el, ok := fr.cache[hash]; ok {
		fr.order.MoveToFront(el)
		el.Value.(*cacheEntry).result = res
		return
	}
	fr.cache[hash] = fr.order.PushFront(&cacheEntry{hash: hash, result: res})
	for len(fr.cache) > fr.entries {
		el := fr.order.Back()
		fr.order.Remove(el)
		delete(fr.cache, el.Value.(*cacheEntry).hash)
	}
}

// ----------------------------------------------------------------- HTTP

func (fr *Front) handleJob(kind string) http.HandlerFunc {
	// Looked up once, so a cache hit allocates nothing to count itself.
	requests := fr.reg.Counter(fr.prefix + ".http." + kind)
	return func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		var spec JobSpec
		if err := decodeJSON(w, r, &spec); err != nil {
			fr.writeError(w, kind, err)
			return
		}
		if spec.Kind == "" {
			spec.Kind = kind
		}
		if spec.Kind != kind {
			fr.writeError(w, kind, &Error{Status: 422, Msg: fmt.Sprintf("kind %q does not match endpoint /v1/%s", spec.Kind, kind)})
			return
		}
		if err := spec.Validate(fr.limits); err != nil {
			fr.writeError(w, kind, err)
			return
		}
		env, tier, err := fr.resolve(r.Context(), spec)
		if err != nil {
			fr.writeError(w, kind, err)
			return
		}
		if fr.tier != "" {
			w.Header().Set(CacheHeader, tier)
		}
		if kind == KindEstimate {
			if src := estimateSource(env.Result); src != "" {
				w.Header().Set(EstimateHeader, src)
			}
		}
		WriteJSON(w, http.StatusOK, env)
	}
}

// estimateSource extracts the "source" field from a marshaled estimate
// result ("" when absent), so a cached answer carries the same attribution
// header as a fresh one.
func estimateSource(res json.RawMessage) string {
	var v struct {
		Source string `json:"source"`
	}
	if json.Unmarshal(res, &v) != nil {
		return ""
	}
	return v.Source
}

func (fr *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	fr.count("metrics")
	WriteJSON(w, http.StatusOK, fr.reg.Snapshot())
}

// handleCatalog lists the registries every job is validated against, so a
// door never advertises what it would reject.
func (fr *Front) handleCatalog(w http.ResponseWriter, r *http.Request) {
	fr.count("catalog")
	WriteJSON(w, http.StatusOK, Catalog{
		Workloads:  workload.Names(),
		Schemes:    workload.Schemes(),
		Policies:   policy.Names(),
		Predictors: policy.PredictorNames(),
	})
}

// handleLedgerRoot publishes the ledger chain head: batch/artifact counts
// and the chain root an auditor compares against its own replay.
func (fr *Front) handleLedgerRoot(w http.ResponseWriter, r *http.Request) {
	fr.count("ledger_root")
	st, err := fr.backend.LedgerRoot(r.Context())
	if err != nil {
		fr.writeError(w, "ledger_root", err)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

// handleLedgerProof answers ?artifact=<hex id> with a self-contained
// inclusion proof. Unknown artifacts answer 404.
func (fr *Front) handleLedgerProof(w http.ResponseWriter, r *http.Request) {
	fr.count("ledger_proof")
	p, err := fr.backend.LedgerProof(r.Context(), r.URL.Query().Get("artifact"))
	if err != nil {
		fr.writeError(w, "ledger_proof", err)
		return
	}
	WriteJSON(w, http.StatusOK, p)
}

func (fr *Front) count(endpoint string) {
	fr.reg.Counter(fr.prefix + ".http." + endpoint).Inc()
}

// writeError answers err as a JSON error body: an *Error with its own
// status and Retry-After hint, a deadline or cancellation as 504, anything
// else as 500.
func (fr *Front) writeError(w http.ResponseWriter, endpoint string, err error) {
	fr.count(endpoint + ".errors")
	status := http.StatusInternalServerError
	var e *Error
	switch {
	case errors.As(err, &e):
		status = e.Status
		if e.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
		}
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusGatewayTimeout
	}
	WriteJSON(w, status, map[string]any{"error": err.Error()})
}

// decodeJSON decodes a bounded, strict JSON body; a failure is a 400.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &Error{Status: http.StatusBadRequest, Msg: "invalid request body: " + err.Error()}
	}
	return nil
}

// WriteJSON answers with status and v encoded as JSON; each door's own
// /healthz uses it too.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
