package gateway

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"glider/internal/client"
	"glider/internal/ledger"
	"glider/internal/obs"
	"glider/internal/server"
)

// Config sizes the gateway. Zero values select the documented defaults.
type Config struct {
	// Backends are the gliderd base URLs the gateway shards over.
	Backends []string
	// Replicas is the ring's virtual-point count per node (default 64).
	Replicas int
	// PollInterval is the /healthz poll period; <= 0 disables the background
	// poller (membership then moves via Poll calls and passive markdown on
	// transport errors — the deterministic mode the tests use).
	PollInterval time.Duration
	// Retries caps the attempts per job, first try included (default 3).
	// Attempts walk the key's ring successor order, so a retry is also a
	// failover to the next-preferred shard.
	Retries int
	// BackoffBase/BackoffCap shape the capped exponential retry backoff
	// (defaults client.DefaultBackoffBase / client.DefaultBackoffCap).
	BackoffBase, BackoffCap time.Duration
	// BackoffSeed fixes the jitter sequence for deterministic tests.
	BackoffSeed int64
	// HedgeDelay, when positive, races a second shard after a request has
	// gone unanswered that long (straggler defence). 0 disables hedging.
	HedgeDelay time.Duration
	// CacheEntries bounds the gateway-level result LRU (default 1024) — the
	// upper tier over the per-node caches.
	CacheEntries int
	// HTTPClient overrides the transport used for every backend.
	HTTPClient *http.Client
	// Obs receives the gateway's metrics; nil allocates a fresh registry.
	Obs *obs.Registry
}

func (c Config) defaulted() Config {
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	if c.Retries <= 0 {
		c.Retries = 3
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	return c
}

// pollTimeout bounds one health probe.
const pollTimeout = 2 * time.Second

// node is one backend: its stable ring name ("b<i>"), base URL, and client.
type node struct {
	name string
	base string
	c    *client.Client
}

// NodeStatus is one backend's state in the gateway's /healthz payload.
type NodeStatus struct {
	Name    string        `json:"name"`
	Base    string        `json:"base"`
	Healthy bool          `json:"healthy"`
	Detail  server.Health `json:"detail"`
}

// GatewayHealth is the gateway's /healthz payload.
type GatewayHealth struct {
	Status  string       `json:"status"` // "ok" while >= 1 backend is live
	Healthy int          `json:"healthy"`
	Total   int          `json:"total"`
	Nodes   []NodeStatus `json:"nodes"`
}

// Gateway fronts a gliderd fleet: the shared request Front over a Backend
// that routes each job on the ring, with retries and hedging. Requests are
// validated with server.DefaultLimits before routing. Create with New,
// mount Handler, stop with Close.
type Gateway struct {
	cfg     Config
	reg     *obs.Registry
	front   *server.Front
	nodes   []*node
	byName  map[string]*node
	ring    *Ring
	backoff *client.Backoff

	mu     sync.Mutex
	live   map[string]bool
	detail map[string]server.Health

	stopOnce sync.Once
	stopCh   chan struct{}
	pollDone chan struct{}

	nodeCacheHt *obs.Counter
	retries     *obs.Counter
	failovers   *obs.Counter
	hedges      *obs.Counter
	hedgeWins   *obs.Counter
	completed   *obs.Counter
	saturated   *obs.Counter
	noBackends  *obs.Counter
	latency     *obs.Timer
}

// New builds a gateway over cfg.Backends. Every backend starts as a ring
// member (optimistic: a dead node is marked down by its first failed probe
// or failed request); when PollInterval > 0 a background poller keeps
// membership current.
func New(cfg Config) *Gateway {
	cfg = cfg.defaulted()
	g := &Gateway{
		cfg:      cfg,
		reg:      cfg.Obs,
		byName:   make(map[string]*node, len(cfg.Backends)),
		ring:     NewRing(cfg.Replicas),
		backoff:  client.NewBackoff(cfg.BackoffBase, cfg.BackoffCap, cfg.BackoffSeed),
		live:     make(map[string]bool, len(cfg.Backends)),
		detail:   make(map[string]server.Health, len(cfg.Backends)),
		stopCh:   make(chan struct{}),
		pollDone: make(chan struct{}),
	}
	lim := server.DefaultLimits()
	g.front = server.NewFront(g, g.reg, "gateway", "gateway", lim, cfg.CacheEntries, lim.MaxTimeout)
	for i, base := range cfg.Backends {
		n := &node{name: "b" + strconv.Itoa(i), base: base, c: client.New(base, cfg.HTTPClient)}
		g.nodes = append(g.nodes, n)
		g.byName[n.name] = n
		g.ring.Add(n.name)
		g.live[n.name] = true
	}
	g.nodeCacheHt = g.reg.Counter("gateway.node_cache.hits")
	g.retries = g.reg.Counter("gateway.retries")
	g.failovers = g.reg.Counter("gateway.failovers")
	g.hedges = g.reg.Counter("gateway.hedges")
	g.hedgeWins = g.reg.Counter("gateway.hedge.wins")
	g.completed = g.reg.Counter("gateway.jobs.completed")
	g.saturated = g.reg.Counter("gateway.rejected.saturated")
	g.noBackends = g.reg.Counter("gateway.rejected.no_backends")
	g.latency = g.reg.Timer("gateway.request.seconds")
	if cfg.PollInterval > 0 {
		go g.pollLoop()
	} else {
		close(g.pollDone)
	}
	return g
}

// Registry exposes the gateway's metric registry (the /metrics source).
func (g *Gateway) Registry() *obs.Registry { return g.reg }

// Close stops the background poller. In-flight requests are unaffected.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stopCh) })
	<-g.pollDone
}

// --------------------------------------------------------------- membership

func (g *Gateway) pollLoop() {
	defer close(g.pollDone)
	ticker := time.NewTicker(g.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.stopCh:
			return
		case <-ticker.C:
			g.Poll(context.Background())
		}
	}
}

// Poll probes every backend's /healthz once and updates ring membership: a
// node is live iff the probe succeeds with status "ok". A draining node
// reports "draining" (and 503), so it leaves the ring — new keys route
// around it while its in-flight work, which the gateway never cancels on a
// membership change, still completes.
func (g *Gateway) Poll(ctx context.Context) {
	for _, n := range g.nodes {
		pctx, cancel := context.WithTimeout(ctx, pollTimeout)
		h, err := n.c.HealthDetail(pctx)
		cancel()
		g.setHealth(n, err == nil && h.Status == "ok", h)
	}
}

func (g *Gateway) setHealth(n *node, ok bool, h server.Health) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.detail[n.name] = h
	if ok == g.live[n.name] {
		return
	}
	g.live[n.name] = ok
	if ok {
		g.ring.Add(n.name)
		g.reg.Counter("gateway.node.up").Inc()
	} else {
		g.ring.Remove(n.name)
		g.reg.Counter("gateway.node.down").Inc()
	}
}

// markDown is the passive path: a transport-level failure on a live node
// removes it immediately rather than waiting for the next poll.
func (g *Gateway) markDown(n *node) {
	g.setHealth(n, false, server.Health{})
}

// candidates returns the key's preference-ordered live nodes: ring owner
// first, then its successors.
func (g *Gateway) candidates(hash string) []*node {
	names := g.ring.Successors(hash, len(g.nodes))
	out := make([]*node, 0, len(names))
	for _, name := range names {
		out = append(out, g.byName[name])
	}
	return out
}

// ----------------------------------------------------------------- routing

// errNoBackends means the ring is empty — every backend is down or draining.
var errNoBackends = errors.New("no healthy backends")

// Submit dispatches f on its own goroutine, which f's deadline bounds.
func (g *Gateway) Submit(f *server.Flight) error {
	go g.run(f)
	return nil
}

// run dispatches f under its owner's deadline and publishes the outcome.
func (g *Gateway) run(f *server.Flight) {
	start := time.Now()
	env, err := g.dispatch(f.Ctx, f.Spec, f.Hash)
	if err != nil {
		f.Finish(nil, false, g.translate(err))
		return
	}
	g.completed.Inc()
	g.latency.Observe(time.Since(start))
	if env.Cached {
		g.nodeCacheHt.Inc()
	}
	f.Finish(env.Result, env.Cached, nil)
}

// dispatch forwards spec to its owning shard, walking the successor order on
// temporary failures with capped jittered backoff, hedging stragglers when
// configured. Exactly one envelope is returned per call no matter how many
// attempts or hedges were launched.
func (g *Gateway) dispatch(ctx context.Context, spec server.JobSpec, hash string) (server.Envelope, error) {
	cands := g.candidates(hash)
	if len(cands) == 0 {
		g.noBackends.Inc()
		return server.Envelope{}, errNoBackends
	}
	var env server.Envelope
	attempt := 0
	err := client.Retry(ctx, g.backoff, g.cfg.Retries, func(ctx context.Context) error {
		i := attempt
		attempt++
		if i > 0 {
			g.retries.Inc()
			if len(cands) > 1 {
				g.failovers.Inc()
			}
		}
		primary := cands[i%len(cands)]
		var hedge *node
		if g.cfg.HedgeDelay > 0 && len(cands) > 1 {
			hedge = cands[(i+1)%len(cands)]
		}
		e, who, err := g.callNode(ctx, primary, hedge, spec)
		if err != nil {
			if hedge == nil && client.IsTemporary(err) && !isAPIError(err) {
				g.markDown(primary) // transport failure: node is gone
			}
			return err
		}
		env = e
		g.reg.Counter("gateway.node." + who.name + ".served").Inc()
		return nil
	})
	return env, err
}

func (g *Gateway) callNode(ctx context.Context, primary, hedge *node, spec server.JobSpec) (server.Envelope, *node, error) {
	if hedge == nil || hedge == primary {
		env, err := primary.c.Do(ctx, spec)
		return env, primary, err
	}
	env, out, err := client.Hedged(ctx, g.cfg.HedgeDelay,
		func(ctx context.Context) (server.Envelope, error) { return primary.c.Do(ctx, spec) },
		func(ctx context.Context) (server.Envelope, error) { return hedge.c.Do(ctx, spec) })
	if out.Fired {
		g.hedges.Inc()
	}
	who := primary
	if out.Won {
		g.hedgeWins.Inc()
		who = hedge
	}
	return env, who, err
}

func isAPIError(err error) bool {
	var ae *client.APIError
	return errors.As(err, &ae)
}

// translate maps a dispatch or ledger failure to the answer a client
// gets. A backend's rejection keeps its status, plus a Retry-After of at
// least 1 s when it is temporary; a fleet-wide 429 is thus relayed rather
// than masked as a 5xx. An empty ring is a 503, a deadline a 504, and any
// other transport failure a 502.
func (g *Gateway) translate(err error) *server.Error {
	e := &server.Error{Status: http.StatusBadGateway, Msg: err.Error()}
	var ae *client.APIError
	switch {
	case errors.As(err, &ae):
		e.Status = ae.StatusCode
		if ae.Temporary() {
			e.RetryAfter = max(1, int(ae.RetryAfter/time.Second))
			if ae.StatusCode == http.StatusTooManyRequests {
				g.saturated.Inc()
			}
		}
	case errors.Is(err, errNoBackends):
		e.Status, e.RetryAfter = http.StatusServiceUnavailable, 1
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		e.Status = http.StatusGatewayTimeout
	}
	return e
}

// LedgerRoot returns the chain head of the first live backend that has a
// ledger (nodes without one answer 404 and are skipped), so `audit root`
// against the gateway works like against a node.
func (g *Gateway) LedgerRoot(ctx context.Context) (ledger.ChainState, error) {
	return firstLive(g, func(c *client.Client) (ledger.ChainState, error) { return c.LedgerRoot(ctx) })
}

// LedgerProof fans a proof request across the fleet in ring order and
// answers with the first backend that holds the artifact. Jobs shard across
// nodes, so no single backend's ledger holds every result; the fan-out makes
// the fleet one queryable result store. All-miss surfaces the last backend's
// 404.
func (g *Gateway) LedgerProof(ctx context.Context, artifact string) (ledger.Proof, error) {
	return firstLive(g, func(c *client.Client) (ledger.Proof, error) { return c.LedgerProof(ctx, artifact) })
}

// firstLive asks the live nodes in ring order and returns the first
// answer, or the last failure once every node has failed.
func firstLive[T any](g *Gateway, ask func(*client.Client) (T, error)) (T, error) {
	var lastErr error = errNoBackends
	for _, name := range g.ring.Nodes() {
		v, err := ask(g.byName[name].c)
		if err == nil {
			return v, nil
		}
		lastErr = err
	}
	var zero T
	return zero, g.translate(lastErr)
}

// ----------------------------------------------------------------- HTTP

// CacheHeader reports which tier served a job: "gateway", "node", or "miss".
const CacheHeader = server.CacheHeader

// Handler mounts the gateway API: the same front a single gliderd node
// serves — /v1/sim, /v1/predict, /v1/estimate, /metrics, /v1/catalog and
// the ledger endpoints, so internal/client works unchanged against a fleet
// — plus the gateway's own /healthz.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	g.front.Mount(mux)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	return mux
}

// Health reports the gateway's view of the fleet.
func (g *Gateway) Health() GatewayHealth {
	g.mu.Lock()
	defer g.mu.Unlock()
	gh := GatewayHealth{Total: len(g.nodes)}
	for _, n := range g.nodes {
		ns := NodeStatus{Name: n.name, Base: n.base, Healthy: g.live[n.name], Detail: g.detail[n.name]}
		if ns.Healthy {
			gh.Healthy++
		}
		gh.Nodes = append(gh.Nodes, ns)
	}
	gh.Status = "ok"
	if gh.Healthy == 0 {
		gh.Status = "unavailable"
	}
	return gh
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g.reg.Counter("gateway.http.healthz").Inc()
	gh := g.Health()
	status := http.StatusOK
	if gh.Healthy == 0 {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	server.WriteJSON(w, status, gh)
}
