package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"glider/internal/client"
	"glider/internal/experiments"
	"glider/internal/ledger"
	"glider/internal/obs"
	"glider/internal/server"
)

// cannedExecutor answers instantly with a deterministic payload per kind,
// so client behaviour is tested without paying for real simulations.
func cannedExecutor(ctx context.Context, spec server.JobSpec) (json.RawMessage, error) {
	switch spec.Kind {
	case server.KindPredict:
		return json.Marshal(experiments.PredictResult{
			Workload: spec.Workload, Policy: spec.Policy,
			Accesses: spec.Accesses, Seed: spec.Seed,
			Verdicts: []experiments.PCVerdict{{PC: 0x40, Accesses: 9, Friendly: true}},
			ISVMRows: []experiments.ISVMRow{{Index: 1, L1: 3, Weights: []int8{1, -2}}},
		})
	case server.KindEstimate:
		return json.Marshal(experiments.EstimateResult{
			Workload: spec.Workload, Policy: spec.Policy,
			Accesses: spec.Accesses, Seed: spec.Seed,
			Source: experiments.SourceSurrogate,
			IPC:    1.2, LLCMissRate: 0.3, MissRateBound: 0.04, IPCBound: 0.1,
		})
	default:
		return json.Marshal(experiments.CellResult{
			Workload: spec.Workload, Policy: spec.Policy,
			Accesses: spec.Accesses, Seed: spec.Seed,
			IPC: 1.5, LLCMissRate: 0.25,
		})
	}
}

func newClient(t *testing.T, cfg server.Config) (*client.Client, *server.Server, string) {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain at teardown: %v", err)
		}
	})
	return client.New(ts.URL+"/", nil), s, ts.URL // trailing slash must be tolerated
}

// getJSON decodes the JSON body of a GET the client has no call for.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func TestClientSimPredictAndCache(t *testing.T) {
	c, _, _ := newClient(t, server.Config{Executor: cannedExecutor})
	ctx := context.Background()

	spec := server.JobSpec{Workload: "omnetpp", Policy: "glider", Accesses: 60000, Seed: 42}
	sim, err := c.Do(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Hash == "" || sim.Cached {
		t.Fatalf("first sim: hash=%q cached=%v", sim.Hash, sim.Cached)
	}
	var cell experiments.CellResult
	if err := json.Unmarshal(sim.Result, &cell); err != nil || cell.Policy != "glider" || cell.IPC != 1.5 {
		t.Fatalf("decoded result %+v (%v)", cell, err)
	}
	again, err := c.Do(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Hash != sim.Hash || !bytes.Equal(again.Result, sim.Result) {
		t.Fatalf("repeat sim not a byte-identical cache hit: cached=%v", again.Cached)
	}

	pred, err := c.Do(ctx, server.JobSpec{Kind: server.KindPredict, Workload: "mcf", Policy: "glider", Accesses: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var pres experiments.PredictResult
	if err := json.Unmarshal(pred.Result, &pres); err != nil {
		t.Fatal(err)
	}
	if len(pres.Verdicts) != 1 || !pres.Verdicts[0].Friendly {
		t.Fatalf("predict result %+v", pres)
	}
	if len(pres.ISVMRows) != 1 || pres.ISVMRows[0].Weights[1] != -2 {
		t.Fatalf("ISVM rows %+v", pres.ISVMRows)
	}
}

// TestClientEstimate pins the estimate route: Do posts an estimate job to
// /v1/estimate, the result decodes with its source and error bounds intact,
// and a repeat query is a byte-identical cache hit like any other job.
func TestClientEstimate(t *testing.T) {
	c, _, _ := newClient(t, server.Config{Executor: cannedExecutor})
	ctx := context.Background()

	spec := server.JobSpec{Kind: server.KindEstimate, Workload: "omnetpp", Policy: "lru", Accesses: 20000, Seed: 9001}
	est, err := c.Do(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var res experiments.EstimateResult
	if err := json.Unmarshal(est.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Source != experiments.SourceSurrogate {
		t.Fatalf("source %q, want %q", res.Source, experiments.SourceSurrogate)
	}
	if res.MissRateBound != 0.04 || res.IPCBound != 0.1 {
		t.Fatalf("bounds lost in decode: %+v", res)
	}
	if res.LLCMissRate != 0.3 || res.Seed != 9001 {
		t.Fatalf("decoded result %+v", res)
	}
	again, err := c.Do(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || !bytes.Equal(again.Result, est.Result) {
		t.Fatalf("repeat estimate not a byte-identical cache hit: cached=%v", again.Cached)
	}
}

// TestClientLedger pins the typed ledger calls: the chain head and an
// inclusion proof round-trip the wire, the proof verifies locally against
// the artifact ID derived from the served bytes (the client never trusts
// the server's answer), and a ledger-less server surfaces a typed 404.
func TestClientLedger(t *testing.T) {
	led, err := ledger.New(ledger.NewMemory(), ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := led.Close(); err != nil {
			t.Errorf("ledger close: %v", err)
		}
	})
	c, _, _ := newClient(t, server.Config{Executor: cannedExecutor, Ledger: led})
	ctx := context.Background()

	sim, err := c.Do(ctx, server.JobSpec{Workload: "omnetpp", Policy: "lru", Accesses: 1000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	id, err := ledger.ArtifactIDFor(server.ArtifactKind(server.KindSim), sim.Result)
	if err != nil {
		t.Fatal(err)
	}

	head, err := c.LedgerRoot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if head.Artifacts+head.Pending != 1 {
		t.Fatalf("chain head %+v, want the one served result", head)
	}

	p, err := c.LedgerProof(ctx, id.String())
	if err != nil {
		t.Fatal(err)
	}
	if p.Artifact != id.String() {
		t.Fatalf("proof names %s, want %s", p.Artifact, id)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}

	if _, err := c.LedgerProof(ctx, strings.Repeat("ab", 32)); !isStatus(err, 404) {
		t.Fatalf("unknown artifact: %v, want 404", err)
	}

	// A server without a ledger answers 404 on both endpoints.
	bare, _, _ := newClient(t, server.Config{Executor: cannedExecutor})
	if _, err := bare.LedgerRoot(ctx); !isStatus(err, 404) {
		t.Fatalf("root without ledger: %v, want 404", err)
	}
	if _, err := bare.LedgerProof(ctx, id.String()); !isStatus(err, 404) {
		t.Fatalf("proof without ledger: %v, want 404", err)
	}
}

// isStatus reports whether err is an *APIError with the given HTTP status.
func isStatus(err error, status int) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == status
}

// TestClientCatalogHealthMetrics drives the client through what the
// catalog advertises: every listed policy is one sim Do away and every
// listed predictor one predict Do away, /metrics counts each request, and
// once the server drains, HealthDetail and Do both surface a temporary 503.
func TestClientCatalogHealthMetrics(t *testing.T) {
	c, s, url := newClient(t, server.Config{Executor: cannedExecutor})
	ctx := context.Background()

	var cat server.Catalog
	getJSON(t, url+"/v1/catalog", &cat)
	if len(cat.Workloads) == 0 || len(cat.Policies) == 0 || len(cat.Predictors) == 0 {
		t.Fatalf("catalog %+v", cat)
	}
	for _, pol := range cat.Policies {
		if _, err := c.Do(ctx, server.JobSpec{Workload: cat.Workloads[0], Policy: pol, Accesses: 1000, Seed: 1}); err != nil {
			t.Fatalf("sim %s: %v", pol, err)
		}
	}
	for _, pol := range cat.Predictors {
		if _, err := c.Do(ctx, server.JobSpec{Kind: server.KindPredict, Workload: cat.Workloads[0], Policy: pol, Accesses: 1000, Seed: 1}); err != nil {
			t.Fatalf("predict %s: %v", pol, err)
		}
	}

	var snap obs.Snapshot
	getJSON(t, url+"/metrics", &snap)
	counts := map[string]uint64{}
	for _, cs := range snap.Counters {
		counts[cs.Name] = cs.Value
	}
	if got := counts["server.http.sim"]; got != uint64(len(cat.Policies)) {
		t.Fatalf("server.http.sim = %d, want %d", got, len(cat.Policies))
	}
	if got := counts["server.http.predict"]; got != uint64(len(cat.Predictors)) {
		t.Fatalf("server.http.predict = %d, want %d", got, len(cat.Predictors))
	}

	h, err := c.HealthDetail(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("health = %q, %v", h.Status, err)
	}
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	h, err = c.HealthDetail(ctx)
	if h.Status != "draining" {
		t.Fatalf("health after drain = %q", h.Status)
	}
	var ae *client.APIError
	if !asAPIError(err, &ae) || ae.StatusCode != 503 || !ae.Temporary() {
		t.Fatalf("health error after drain = %v", err)
	}
	_, err = c.Do(ctx, server.JobSpec{Workload: cat.Workloads[0], Policy: cat.Policies[0], Accesses: 1000, Seed: 2})
	if !asAPIError(err, &ae) || ae.StatusCode != 503 || !ae.Temporary() || ae.RetryAfter <= 0 {
		t.Fatalf("job after drain = %v, want a temporary 503 with Retry-After", err)
	}
}

func TestClientAPIErrors(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	blocking := func(ctx context.Context, spec server.JobSpec) (json.RawMessage, error) {
		select {
		case started <- spec.Hash():
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		select {
		case <-release:
			return json.RawMessage(`{}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c, _, _ := newClient(t, server.Config{QueueDepth: 1, Workers: 1, Executor: blocking})
	ctx := context.Background()

	// Validation rejections: permanent 422.
	_, err := c.Do(ctx, server.JobSpec{Workload: "omnetpp", Policy: "nope", Accesses: 1000})
	var ae *client.APIError
	if !asAPIError(err, &ae) || ae.StatusCode != 422 || ae.Temporary() {
		t.Fatalf("unknown policy error = %v", err)
	}

	// Backpressure: fill the pipeline, expect 429 with a Retry-After hint.
	go c.Do(ctx, server.JobSpec{Workload: "omnetpp", Policy: "lru", Accesses: 1000, Seed: 1}) //nolint:errcheck
	<-started
	go c.Do(ctx, server.JobSpec{Workload: "omnetpp", Policy: "lru", Accesses: 1000, Seed: 2}) //nolint:errcheck
	// Each probe carries a short timeout and a fresh seed: if a probe races
	// job B into the queue slot it 504s quickly, and the next probe (a new
	// job, so it can't join the dead flight) finds the queue full → 429.
	deadline := time.Now().Add(10 * time.Second)
	for seed := int64(100); ; seed++ {
		_, err = c.Do(ctx, server.JobSpec{Workload: "omnetpp", Policy: "lru", Accesses: 1000, Seed: seed, TimeoutMS: 250})
		if asAPIError(err, &ae) && ae.StatusCode == 429 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw 429; last err = %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !ae.Temporary() || ae.RetryAfter <= 0 {
		t.Fatalf("429 error lacks retry semantics: %+v", ae)
	}
}

// TestClientDoAndHealthDetail covers the gateway-facing primitives: Do
// routes by spec.Kind and returns the raw envelope; HealthDetail exposes the
// full /healthz payload including shard identity and drain state.
func TestClientDoAndHealthDetail(t *testing.T) {
	s := server.New(server.Config{Executor: cannedExecutor, ShardID: "s7"})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := client.New(ts.URL, nil)
	ctx := context.Background()

	env, err := c.Do(ctx, server.JobSpec{Workload: "omnetpp", Policy: "lru", Accesses: 1000, Seed: 1})
	if err != nil || env.Hash == "" || len(env.Result) == 0 {
		t.Fatalf("Do sim: env=%+v err=%v", env, err)
	}
	var cell experiments.CellResult
	if err := json.Unmarshal(env.Result, &cell); err != nil || cell.Policy != "lru" {
		t.Fatalf("Do sim result: %v %+v", err, cell)
	}
	penv, err := c.Do(ctx, server.JobSpec{Kind: server.KindPredict, Workload: "mcf", Policy: "glider", Accesses: 1000, Seed: 1})
	if err != nil {
		t.Fatalf("Do predict: %v", err)
	}
	var pres experiments.PredictResult
	if err := json.Unmarshal(penv.Result, &pres); err != nil || len(pres.Verdicts) != 1 {
		t.Fatalf("Do predict result: %v %+v", err, pres)
	}

	h, err := c.HealthDetail(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Shard != "s7" || h.Draining || h.QueueCapacity <= 0 {
		t.Fatalf("health detail %+v", h)
	}

	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	h, err = c.HealthDetail(ctx)
	var ae *client.APIError
	if !asAPIError(err, &ae) || ae.StatusCode != 503 {
		t.Fatalf("health detail after drain: err=%v", err)
	}
	if h.Status != "draining" || !h.Draining || h.Shard != "s7" {
		t.Fatalf("drained payload %+v", h)
	}
}

func asAPIError(err error, target **client.APIError) bool {
	if e, ok := err.(*client.APIError); ok {
		*target = e
		return true
	}
	return false
}
