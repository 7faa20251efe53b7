package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"glider/internal/estimate"
	"glider/internal/experiments"
	"glider/internal/policy"
	"glider/internal/workload"
)

// newTestServer starts a Server plus an httptest front end and tears both
// down (drain first, so no worker goroutine outlives the test).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain at teardown: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, ts *httptest.Server, path, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", path, err)
	}
	return resp.StatusCode, resp.Header, data
}

func getJSON(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, data
}

// blockingExecutor returns an Executor that signals each execution start on
// started and blocks until release is closed (or the job's ctx dies), then
// echoes the job hash as its result.
func blockingExecutor(started chan string, release chan struct{}) func(context.Context, JobSpec) (json.RawMessage, error) {
	return func(ctx context.Context, spec JobSpec) (json.RawMessage, error) {
		select {
		case started <- spec.Hash():
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		select {
		case <-release:
			return json.Marshal(map[string]string{"hash": spec.Hash()})
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

const simBody = `{"workload":"omnetpp","policy":"lru","accesses":60000,"seed":42}`

func TestSimHappyPathAndCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, _, data := postJSON(t, ts, "/v1/sim", simBody)
	if status != http.StatusOK {
		t.Fatalf("sim: status %d, body %s", status, data)
	}
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if env.Hash == "" || env.Cached {
		t.Fatalf("first response: hash=%q cached=%v, want fresh result", env.Hash, env.Cached)
	}
	direct, err := experiments.RunCell(context.Background(), "omnetpp", "lru", 60000, 42)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env.Result, want) {
		t.Fatalf("server result diverges from direct run:\n server: %s\n direct: %s", env.Result, want)
	}

	// Identical job again: served from the cache, byte-identical.
	status, _, data = postJSON(t, ts, "/v1/sim", simBody)
	if status != http.StatusOK {
		t.Fatalf("cached sim: status %d", status)
	}
	var env2 Envelope
	if err := json.Unmarshal(data, &env2); err != nil {
		t.Fatal(err)
	}
	if !env2.Cached || env2.Hash != env.Hash || !bytes.Equal(env2.Result, env.Result) {
		t.Fatalf("second response: cached=%v hash=%q, want cache hit with identical bytes", env2.Cached, env2.Hash)
	}
}

func TestPredictHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"workload":"omnetpp","policy":"glider","accesses":60000,"seed":42,"top_pcs":16,"isvm_rows":4}`
	status, _, data := postJSON(t, ts, "/v1/predict", body)
	if status != http.StatusOK {
		t.Fatalf("predict: status %d, body %s", status, data)
	}
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	var res experiments.PredictResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Verdicts) == 0 || len(res.Verdicts) > 16 {
		t.Fatalf("got %d verdicts, want 1..16", len(res.Verdicts))
	}
	if len(res.ISVMRows) == 0 || len(res.ISVMRows) > 4 {
		t.Fatalf("got %d ISVM rows, want 1..4", len(res.ISVMRows))
	}
	for i := 1; i < len(res.Verdicts); i++ {
		if res.Verdicts[i].Accesses > res.Verdicts[i-1].Accesses {
			t.Fatalf("verdicts not sorted by access count at %d", i)
		}
	}
}

// TestEstimateHappyPathAndAttribution exercises both /v1/estimate paths:
// a cell inside the default model's training hull answers from the
// surrogate with explicit bounds, a trace length outside it falls back to
// exact simulation — and in both cases the X-Gliderd-Estimate header names
// the same source as the payload, the result is byte-identical to a direct
// experiments.RunEstimateCell, and a repeat request hits the cache with the
// header intact.
func TestEstimateHappyPathAndAttribution(t *testing.T) {
	// Train the process-wide default estimator before the server starts.
	// The first /v1/estimate would otherwise train it inside the request's
	// 60 s deadline: about 20 s under -race on an idle 2-CPU machine, and
	// longer when other packages' suites share the CPUs.
	if _, err := estimate.Default(); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})

	check := func(body, wantSource string) Envelope {
		t.Helper()
		status, hdr, data := postJSON(t, ts, "/v1/estimate", body)
		if status != http.StatusOK {
			t.Fatalf("estimate: status %d, body %s", status, data)
		}
		var env Envelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		var res experiments.EstimateResult
		if err := json.Unmarshal(env.Result, &res); err != nil {
			t.Fatal(err)
		}
		if res.Source != wantSource {
			t.Fatalf("source %q (reason %q), want %q", res.Source, res.Reason, wantSource)
		}
		if got := hdr.Get(EstimateHeader); got != wantSource {
			t.Fatalf("%s header %q, want %q", EstimateHeader, got, wantSource)
		}
		if res.LLCMissRate < 0 || res.LLCMissRate > 1 || res.IPC <= 0 {
			t.Fatalf("implausible estimate: %+v", res)
		}
		return env
	}

	// Surrogate path: omnetpp at 6000 accesses sits inside the default
	// training hull. A surrogate number must carry its error bounds.
	surrogateBody := `{"workload":"omnetpp","policy":"lru","accesses":6000,"seed":7}`
	env := check(surrogateBody, experiments.SourceSurrogate)
	var sur experiments.EstimateResult
	if err := json.Unmarshal(env.Result, &sur); err != nil {
		t.Fatal(err)
	}
	if sur.MissRateBound <= 0 || sur.IPCBound <= 0 {
		t.Fatalf("surrogate answer without bounds: %+v", sur)
	}

	// Byte-identity with the direct entry point (same process, same model).
	direct, err := experiments.RunEstimateCell(context.Background(), "omnetpp", "lru", 6000, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env.Result, want) {
		t.Fatalf("server estimate diverges from direct run:\n server: %s\n direct: %s", env.Result, want)
	}

	// Repeat: cache hit, identical bytes, header still attributed.
	status, hdr, data := postJSON(t, ts, "/v1/estimate", surrogateBody)
	if status != http.StatusOK {
		t.Fatalf("cached estimate: status %d", status)
	}
	var env2 Envelope
	if err := json.Unmarshal(data, &env2); err != nil {
		t.Fatal(err)
	}
	if !env2.Cached || !bytes.Equal(env2.Result, env.Result) {
		t.Fatalf("second response: cached=%v, want cache hit with identical bytes", env2.Cached)
	}
	if got := hdr.Get(EstimateHeader); got != experiments.SourceSurrogate {
		t.Fatalf("cached %s header %q", EstimateHeader, got)
	}

	// Fallback path: 60000 accesses is far outside the training hull's
	// log2_accesses span, so the gate refuses and the exact numbers must
	// match a plain simulation of the same cell.
	env = check(`{"workload":"omnetpp","policy":"lru","accesses":60000,"seed":42}`, experiments.SourceExactFallback)
	var fb experiments.EstimateResult
	if err := json.Unmarshal(env.Result, &fb); err != nil {
		t.Fatal(err)
	}
	if fb.Reason == "" {
		t.Fatal("fallback without a reason")
	}
	if fb.MissRateBound != 0 || fb.IPCBound != 0 {
		t.Fatalf("exact fallback carries bounds: %+v", fb)
	}
	exact, err := experiments.RunCell(context.Background(), "omnetpp", "lru", 60000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if fb.LLCMissRate != exact.LLCMissRate || fb.IPC != exact.IPC {
		t.Fatalf("fallback numbers diverge from exact simulation: %+v vs %+v", fb, exact)
	}
}

func TestMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
		wantStatus       int
	}{
		{"truncated JSON", "/v1/sim", `{"workload":"omnetpp"`, 400},
		{"unknown field", "/v1/sim", `{"workload":"omnetpp","policy":"lru","accesses":1000,"seed":1,"bogus":1}`, 400},
		{"wrong type", "/v1/sim", `{"workload":"omnetpp","policy":"lru","accesses":"many"}`, 400},
		{"unknown workload", "/v1/sim", `{"workload":"nope","policy":"lru","accesses":1000,"seed":1}`, 422},
		{"unknown policy", "/v1/sim", `{"workload":"omnetpp","policy":"nope","accesses":1000,"seed":1}`, 422},
		{"zero accesses", "/v1/sim", `{"workload":"omnetpp","policy":"lru","accesses":0,"seed":1}`, 422},
		{"excessive accesses", "/v1/sim", `{"workload":"omnetpp","policy":"lru","accesses":999999999,"seed":1}`, 422},
		{"negative timeout", "/v1/sim", `{"workload":"omnetpp","policy":"lru","accesses":1000,"timeout_ms":-1}`, 422},
		{"kind mismatch", "/v1/sim", `{"kind":"predict","workload":"omnetpp","policy":"glider","accesses":1000}`, 422},
		{"estimate kind on sim endpoint", "/v1/sim", `{"kind":"estimate","workload":"omnetpp","policy":"lru","accesses":1000}`, 422},
		{"unknown kind", "/v1/estimate", `{"kind":"guess","workload":"omnetpp","policy":"lru","accesses":1000}`, 422},
		{"predict without predictor", "/v1/predict", `{"workload":"omnetpp","policy":"lru","accesses":1000,"seed":1}`, 422},
		{"predict top_pcs over limit", "/v1/predict", `{"workload":"omnetpp","policy":"glider","accesses":1000,"top_pcs":99999}`, 422},
		{"empty batch", "/v1/batch", `{"jobs":[]}`, 422},
		{"batch with bad job", "/v1/batch", `{"jobs":[{"workload":"omnetpp","policy":"nope","accesses":1000}]}`, 422},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, data := postJSON(t, ts, tc.path, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", status, tc.wantStatus, data)
			}
			var body struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(data, &body); err != nil || body.Error == "" {
				t.Fatalf("error body %q not a JSON error envelope (%v)", data, err)
			}
		})
	}

	// Wrong method: the mux's method patterns answer 405.
	resp, err := http.Get(ts.URL + "/v1/sim")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/sim: status %d, want 405", resp.StatusCode)
	}
}

// TestTimeoutFiresMidSimulation drives a real simulation long enough that a
// millisecond-scale deadline must fire inside the access loop, and checks
// the deadline surfaces as 504 and the server keeps serving afterwards.
func TestTimeoutFiresMidSimulation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Pre-generate the trace so the deadline fires mid-simulation rather
	// than during trace generation (both paths cancel, but this pins the
	// interesting one).
	spec, err := workload.Lookup("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	workload.Shared(spec, 400_000, 7)

	body := `{"workload":"omnetpp","policy":"glider","accesses":400000,"seed":7,"timeout_ms":10}`
	status, _, data := postJSON(t, ts, "/v1/sim", body)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", status, data)
	}

	// The pool must remain healthy after a cancelled job.
	status, _, data = postJSON(t, ts, "/v1/sim", simBody)
	if status != http.StatusOK {
		t.Fatalf("follow-up sim after timeout: status %d, body %s", status, data)
	}
}

// TestQueueFull429 fills the pipeline deterministically via the blocking
// executor: one job running, one queued, so the next is rejected with 429
// and a Retry-After hint — and succeeds once the backlog clears.
func TestQueueFull429(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		QueueDepth: 1,
		Workers:    1,
		Executor:   blockingExecutor(started, release),
	})

	type reply struct {
		status int
		body   []byte
	}
	post := func(seed int64, ch chan reply) {
		go func() {
			body := fmt.Sprintf(`{"workload":"omnetpp","policy":"lru","accesses":1000,"seed":%d}`, seed)
			status, _, data := postJSON(t, ts, "/v1/sim", body)
			ch <- reply{status, data}
		}()
	}

	chA := make(chan reply, 1)
	post(1, chA)
	<-started // job A is running on the pool; the queue is empty

	chB := make(chan reply, 1)
	post(2, chB)
	waitFor(t, func() bool { return len(s.queue) == 1 }) // job B parked in the queue

	// Queue full: job C must be rejected immediately with 429 + Retry-After.
	status, hdr, data := postJSON(t, ts, "/v1/sim", `{"workload":"omnetpp","policy":"lru","accesses":1000,"seed":3}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", status, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	close(release)
	for _, ch := range []chan reply{chA, chB} {
		r := <-ch
		if r.status != http.StatusOK {
			t.Fatalf("backlogged job: status %d, body %s", r.status, r.body)
		}
	}
}

// TestOwnerBailRetake pins the singleflight's retake rule: a waiter that
// joined a flight whose owner gave up (its timeout_ms fired) does not
// inherit the owner's 504 but runs the job again under its own deadline.
func TestOwnerBailRetake(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Executor: blockingExecutor(started, release)})

	type reply struct {
		status int
		err    error
	}
	post := func(body string) chan reply {
		ch := make(chan reply, 1)
		go func() {
			// Raw http.Post: t.Fatal must not run off the test goroutine.
			resp, err := http.Post(ts.URL+"/v1/sim", "application/json", strings.NewReader(body))
			if err != nil {
				ch <- reply{err: err}
				return
			}
			resp.Body.Close()
			ch <- reply{status: resp.StatusCode}
		}()
		return ch
	}

	owner := post(`{"workload":"omnetpp","policy":"lru","accesses":1000,"seed":5,"timeout_ms":150}`)
	<-started // the owner's flight is running
	waiter := post(`{"workload":"omnetpp","policy":"lru","accesses":1000,"seed":5}`)
	waitFor(t, func() bool { return s.Registry().Counter("server.jobs.coalesced").Value() == 1 })

	if r := <-owner; r.err != nil || r.status != http.StatusGatewayTimeout {
		t.Fatalf("owner: status %d err %v, want 504", r.status, r.err)
	}
	select {
	case <-started: // the waiter retook the job: a second execution
	case r := <-waiter:
		t.Fatalf("waiter answered %d (err %v) without retaking the job", r.status, r.err)
	}
	close(release)
	if r := <-waiter; r.err != nil || r.status != http.StatusOK {
		t.Fatalf("waiter: status %d err %v, want 200", r.status, r.err)
	}
}

// TestGracefulDrainUnderLoad pins the drain contract: the running job
// finishes and answers 200, the queued job is rejected with 503, new
// requests are rejected with 503, and healthz flips to draining.
func TestGracefulDrainUnderLoad(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		QueueDepth: 2,
		Workers:    1,
		Executor:   blockingExecutor(started, release),
	})

	type reply struct {
		status int
		body   []byte
	}
	post := func(seed int64, ch chan reply) {
		go func() {
			body := fmt.Sprintf(`{"workload":"omnetpp","policy":"lru","accesses":1000,"seed":%d}`, seed)
			status, _, data := postJSON(t, ts, "/v1/sim", body)
			ch <- reply{status, data}
		}()
	}

	chA := make(chan reply, 1)
	post(1, chA)
	<-started // A is in flight
	chB := make(chan reply, 1)
	post(2, chB)
	waitFor(t, func() bool { return len(s.queue) == 1 }) // B is queued

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// Draining is observable immediately (healthz 503), while A still runs.
	waitFor(t, func() bool {
		status, _ := getJSON(t, ts, "/healthz")
		return status == http.StatusServiceUnavailable
	})

	// New work is rejected while draining.
	status, hdr, data := postJSON(t, ts, "/v1/sim", `{"workload":"omnetpp","policy":"lru","accesses":1000,"seed":9}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503 (body %s)", status, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}

	close(release) // let A finish
	if r := <-chA; r.status != http.StatusOK {
		t.Fatalf("in-flight job during drain: status %d, want 200 (body %s)", r.status, r.body)
	}
	if r := <-chB; r.status != http.StatusServiceUnavailable {
		t.Fatalf("queued job during drain: status %d, want 503 (body %s)", r.status, r.body)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Every 503 is counted: the queued job and the request sent during the
	// drain.
	if got := s.Registry().Counter("server.rejected.draining").Value(); got != 2 {
		t.Fatalf("server.rejected.draining = %d, want 2", got)
	}
}

// TestBatchStreamsInOrder checks the NDJSON contract: one envelope per job,
// in request order, duplicates coalesced onto the same hash and bytes.
func TestBatchStreamsInOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Executor: func(ctx context.Context, spec JobSpec) (json.RawMessage, error) {
			return json.Marshal(map[string]int64{"seed": spec.Seed})
		},
	})
	body := `{"jobs":[
		{"workload":"omnetpp","policy":"lru","accesses":1000,"seed":1},
		{"workload":"omnetpp","policy":"lru","accesses":1000,"seed":2},
		{"workload":"omnetpp","policy":"lru","accesses":1000,"seed":1}
	]}`
	status, hdr, data := postJSON(t, ts, "/v1/batch", body)
	if status != http.StatusOK {
		t.Fatalf("batch: status %d, body %s", status, data)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d NDJSON rows, want 3:\n%s", len(lines), data)
	}
	envs := make([]Envelope, 3)
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &envs[i]); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if envs[i].Error != "" {
			t.Fatalf("row %d: unexpected error %q", i, envs[i].Error)
		}
	}
	wantSeed := []int64{1, 2, 1}
	for i, env := range envs {
		var res struct {
			Seed int64 `json:"seed"`
		}
		if err := json.Unmarshal(env.Result, &res); err != nil {
			t.Fatal(err)
		}
		if res.Seed != wantSeed[i] {
			t.Fatalf("row %d: seed %d, want %d (rows out of order)", i, res.Seed, wantSeed[i])
		}
	}
	if envs[0].Hash != envs[2].Hash || !bytes.Equal(envs[0].Result, envs[2].Result) {
		t.Fatal("duplicate jobs did not coalesce onto the same hash and bytes")
	}
	if envs[0].Hash == envs[1].Hash {
		t.Fatal("distinct seeds collided on one hash")
	}
}

func TestCatalogAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Executor: func(ctx context.Context, spec JobSpec) (json.RawMessage, error) {
			return json.RawMessage(`{}`), nil
		},
	})
	status, data := getJSON(t, ts, "/v1/catalog")
	if status != http.StatusOK {
		t.Fatalf("catalog: status %d", status)
	}
	var cat Catalog
	if err := json.Unmarshal(data, &cat); err != nil {
		t.Fatal(err)
	}
	if len(cat.Workloads) == 0 || len(cat.Policies) < 10 {
		t.Fatalf("catalog too small: %d workloads, %d policies", len(cat.Workloads), len(cat.Policies))
	}
	wantPred := policy.PredictorNames()
	if len(cat.Predictors) != len(wantPred) {
		t.Fatalf("predictors = %v, want %v", cat.Predictors, wantPred)
	}
	got := map[string]bool{}
	for _, p := range cat.Predictors {
		got[p] = true
	}
	for _, p := range wantPred {
		if !got[p] {
			t.Fatalf("catalog predictors %v missing %q", cat.Predictors, p)
		}
	}

	if status, _, data := postJSON(t, ts, "/v1/sim", simBody); status != http.StatusOK {
		t.Fatalf("sim: status %d, body %s", status, data)
	}
	status, data = getJSON(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value uint64 `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range snap.Counters {
		if c.Name == "server.http.sim" && c.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("metrics missing server.http.sim counter: %s", data)
	}
}

// TestSoak hammers a real server from concurrent clients with a mix of
// endpoints and finishes with a drain under load. Gated out of -short runs.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	s, ts := newTestServer(t, Config{QueueDepth: 32})

	const clients = 4
	const perClient = 12
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				switch i % 4 {
				case 0, 1:
					body := fmt.Sprintf(`{"workload":"omnetpp","policy":"lru","accesses":20000,"seed":%d}`, i%3)
					status, _, data := postJSON(t, ts, "/v1/sim", body)
					if status != http.StatusOK && status != http.StatusTooManyRequests {
						t.Errorf("client %d: sim status %d (%s)", c, status, data)
					}
				case 2:
					body := fmt.Sprintf(`{"workload":"mcf","policy":"glider","accesses":20000,"seed":%d,"top_pcs":4}`, i%3)
					status, _, data := postJSON(t, ts, "/v1/predict", body)
					if status != http.StatusOK && status != http.StatusTooManyRequests {
						t.Errorf("client %d: predict status %d (%s)", c, status, data)
					}
				default:
					getJSON(t, ts, "/metrics")
					getJSON(t, ts, "/v1/catalog")
				}
			}
		}(c)
	}
	wg.Wait()

	// Every unique job ran at least once; the repeats must have hit the
	// cache or coalesced rather than re-simulating.
	snap := s.Registry().Snapshot()
	for _, c := range snap.Counters {
		if c.Name == "server.cache.hits" && c.Value == 0 {
			t.Error("soak produced zero cache hits across repeated identical jobs")
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 10s")
}

// TestShardIdentityAndHealthPayload pins the fleet-facing surface the
// gateway consumes: every response from a shard-named server carries the
// shard header, and /healthz reports the full membership payload — shard,
// drain state, and queue shape — flipping to draining/503 without losing
// the shard identity.
func TestShardIdentityAndHealthPayload(t *testing.T) {
	instant := func(ctx context.Context, spec JobSpec) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	}
	s, ts := newTestServer(t, Config{ShardID: "shard-3", QueueDepth: 7, Executor: instant})

	status, hdr, _ := postJSON(t, ts, "/v1/sim", `{"workload":"omnetpp","policy":"lru","accesses":1000,"seed":1}`)
	if status != http.StatusOK {
		t.Fatalf("sim: status %d", status)
	}
	if got := hdr.Get(ShardHeader); got != "shard-3" {
		t.Fatalf("%s = %q, want shard-3", ShardHeader, got)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(ShardHeader) != "shard-3" {
		t.Fatalf("healthz: status %d shard %q", resp.StatusCode, resp.Header.Get(ShardHeader))
	}
	if h.Status != "ok" || h.Shard != "shard-3" || h.Draining || h.QueueCapacity != 7 || h.QueueDepth != 0 {
		t.Fatalf("health payload %+v", h)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	status, data := getJSON(t, ts, "/healthz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: status %d", status)
	}
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" || !h.Draining || h.Shard != "shard-3" {
		t.Fatalf("drained payload %+v", h)
	}

	// A server with no shard identity emits no header.
	_, ts2 := newTestServer(t, Config{Executor: instant})
	status, hdr, _ = postJSON(t, ts2, "/v1/sim", `{"workload":"omnetpp","policy":"lru","accesses":1000,"seed":1}`)
	if status != http.StatusOK || hdr.Get(ShardHeader) != "" {
		t.Fatalf("anonymous server: status %d shard header %q", status, hdr.Get(ShardHeader))
	}
}
