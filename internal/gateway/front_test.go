package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"glider/internal/client"
	"glider/internal/experiments"
	"glider/internal/policy"
	"glider/internal/server"
)

// The gateway serves gliderd's request front: identical misses coalesce
// onto one dispatch, timeout_ms bounds the whole request, and the catalog
// comes from the registries jobs are validated against.

// TestGatewayCoalescesConcurrentMisses sends eight identical requests while
// the owning node's executor blocks: they share one flight, so the owner
// serves a single dispatch and all eight answer 200.
func TestGatewayCoalescesConcurrentMisses(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	exec := func(ctx context.Context, s server.JobSpec) (json.RawMessage, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return cannedCellExec(ctx, s)
	}
	c := newCluster(t, 3, exec, nil)
	owner := c.ownerIndex(t, validatedSpec(t, 1).Hash())

	const n = 8
	statuses := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Post(c.ts.URL+"/v1/sim", "application/json", strings.NewReader(simBody(1)))
			if err != nil {
				t.Errorf("POST: %v", err)
				statuses <- 0
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	<-started
	waitUntil(t, func() bool { return c.counter("gateway.cache.misses") == n })
	close(release)
	for i := 0; i < n; i++ {
		if status := <-statuses; status != http.StatusOK {
			t.Fatalf("coalesced request: status %d", status)
		}
	}
	if got := c.counter(fmt.Sprintf("gateway.node.b%d.served", owner)); got != 1 {
		t.Fatalf("owner served %d dispatches for %d identical requests, want 1", got, n)
	}
	if got := c.counter("gateway.jobs.coalesced"); got != n-1 {
		t.Fatalf("gateway.jobs.coalesced = %d, want %d", got, n-1)
	}
}

// TestGatewayTimeoutBoundsStalledRequest stalls the only node: the
// request's timeout_ms bounds the whole gateway request, retries included,
// and it answers 504 instead of waiting for the node.
func TestGatewayTimeoutBoundsStalledRequest(t *testing.T) {
	c := newCluster(t, 1, cannedCellExec, nil)
	release := c.nodes[0].Stall()
	defer release()

	type result struct {
		status int
		hdr    http.Header
		err    error
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		body := `{"workload":"omnetpp","policy":"lru","accesses":1000,"seed":1,"timeout_ms":200}`
		resp, err := http.Post(c.ts.URL+"/v1/sim", "application/json", strings.NewReader(body))
		if err != nil {
			done <- result{err: err}
			return
		}
		resp.Body.Close()
		done <- result{status: resp.StatusCode, hdr: resp.Header}
	}()
	select {
	case r := <-done:
		if r.err != nil || r.status != http.StatusGatewayTimeout {
			t.Fatalf("stalled node: status %d err %v, want 504", r.status, r.err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("timeout_ms 200 answered after %v", elapsed)
		}
		if ra := r.hdr.Get("Retry-After"); ra != "" {
			t.Fatalf("deadline answered with Retry-After %q", ra)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("request with timeout_ms 200 still waiting after 3s")
	}
}

// TestGatewayCatalogWithoutBackends kills the whole fleet: the catalog is
// the gateway's own, so it still answers and lists every policy it would
// accept.
func TestGatewayCatalogWithoutBackends(t *testing.T) {
	c := newCluster(t, 2, cannedCellExec, nil)
	for _, nd := range c.nodes {
		nd.Kill()
	}
	status, _, body := getJSON(t, c.ts, "/v1/catalog")
	if status != http.StatusOK {
		t.Fatalf("catalog with every backend dead: status %d body %s", status, body)
	}
	var cat server.Catalog
	if err := json.Unmarshal(body, &cat); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cat.Policies, policy.Names()) {
		t.Fatalf("catalog policies %v, want %v", cat.Policies, policy.Names())
	}
}

// TestGatewayTranslatesFailures pins how dispatch and ledger failures
// reach the client.
func TestGatewayTranslatesFailures(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	_, dialErr := client.New(dead.URL, nil).Do(context.Background(), simSpec(1))
	if dialErr == nil || isAPIError(dialErr) {
		t.Fatalf("want a dial error from a closed listener, got %v", dialErr)
	}
	g := New(Config{})
	defer g.Close()
	cases := []struct {
		name       string
		err        error
		status     int
		retryAfter int
		saturated  uint64
	}{
		{"429 without hint", &client.APIError{StatusCode: 429, Message: "job queue is full"}, 429, 1, 1},
		{"504", &client.APIError{StatusCode: 504, Message: "slow"}, 504, 1, 0},
		{"503 with hint", &client.APIError{StatusCode: 503, Message: "draining", RetryAfter: 3 * time.Second}, 503, 3, 0},
		{"404", &client.APIError{StatusCode: 404, Message: "unknown artifact"}, 404, 0, 0},
		{"empty ring", errNoBackends, 503, 1, 0},
		{"context deadline", fmt.Errorf("post: %w", context.DeadlineExceeded), 504, 0, 0},
		{"dial error", dialErr, 502, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := g.saturated.Value()
			e := g.translate(tc.err)
			if e.Status != tc.status || e.RetryAfter != tc.retryAfter {
				t.Fatalf("status %d Retry-After %d, want %d and %d", e.Status, e.RetryAfter, tc.status, tc.retryAfter)
			}
			if e.Msg != tc.err.Error() {
				t.Fatalf("message %q, want %q", e.Msg, tc.err.Error())
			}
			if got := g.saturated.Value() - before; got != tc.saturated {
				t.Fatalf("gateway.rejected.saturated +%d, want +%d", got, tc.saturated)
			}
		})
	}
}

// TestRequestSizeBoundUnderLoad drives the request front's 1 MiB body
// bound on both doors that share it, a gliderd node and the gateway. Many
// goroutines send /v1/sim requests padded with whitespace to one byte over
// the bound, alongside the same requests padded to exactly the bound: every
// oversized body is a 400 that says so and is counted in
// <prefix>.http.sim.errors, and every request at the bound answers 200 with
// the bytes of a direct experiments.RunCell.
func TestRequestSizeBoundUnderLoad(t *testing.T) {
	const (
		senders  = 16
		rounds   = 4
		accesses = 20_000
	)
	pols := []string{"lru", "hawkeye", "glider"}
	direct := make(map[string][]byte, len(pols))
	for _, pol := range pols {
		res, err := experiments.RunCell(context.Background(), "omnetpp", pol, accesses, 42)
		if err != nil {
			t.Fatal(err)
		}
		if direct[pol], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}
	// body is pol's sim request, padded after its opening brace to n bytes.
	body := func(pol string, n int) string {
		req := fmt.Sprintf(`"workload":"omnetpp","policy":%q,"accesses":%d,"seed":42}`, pol, accesses)
		return "{" + strings.Repeat(" ", n-1-len(req)) + req
	}

	c := newCluster(t, 2, realCellExec, nil)
	node := c.nodes[0]
	for _, door := range []struct {
		name   string
		url    string
		errors func() uint64
	}{
		{"gliderd", node.ts.URL, func() uint64 { return node.srv.Registry().Counter("server.http.sim.errors").Value() }},
		{"gateway", c.ts.URL, func() uint64 { return c.counter("gateway.http.sim.errors") }},
	} {
		t.Run(door.name, func(t *testing.T) {
			post := func(body string) (int, []byte, error) {
				resp, err := http.Post(door.url+"/v1/sim", "application/json", strings.NewReader(body))
				if err != nil {
					return 0, nil, err
				}
				defer resp.Body.Close()
				data, err := io.ReadAll(resp.Body)
				return resp.StatusCode, data, err
			}
			before := door.errors()
			var wg sync.WaitGroup
			for g := range senders {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range rounds {
						pol := pols[(g+i)%len(pols)]
						status, data, err := post(body(pol, 1<<20+1))
						switch {
						case err != nil:
							t.Errorf("oversized request: %v", err)
						case status != http.StatusBadRequest || !strings.Contains(string(data), "request body too large"):
							t.Errorf("oversized request: status %d, body %.200s; want 400 saying the request body is too large", status, data)
						}
						status, data, err = post(body(pol, 1<<20))
						if err != nil || status != http.StatusOK {
							t.Errorf("%s: status %d, error %v, body %s", pol, status, err, data)
							continue
						}
						var env server.Envelope
						if err := json.Unmarshal(data, &env); err != nil {
							t.Errorf("%s: %v", pol, err)
						} else if !bytes.Equal(env.Result, direct[pol]) {
							t.Errorf("%s: served bytes diverge from a direct run\n served: %s\n direct: %s", pol, env.Result, direct[pol])
						}
					}
				}()
			}
			wg.Wait()
			if got := door.errors() - before; got != senders*rounds {
				t.Errorf("%s.http.sim.errors rose by %d, but %d requests were refused", door.name, got, senders*rounds)
			}
		})
	}
}

// waitUntil polls cond until it holds or 10s pass.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
