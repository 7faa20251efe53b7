package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"glider/internal/experiments"
	"glider/internal/policy"
)

// The differential suite is the server's correctness anchor: for every
// registered policy and across worker counts, a result served over HTTP
// must be byte-identical to json.Marshal of the corresponding direct
// experiments call. Queueing, coalescing, caching, and worker scheduling
// must all be invisible in the payload.

func registeredPolicies(t *testing.T) []string {
	t.Helper()
	names := policy.Names()
	if len(names) < 19 {
		t.Fatalf("policy registry shrank to %d entries", len(names))
	}
	return names
}

func TestDifferentialSimAllPoliciesAcrossWorkers(t *testing.T) {
	const (
		bench    = "omnetpp"
		accesses = 60_000
		seed     = 42
	)
	names := registeredPolicies(t)

	// Direct ground truth, bytes as a non-server caller would marshal them.
	direct := make(map[string][]byte, len(names))
	for _, pol := range names {
		res, err := experiments.RunCell(context.Background(), bench, pol, accesses, seed)
		if err != nil {
			t.Fatalf("direct %s: %v", pol, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		direct[pol] = b
	}

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, ts := newTestServer(t, Config{Workers: workers})
			for _, pol := range names {
				body := fmt.Sprintf(`{"workload":%q,"policy":%q,"accesses":%d,"seed":%d}`, bench, pol, accesses, seed)
				status, _, data := postJSON(t, ts, "/v1/sim", body)
				if status != http.StatusOK {
					t.Fatalf("%s: status %d, body %s", pol, status, data)
				}
				var env Envelope
				if err := json.Unmarshal(data, &env); err != nil {
					t.Fatalf("%s: %v", pol, err)
				}
				if !bytes.Equal(env.Result, direct[pol]) {
					t.Errorf("%s: server bytes diverge from direct run\n server: %s\n direct: %s", pol, env.Result, direct[pol])
				}
			}
		})
	}
}

// TestDifferentialConcurrentSimMatchesDirect posts every policy to /v1/sim
// at once against four workers — the maximally concurrent path, with the
// queue and every worker busy — and demands the same byte identity.
func TestDifferentialConcurrentSimMatchesDirect(t *testing.T) {
	const (
		bench    = "mcf"
		accesses = 60_000
		seed     = 7
	)
	names := registeredPolicies(t)
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})

	served := make([][]byte, len(names))
	var wg sync.WaitGroup
	for i, pol := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := fmt.Sprintf(`{"workload":%q,"policy":%q,"accesses":%d,"seed":%d}`, bench, pol, accesses, seed)
			resp, err := http.Post(ts.URL+"/v1/sim", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("%s: %v", pol, err)
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d, body %s (%v)", pol, resp.StatusCode, data, err)
				return
			}
			var env Envelope
			if err := json.Unmarshal(data, &env); err != nil {
				t.Errorf("%s: %v", pol, err)
				return
			}
			served[i] = env.Result
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, pol := range names {
		res, err := experiments.RunCell(context.Background(), bench, pol, accesses, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served[i], want) {
			t.Errorf("%s: concurrent response diverges from direct run\n server: %s\n direct: %s", pol, served[i], want)
		}
	}
}

func TestDifferentialPredictAcrossWorkers(t *testing.T) {
	const (
		bench    = "omnetpp"
		accesses = 60_000
		seed     = 42
		topPCs   = 16
		isvmRows = 4
	)
	for _, pol := range policy.PredictorNames() {
		res, err := experiments.RunPredictCell(context.Background(), bench, pol, accesses, seed, topPCs, isvmRows)
		if err != nil {
			t.Fatalf("direct %s: %v", pol, err)
		}
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", pol, workers), func(t *testing.T) {
				_, ts := newTestServer(t, Config{Workers: workers})
				body := fmt.Sprintf(`{"workload":%q,"policy":%q,"accesses":%d,"seed":%d,"top_pcs":%d,"isvm_rows":%d}`,
					bench, pol, accesses, seed, topPCs, isvmRows)
				status, _, data := postJSON(t, ts, "/v1/predict", body)
				if status != http.StatusOK {
					t.Fatalf("status %d, body %s", status, data)
				}
				var env Envelope
				if err := json.Unmarshal(data, &env); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(env.Result, want) {
					t.Errorf("server bytes diverge from direct run\n server: %s\n direct: %s", env.Result, want)
				}
			})
		}
	}
}
