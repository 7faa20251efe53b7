package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"glider/internal/experiments"
	"glider/internal/policy"
)

// The differential suite is the server's correctness anchor: for every
// registered policy and across worker counts, a result served over HTTP
// must be byte-identical to json.Marshal of the corresponding direct
// experiments call. Queueing, batching, coalescing, caching, and pool
// scheduling must all be invisible in the payload.

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

// TestDifferentialBatchMatchesDirect pushes every policy through one
// /v1/batch request — the maximally-concurrent path (batched dispatch onto
// a multi-worker pool) — and demands the same byte identity.
func TestDifferentialBatchMatchesDirect(t *testing.T) {
	const (
		bench    = "mcf"
		accesses = 60_000
		seed     = 7
	)
	names := registeredPolicies(t)
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})

	var sb bytes.Buffer
	sb.WriteString(`{"jobs":[`)
	for i, pol := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"workload":%q,"policy":%q,"accesses":%d,"seed":%d}`, bench, pol, accesses, seed)
	}
	sb.WriteString(`]}`)

	status, _, data := postJSON(t, ts, "/v1/batch", sb.String())
	if status != http.StatusOK {
		t.Fatalf("batch: status %d, body %s", status, data)
	}
	rows := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(rows) != len(names) {
		t.Fatalf("got %d rows, want %d", len(rows), len(names))
	}
	for i, pol := range names {
		var env Envelope
		if err := json.Unmarshal(rows[i], &env); err != nil {
			t.Fatalf("row %d (%s): %v", i, pol, err)
		}
		if env.Error != "" {
			t.Fatalf("row %d (%s): %s", i, pol, env.Error)
		}
		res, err := experiments.RunCell(context.Background(), bench, pol, accesses, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(env.Result, want) {
			t.Errorf("%s: batch row diverges from direct run\n server: %s\n direct: %s", pol, env.Result, want)
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
