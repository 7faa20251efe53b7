package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"glider/internal/experiments"
	"glider/internal/ledger"
)

// The server-side ledger contract: every successfully served result is
// recorded as a content-addressed artifact, the chain head is published on
// /v1/ledger/root, and /v1/ledger/proof hands out inclusion proofs a client
// can check without trusting the server — including that the artifact ID
// derives from the served bytes alone, and equals what a direct
// experiments run would anchor.

func newLedgerServer(t *testing.T) (*Server, *httptest.Server, *ledger.Ledger) {
	t.Helper()
	led, err := ledger.New(ledger.NewMemory(), ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Ledger: led})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30_000_000_000)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		if err := led.Close(); err != nil {
			t.Errorf("ledger close: %v", err)
		}
	})
	return srv, ts, led
}

func TestServerLedgerRecordsAndProvesServedResults(t *testing.T) {
	t.Parallel()
	_, ts, led := newLedgerServer(t)

	// Serve one real simulation cell.
	status, _, body := postJSON(t, ts, "/v1/sim", `{"workload":"omnetpp","policy":"lru","accesses":20000,"seed":7}`)
	if status != http.StatusOK {
		t.Fatalf("sim: %d %s", status, body)
	}
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}

	// The artifact ID is derivable from the served bytes alone.
	id, err := ledger.ArtifactIDFor(ArtifactKind(KindSim), env.Result)
	if err != nil {
		t.Fatal(err)
	}

	// And it equals what a direct run of the same cell would anchor: the
	// server recorded the exact result a client can reproduce.
	direct, err := experiments.RunCell(context.Background(), "omnetpp", "lru", 20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	directRaw, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	directID, err := ledger.ArtifactIDFor(experiments.LedgerKindCell, directRaw)
	if err != nil {
		t.Fatal(err)
	}
	if id != directID {
		t.Fatalf("served artifact %s != direct-run artifact %s", id, directID)
	}

	// The root reflects the recording (still pending until a proof or flush).
	st, body2 := getLedgerJSON(t, ts, "/v1/ledger/root")
	if st != http.StatusOK {
		t.Fatalf("root: %d %s", st, body2)
	}
	var head ledger.ChainState
	if err := json.Unmarshal(body2, &head); err != nil {
		t.Fatal(err)
	}
	if head.Artifacts+head.Pending != 1 {
		t.Fatalf("ledger head %+v, want one artifact", head)
	}

	// The proof endpoint anchors and proves it; the proof verifies locally.
	st, body3 := getLedgerJSON(t, ts, "/v1/ledger/proof?artifact="+id.String())
	if st != http.StatusOK {
		t.Fatalf("proof: %d %s", st, body3)
	}
	var p ledger.Proof
	if err := json.Unmarshal(body3, &p); err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}
	if p.Artifact != id.String() || p.Kind != experiments.LedgerKindCell {
		t.Fatalf("proof names %s/%s, want %s/%s", p.Kind, p.Artifact, experiments.LedgerKindCell, id)
	}

	// A cache hit re-serves without re-recording: the ledger stays at one
	// artifact (content addressing would dedupe anyway; the cache never
	// reaches exec at all).
	status, _, body = postJSON(t, ts, "/v1/sim", `{"workload":"omnetpp","policy":"lru","accesses":20000,"seed":7}`)
	if status != http.StatusOK {
		t.Fatalf("cached sim: %d %s", status, body)
	}
	if head := led.Root(); head.Artifacts+head.Pending != 1 {
		t.Fatalf("cache hit grew the ledger: %+v", head)
	}
}

func TestServerLedgerProofErrors(t *testing.T) {
	t.Parallel()
	_, ts, _ := newLedgerServer(t)
	if st, body := getLedgerJSON(t, ts, "/v1/ledger/proof?artifact=zz"); st != http.StatusBadRequest {
		t.Fatalf("bad hex: %d %s", st, body)
	}
	missing := strings.Repeat("ab", 32)
	if st, body := getLedgerJSON(t, ts, "/v1/ledger/proof?artifact="+missing); st != http.StatusNotFound {
		t.Fatalf("unknown artifact: %d %s", st, body)
	}
}

func TestServerLedgerDisabledAnswers404(t *testing.T) {
	t.Parallel()
	srv := New(Config{Executor: func(ctx context.Context, spec JobSpec) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain(context.Background())
	})
	if st, body := getLedgerJSON(t, ts, "/v1/ledger/root"); st != http.StatusNotFound {
		t.Fatalf("root without ledger: %d %s", st, body)
	}
	if st, body := getLedgerJSON(t, ts, "/v1/ledger/proof?artifact=00"); st != http.StatusNotFound {
		t.Fatalf("proof without ledger: %d %s", st, body)
	}
}

// TestServerLedgerAppendFailureIsCounted serves a job while the ledger's
// backend is closed: recording fails, the job still answers 200 with the
// executor's bytes, and server.ledger.append_errors counts the failure.
func TestServerLedgerAppendFailureIsCounted(t *testing.T) {
	t.Parallel()
	mem := ledger.NewMemory()
	led, err := ledger.New(mem, ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	want := json.RawMessage(`{"llc_miss_rate":0.25}`)
	srv := New(Config{Ledger: led, Executor: func(ctx context.Context, spec JobSpec) (json.RawMessage, error) {
		return want, nil
	}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain(context.Background())
	})

	status, _, body := postJSON(t, ts, "/v1/sim", `{"workload":"omnetpp","policy":"lru","accesses":1000,"seed":7}`)
	if status != http.StatusOK {
		t.Fatalf("sim with a failing ledger: %d %s", status, body)
	}
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if string(env.Result) != string(want) {
		t.Fatalf("result %s, want the executor's %s", env.Result, want)
	}
	if got := srv.Registry().Counter("server.ledger.append_errors").Value(); got != 1 {
		t.Fatalf("server.ledger.append_errors = %d, want 1", got)
	}
}

// getLedgerJSON is a minimal GET helper returning status and body.
func getLedgerJSON(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf [1 << 16]byte
	n, _ := resp.Body.Read(buf[:])
	return resp.StatusCode, buf[:n]
}
