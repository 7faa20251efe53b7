package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"glider/internal/experiments"
	"glider/internal/trace"
	"glider/internal/workload"
)

// The scenario-zoo differential suite: /v1/sim must serve ingested
// workloads — ChampSim trace files, Zipf object streams, multi-tenant
// mixes — byte-identical to direct experiments.RunCell, for every
// registered policy. It also pins the canonicalization contract: every
// spelling of a spec produces the same payload and shares one cache entry.

// writeChampSimFixture materializes a registry benchmark as a ChampSim file.
func writeChampSimFixture(t *testing.T, accesses int) string {
	t.Helper()
	spec, err := workload.Lookup("astar")
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.Generate(accesses, 7)
	path := filepath.Join(t.TempDir(), "astar.champsim")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChampSim(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDifferentialSimIngestedScenarios(t *testing.T) {
	const (
		accesses = 8_000
		seed     = 42
	)
	path := writeChampSimFixture(t, accesses)
	scenarios := []string{
		"champsim(file=" + path + ")",
		"zipf(objects=4096,skew=0.9,scan-every=2000,scan-len=256)",
		"mix(poisson,zipf(objects=2048,skew=1.1),mcf,p=0.7)",
	}
	names := registeredPolicies(t)

	_, ts := newTestServer(t, Config{Workers: 4})
	for _, scen := range scenarios {
		for _, pol := range names {
			res, err := experiments.RunCell(context.Background(), scen, pol, accesses, seed)
			if err != nil {
				t.Fatalf("direct %s/%s: %v", scen, pol, err)
			}
			direct, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}

			body := fmt.Sprintf(`{"workload":%q,"policy":%q,"accesses":%d,"seed":%d}`, scen, pol, accesses, seed)
			status, _, data := postJSON(t, ts, "/v1/sim", body)
			if status != http.StatusOK {
				t.Fatalf("%s/%s: status %d, body %s", scen, pol, status, data)
			}
			var env Envelope
			if err := json.Unmarshal(data, &env); err != nil {
				t.Fatalf("%s/%s: %v", scen, pol, err)
			}
			if !bytes.Equal(env.Result, direct) {
				t.Errorf("%s/%s: server bytes diverge from direct run\n server: %s\n direct: %s", scen, pol, env.Result, direct)
			}
		}
	}
}

// TestSimSpecSpellingsShareCacheAndBytes: two spellings of one workload
// produce byte-identical payloads, and the second request is a cache hit
// (the job hash is computed over the canonical name).
func TestSimSpecSpellingsShareCacheAndBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	spellings := []string{
		"zipf(objects=512,skew=0.90,span=1)",
		"zipf(skew=0.9,objects=512)",
	}
	var envs []Envelope
	for _, w := range spellings {
		body := fmt.Sprintf(`{"workload":%q,"policy":"lru","accesses":4000,"seed":1}`, w)
		status, _, data := postJSON(t, ts, "/v1/sim", body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", w, status, data)
		}
		var env Envelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		envs = append(envs, env)
	}
	if !bytes.Equal(envs[0].Result, envs[1].Result) {
		t.Fatalf("spellings diverge:\n %s\n %s", envs[0].Result, envs[1].Result)
	}
	// Canonicalization collapses the spellings to one job hash, so the
	// second request is a cache hit.
	if envs[0].Hash != envs[1].Hash {
		t.Fatalf("spellings hash differently: %s vs %s", envs[0].Hash, envs[1].Hash)
	}
	if !envs[1].Cached {
		t.Fatal("second spelling missed the result cache")
	}
	// The canonical name is echoed, not the spelling.
	var res experiments.CellResult
	if err := json.Unmarshal(envs[1].Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Workload != "zipf(objects=512,skew=0.9)" {
		t.Fatalf("payload echoes %q, want canonical name", res.Workload)
	}
}

func TestSimRejectsMalformedSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, w := range []string{
		"zipf(objects=512)",            // missing skew
		"zipf(objects=0,skew=1)",       // out of bounds
		"champsim(file=/no/such/file)", // unreadable
		"mix(rr,mcf)",                  // missing member
		"nosuchscheme(x=1)",            // unregistered
		"zipf(objects=1,skew=1",        // unbalanced
	} {
		body := fmt.Sprintf(`{"workload":%q,"policy":"lru","accesses":1000,"seed":1}`, w)
		status, _, data := postJSON(t, ts, "/v1/sim", body)
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, body %s (want 422)", w, status, data)
		}
	}
}

func TestCatalogListsSchemes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cat Catalog
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"champsim", "mix", "zipf"} {
		found := false
		for _, s := range cat.Schemes {
			if s == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("catalog schemes %v missing %q", cat.Schemes, want)
		}
	}
}
