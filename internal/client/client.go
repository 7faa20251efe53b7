// Package client is the Go client for the gliderd HTTP API
// (internal/server), which a gliderd node and the gateway both serve: Do
// posts one job and returns its envelope, HealthDetail reads /healthz, and
// LedgerRoot and LedgerProof read the experiment ledger. Server rejections
// surface as *APIError carrying the HTTP status and Retry-After hint; the
// backoff, retry and hedge helpers build the gateway's dispatch on them.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"glider/internal/ledger"
	"glider/internal/server"
)

// Client talks to one gliderd node or gateway.
type Client struct {
	base string
	hc   *http.Client
}

// New builds a client for the given base URL (e.g. "http://127.0.0.1:8080").
// httpClient may be nil for http.DefaultClient.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Client{base: base, hc: httpClient}
}

// APIError is a non-2xx server response.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Message is the server's error string.
	Message string
	// RetryAfter is the server's backoff hint (zero when absent) — set on
	// 429 (queue full) and 503 (draining).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("gliderd: %d: %s", e.StatusCode, e.Message)
}

// Temporary reports whether retrying later can succeed (backpressure or
// drain rejections and timeouts, as opposed to invalid requests).
func (e *APIError) Temporary() bool {
	switch e.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Do posts spec to the endpoint matching its Kind ("sim" → /v1/sim,
// "predict" → /v1/predict, "estimate" → /v1/estimate, defaulting to sim)
// and returns the raw envelope without decoding the result — the forwarding
// primitive the gateway's routing, retry, and hedging paths are built on.
func (c *Client) Do(ctx context.Context, spec server.JobSpec) (server.Envelope, error) {
	path := "/v1/sim"
	switch spec.Kind {
	case server.KindPredict:
		path = "/v1/predict"
	case server.KindEstimate:
		path = "/v1/estimate"
	}
	return c.postJob(ctx, path, spec)
}

// LedgerRoot fetches the server's experiment-ledger chain head. A server
// without a ledger answers 404 (surfaced as *APIError).
func (c *Client) LedgerRoot(ctx context.Context) (ledger.ChainState, error) {
	var out ledger.ChainState
	return out, c.getJSON(ctx, "/v1/ledger/root", &out)
}

// LedgerProof fetches the inclusion proof for a hex artifact ID. The proof
// is returned as served; call Verify on it — the whole point is that the
// client need not trust the server's answer.
func (c *Client) LedgerProof(ctx context.Context, artifact string) (ledger.Proof, error) {
	var out ledger.Proof
	return out, c.getJSON(ctx, "/v1/ledger/proof?artifact="+url.QueryEscape(artifact), &out)
}

// HealthDetail fetches the full /healthz payload — state, shard identity,
// drain state, queue occupancy. A draining server answers 503; a non-200
// answer still returns the decoded payload alongside the *APIError, so
// callers (the gateway's membership poller) can distinguish "draining"
// from "dead".
func (c *Client) HealthDetail(ctx context.Context) (server.Health, error) {
	var body server.Health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return body, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return body, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	_ = json.Unmarshal(data, &body)
	if resp.StatusCode != http.StatusOK {
		return body, &APIError{StatusCode: resp.StatusCode, Message: body.Status, RetryAfter: retryAfter(resp)}
	}
	return body, nil
}

// ------------------------------------------------------------- internals

func (c *Client) postJob(ctx context.Context, path string, spec server.JobSpec) (server.Envelope, error) {
	var env server.Envelope
	body, err := json.Marshal(spec)
	if err != nil {
		return env, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return env, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return env, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return env, apiErrorFrom(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return env, fmt.Errorf("gliderd: decoding envelope: %w", err)
	}
	return env, nil
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiErrorFrom(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func apiErrorFrom(resp *http.Response) *APIError {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var body struct {
		Error string `json:"error"`
	}
	_ = json.Unmarshal(data, &body)
	msg := body.Error
	if msg == "" {
		msg = http.StatusText(resp.StatusCode)
	}
	return &APIError{StatusCode: resp.StatusCode, Message: msg, RetryAfter: retryAfter(resp)}
}

func retryAfter(resp *http.Response) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}
