package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// postStatus posts a sim job off the test goroutine and reports its status
// and Retry-After header (status 0 on a transport error).
func postStatus(ts string, seed int64) (int, string) {
	body := fmt.Sprintf(`{"workload":"omnetpp","policy":"lru","accesses":1000,"seed":%d}`, seed)
	resp, err := http.Post(ts+"/v1/sim", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, ""
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

// TestShortFlightNotBehindLong pins one flight per worker: while a long
// flight holds one worker, a short flight sent after it runs on the other
// worker and answers before the long one is released.
func TestShortFlightNotBehindLong(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{
		Workers: 2,
		Executor: func(ctx context.Context, spec JobSpec) (json.RawMessage, error) {
			if spec.Seed == 1 {
				close(started)
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return json.Marshal(map[string]int64{"seed": spec.Seed})
		},
	})

	long := make(chan int, 1)
	go func() {
		status, _ := postStatus(ts.URL, 1)
		long <- status
	}()
	<-started
	short := make(chan int, 1)
	go func() {
		status, _ := postStatus(ts.URL, 2)
		short <- status
	}()
	shortStatus := 0 // still waiting
	select {
	case shortStatus = <-short:
	case <-time.After(5 * time.Second):
	}
	close(release)
	if shortStatus != http.StatusOK {
		t.Fatalf("short flight: status %d while the long one ran, want 200 (0: no answer within 5s)", shortStatus)
	}
	if status := <-long; status != http.StatusOK {
		t.Fatalf("long flight: status %d, want 200", status)
	}
}

// TestPanicIsolated pins the worker's panic isolation: a job whose executor
// panics answers 500 naming the panic, counts as a failed simrunner job, is
// not cached (a repeat runs it again), and the server keeps serving.
func TestPanicIsolated(t *testing.T) {
	var panics atomic.Int32
	s, ts := newTestServer(t, Config{
		Executor: func(ctx context.Context, spec JobSpec) (json.RawMessage, error) {
			if spec.Seed == 13 {
				panics.Add(1)
				panic("boom")
			}
			return json.RawMessage(`{}`), nil
		},
	})

	body := `{"workload":"omnetpp","policy":"lru","accesses":1000,"seed":13}`
	for i := int32(1); i <= 2; i++ {
		status, _, data := postJSON(t, ts, "/v1/sim", body)
		if status != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500 (body %s)", i, status, data)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, "panicked") {
			t.Fatalf("request %d: error body %s does not name the panic (%v)", i, data, err)
		}
		if got := panics.Load(); got != i {
			t.Fatalf("after %d requests the job ran %d times; a failure must not be cached", i, got)
		}
	}
	if got := s.Registry().Counter("simrunner.jobs.failed").Value(); got != 2 {
		t.Fatalf("simrunner.jobs.failed = %d, want 2", got)
	}
	if status, _, data := postJSON(t, ts, "/v1/sim", simBody); status != http.StatusOK {
		t.Fatalf("request after the panics: status %d, body %s", status, data)
	}
}

// TestQueueBoundUnderPressure drives the queue bound from many goroutines
// at once: with every worker blocked, a node accepts at most QueueDepth +
// Workers flights, every other request is a counted 429 with Retry-After,
// and every accepted flight answers 200 once released.
func TestQueueBoundUnderPressure(t *testing.T) {
	const (
		senders    = 32
		queueDepth = 4
		workers    = 2
	)
	started := make(chan string, senders)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		QueueDepth: queueDepth,
		Workers:    workers,
		Executor:   blockingExecutor(started, release),
	})
	full := s.Registry().Counter("server.rejected.queue_full")

	type reply struct {
		status     int
		retryAfter string
	}
	replies := make(chan reply, senders)
	var wg sync.WaitGroup
	for i := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, retryAfter := postStatus(ts.URL, int64(i))
			replies <- reply{status, retryAfter}
		}()
	}
	// Every request is either refused or holds a place: running (it has
	// signalled started) or queued.
	waitFor(t, func() bool {
		return int(full.Value())+len(started)+len(s.queue) == senders
	})
	close(release)
	wg.Wait()
	close(replies)

	ok, refused := 0, 0
	for r := range replies {
		switch {
		case r.status == http.StatusOK:
			ok++
		case r.status == http.StatusTooManyRequests && r.retryAfter != "":
			refused++
		default:
			t.Errorf("reply status %d (Retry-After %q), want 200 or 429 with Retry-After", r.status, r.retryAfter)
		}
	}
	if ok < queueDepth || ok > queueDepth+workers {
		t.Errorf("%d requests accepted, want %d..%d", ok, queueDepth, queueDepth+workers)
	}
	if got := full.Value(); got != uint64(refused) {
		t.Errorf("server.rejected.queue_full = %d, but %d requests got 429", got, refused)
	}
}
