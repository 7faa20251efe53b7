package cpu

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"glider/internal/workload"
)

// cancelAfterFirstPoll is a caller's context that is live at its first Err
// poll, where it signals started and blocks until release is closed, and
// cancelled from then on: a caller that cancels mid-build.
type cancelAfterFirstPoll struct {
	context.Context
	started, release chan struct{}
	polls            atomic.Int32
}

func (c *cancelAfterFirstPoll) Err() error {
	if c.polls.Add(1) == 1 {
		close(c.started)
		<-c.release
		return nil
	}
	return context.Canceled
}

// TestSharedCaptureCancelMidBuild: many goroutines request one trace's
// capture while the caller that started the build cancels halfway. The
// cancelled build is not kept, exactly one build succeeds, and every
// successful caller gets the same capture.
func TestSharedCaptureCancelMidBuild(t *testing.T) {
	t.Parallel()
	spec, err := workload.Lookup("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	// Long enough for a second cancellation poll.
	const n, seed, callers = 3*(cancelCheckMask+1) + 1, 9_001, 16
	store := workload.NewStore(0)
	ctx := &cancelAfterFirstPoll{Context: context.Background(), started: make(chan struct{}), release: make(chan struct{})}
	cancelled := make(chan error, 1)
	go func() {
		_, err := storeCapture(ctx, store, spec, n, seed, 1)
		cancelled <- err
	}()
	<-ctx.started

	var wg sync.WaitGroup
	got := make([]*Capture, callers)
	errs := make([]error, callers)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = storeCapture(context.Background(), store, spec, n, seed, 1)
		}(i)
	}
	// Every caller has found the trace's entry, whose capture is in flight
	// until release, before the build is cancelled.
	for store.Stats().Hits < callers {
		runtime.Gosched()
	}
	close(ctx.release)
	wg.Wait()

	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller: err = %v, want context.Canceled", err)
	}
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different capture: more than one build succeeded", i)
		}
	}
	again, err := storeCapture(context.Background(), store, spec, n, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again != got[0] {
		t.Fatal("the successful capture was not kept")
	}
	fresh, err := NewCapture(context.Background(), spec.Generate(n, seed), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], fresh) {
		t.Fatal("shared capture differs from a fresh one")
	}
}

// TestCaptureSize pins the capture format: one byte per access plus 24
// bytes per writeback reaching the LLC, with every writeback accounted for
// by the per-access counts.
func TestCaptureSize(t *testing.T) {
	t.Parallel()
	tr := storeHeavyTrace(4_000)
	c, err := NewCapture(context.Background(), tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	counted := 0
	for _, lv := range c.levels {
		counted += int(lv >> wbShift)
	}
	if counted != len(c.wbs) || len(c.wbs) == 0 {
		t.Fatalf("per-access writeback counts sum to %d, capture holds %d", counted, len(c.wbs))
	}
	if want := int64(tr.Len()) + 24*int64(len(c.wbs)); c.Bytes() != want {
		t.Fatalf("Bytes() = %d, want %d", c.Bytes(), want)
	}
	if _, err := NewCapture(context.Background(), tr, 0); err == nil {
		t.Fatal("zero cores accepted")
	}
}
