package cpu

import (
	"context"
	"errors"
	"testing"
	"time"

	"glider/internal/simrunner"
	"glider/internal/workload"
)

// The service layer (internal/server) cancels simulations mid-run when a
// request's deadline fires; these tests pin that a cancelled context actually
// stops the access loops promptly, that the error is the context's, and that
// the simrunner pool stays usable after a cancelled job.

func cancelSpec(t *testing.T) workload.Spec {
	t.Helper()
	spec, err := workload.Lookup("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestRunFunctionalStopsOnCancel(t *testing.T) {
	t.Parallel()
	const accesses = 400_000
	spec := cancelSpec(t)
	// Pre-generate so the deadline fires inside the simulation loop, not
	// during trace generation.
	tr := workload.Shared(spec, accesses, 7)

	h, err := BuildHierarchy(1, "glider")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := RunFunctional(ctx, tr, h, accesses/5, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunFunctional under cancelled ctx: err = %v, want context.Canceled", err)
	}
	// A pre-cancelled context must abort at the first check, long before the
	// full simulation could have finished.
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled run took %v", d)
	}
}

func TestSingleCoreStopsOnDeadlineMidRun(t *testing.T) {
	t.Parallel()
	const accesses = 400_000
	spec := cancelSpec(t)
	workload.Shared(spec, accesses, 7) // pre-generate

	// Baseline: the uncancelled simulation must succeed and (by construction)
	// takes far longer than the 5 ms deadline below.
	if _, err := SingleCore(context.Background(), spec, "glider", accesses, 7); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := SingleCore(ctx, spec, "glider", accesses, 7)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SingleCore with 5ms deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestCancelledJobLeavesPoolReusable cancels a simulation mid-job through the
// simrunner pool — the exact path gliderd uses — and checks both that the
// running job observed the cancellation (rather than simulating to
// completion) and that a fresh batch on the same Options succeeds afterwards.
func TestCancelledJobLeavesPoolReusable(t *testing.T) {
	t.Parallel()
	const accesses = 400_000
	spec := cancelSpec(t)
	tr := workload.Shared(spec, accesses, 7)

	simulate := func(ctx context.Context) (float64, error) {
		h, err := BuildHierarchy(1, "glider")
		if err != nil {
			return 0, err
		}
		res, err := RunFunctional(ctx, tr, h, accesses/5, false)
		if err != nil {
			return 0, err
		}
		return res.LLC.MissRate(), nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	jobs := []simrunner.Job[float64]{{
		Key: "cancel/omnetpp/glider",
		Run: func(ctx context.Context) (float64, error) {
			close(started)
			return simulate(ctx)
		},
	}}
	go func() {
		<-started
		cancel()
	}()
	opts := simrunner.Options{Workers: 2}
	results := simrunner.Run(ctx, opts, jobs)
	if err := results[0].Err; !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-job cancellation: err = %v, want context.Canceled", err)
	}

	// The pool must be reusable: the same work under a live context succeeds
	// and produces the deterministic result.
	redo := simrunner.Run(context.Background(), opts, []simrunner.Job[float64]{
		{Key: "cancel/omnetpp/glider/redo", Run: simulate},
	})
	if redo[0].Err != nil {
		t.Fatalf("rerun after cancellation failed: %v", redo[0].Err)
	}
	direct, err := SingleCore(context.Background(), spec, "glider", accesses, 7)
	if err != nil {
		t.Fatal(err)
	}
	if redo[0].Value != direct.LLC.MissRate() {
		t.Fatalf("rerun miss rate %v != direct %v", redo[0].Value, direct.LLC.MissRate())
	}
}
