// Package simrunner is the execution engine for simulation jobs: it runs a
// batch of independent (workload, policy, config) jobs on a bounded worker
// pool and guarantees that the results are bit-identical to a serial run.
//
// The guarantee rests on three rules the package enforces or assumes:
//
//  1. Jobs are pure: each job derives all randomness from its own seed (or
//     values closed over at job construction) and shares only immutable
//     state with its siblings. Every simulation entry point in this
//     repository (cpu.SingleCore, offline.BuildDataset, …) constructs its
//     own LLC or hierarchy, DRAM model, and rand.Rand, and shares only
//     immutable traces and L1/L2 captures, so this holds by design. The
//     one exception is a grid's cpu.LLCPool: its cells take LLCs in
//     whatever order they run, but every LLC is reset to the state a new
//     one has before a cell replays on it.
//  2. Seeds are positional, not temporal: SeedFor derives a job's seed from
//     a stable hash of its key, never from scheduling order or wall-clock
//     time, so a job's result does not depend on when or where it ran.
//  3. Results are assembled by index: Run returns results in job order
//     regardless of completion order, and Values folds them back in that
//     order, so callers reduce in a deterministic sequence.
//
// A panicking job is isolated: its recovered value and stack are returned
// as that job's error result and sibling jobs are unaffected. Cancelling
// the context stops dispatch promptly; jobs never started report the
// context's error.
package simrunner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"glider/internal/obs"
)

// Key builds a canonical job key from path-like parts, e.g.
// Key("fig11", "omnetpp", "glider") == "fig11/omnetpp/glider". Keys feed
// SeedFor and progress reporting, so they should be stable across runs.
func Key(parts ...string) string { return strings.Join(parts, "/") }

// SeedFor derives a deterministic per-job seed from a base seed and a job
// key: an FNV-1a hash of the key mixed with the base through a splitmix64
// finalizer. The derivation is stable across processes and platforms
// (asserted by a golden-value test), uses every bit of the base seed, and
// decorrelates neighbouring keys — unlike base+i arithmetic, two jobs never
// share overlapping seed streams.
func SeedFor(base int64, key string) int64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	x := h ^ (uint64(base) * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// Job is one unit of simulation work.
type Job[T any] struct {
	// Key identifies the job (see Key); it names the job in progress
	// reports, panic errors, and results.
	Key string
	// Run computes the job's value. It must not mutate state shared with
	// other jobs; derive any randomness from values closed over at
	// construction (typically via SeedFor).
	Run func(ctx context.Context) (T, error)
}

// Result is one job's outcome. Results are returned in job order, not
// completion order.
type Result[T any] struct {
	// Key echoes the job's key.
	Key string
	// Index is the job's position in the submitted batch.
	Index int
	// Value is the computed value when Err is nil.
	Value T
	// Err is the job's error, a *PanicError if the job panicked, or the
	// context's error if the batch was cancelled before the job started.
	Err error
	// Duration is the job's wall-clock execution time (zero if the job
	// never ran).
	Duration time.Duration
}

// PanicError is the error recorded for a job that panicked.
type PanicError struct {
	// Key is the panicking job's key.
	Key string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("simrunner: job %q panicked: %v", e.Key, e.Value)
}

// Progress reports one completed (or cancelled) job. Callbacks are
// serialized: Done increases by one per call and reaches Total exactly once.
type Progress struct {
	// Done is the number of jobs finished so far, Total the batch size.
	Done, Total int
	// Key and Err describe the job that just finished.
	Key string
	Err error
}

// Options configures a Run.
type Options struct {
	// Workers bounds concurrent jobs; <= 0 means one per available CPU
	// (runtime.GOMAXPROCS(0)). Values above the available CPU count are
	// clamped to it: jobs are CPU-bound simulations, so oversubscribing
	// cores cannot add throughput — it only adds scheduler churn and cache
	// pressure (a small-sweep benchmark measured workers=4 at 245 ms/op vs
	// 198 ms/op serial on one core before the clamp).
	Workers int
	// Progress, when non-nil, is invoked after every job completes or is
	// cancelled. Calls are serialized, so the callback needs no locking.
	Progress func(Progress)
	// Obs, when non-nil, receives job-latency and throughput metrics
	// ("simrunner.*"). Safe to share across concurrent Run calls.
	Obs *obs.Registry
	// Sink, when non-nil, receives one "job" event per completed job and a
	// "batch" event per Run, keyed for cmd/obsreport's per-policy grouping.
	Sink obs.Sink
}

// Run executes the jobs on a bounded worker pool and returns one result per
// job, in job order. It always returns len(jobs) results: per-job failures
// (including panics) are recorded in the corresponding Result rather than
// aborting the batch. If ctx is cancelled, dispatch stops promptly and
// every job not yet started carries ctx's error.
func Run[T any](ctx context.Context, opts Options, jobs []Job[T]) []Result[T] {
	n := len(jobs)
	results := make([]Result[T], n)
	for i := range results {
		results[i].Key = jobs[i].Key
		results[i].Index = i
	}
	if n == 0 {
		return results
	}
	workers := opts.Workers
	if max := runtime.GOMAXPROCS(0); workers <= 0 || workers > max {
		workers = max
	}
	if workers > n {
		workers = n
	}

	// Observability: nil metrics no-op, so the disabled path costs only the
	// per-job Observe/Inc nil checks (jobs are coarse units, not hot loops).
	jobTimer := opts.Obs.Timer("simrunner.job.seconds")
	jobsDone := opts.Obs.Counter("simrunner.jobs")
	jobsFailed := opts.Obs.Counter("simrunner.jobs.failed")
	batchStart := time.Now()

	// progress serializes the callback and the done counter.
	var mu sync.Mutex
	done := 0
	report := func(i int) {
		if opts.Progress == nil {
			return
		}
		mu.Lock()
		done++
		opts.Progress(Progress{Done: done, Total: n, Key: jobs[i].Key, Err: results[i].Err})
		mu.Unlock()
	}

	// exec runs (or, after cancellation, skips) job i and reports it. Both
	// the serial path and the pool workers go through it, so the two paths
	// are behaviourally identical.
	exec := func(i int) {
		// A job dispatched before cancellation was observed still must not
		// run after it.
		if err := ctx.Err(); err != nil {
			results[i].Err = err
		} else {
			results[i] = runOne(ctx, jobs[i], i)
			jobTimer.Observe(results[i].Duration)
			jobsDone.Inc()
			if results[i].Err != nil {
				jobsFailed.Inc()
			}
			if opts.Sink != nil {
				fields := map[string]any{
					"key":     jobs[i].Key,
					"seconds": results[i].Duration.Seconds(),
					"ok":      results[i].Err == nil,
				}
				if results[i].Err != nil {
					fields["error"] = results[i].Err.Error()
				}
				opts.Sink.Emit("simrunner", "job", fields)
			}
		}
		report(i)
	}

	if workers == 1 {
		// Serial fast path: one worker gains nothing from a goroutine pool,
		// so skip the channel dispatch entirely — small sweeps on small
		// machines pay no pool overhead.
		for i := 0; i < n; i++ {
			exec(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					exec(i)
				}
			}()
		}
	dispatch:
		for i := 0; i < n; i++ {
			select {
			case idx <- i:
			case <-ctx.Done():
				err := ctx.Err()
				for j := i; j < n; j++ {
					results[j].Err = err
					report(j)
				}
				break dispatch
			}
		}
		close(idx)
		wg.Wait()
	}
	if opts.Obs != nil || opts.Sink != nil {
		wall := time.Since(batchStart)
		opts.Obs.Timer("simrunner.batch.seconds").Observe(wall)
		if opts.Sink != nil {
			opts.Sink.Emit("simrunner", "batch", map[string]any{
				"jobs": n, "workers": workers, "seconds": wall.Seconds(),
				"jobs_per_second": float64(n) / wall.Seconds(),
			})
		}
	}
	return results
}

// runOne executes a single job with panic isolation.
func runOne[T any](ctx context.Context, job Job[T], i int) (res Result[T]) {
	res.Key = job.Key
	res.Index = i
	start := time.Now()
	defer func() {
		res.Duration = time.Since(start)
		if r := recover(); r != nil {
			res.Err = &PanicError{Key: job.Key, Value: r, Stack: debug.Stack()}
		}
	}()
	res.Value, res.Err = job.Run(ctx)
	return res
}

// Values unwraps a result batch into its values. On failure it returns the
// error of the lowest-index failed job — the same error a serial loop over
// the jobs would have stopped at — so error reporting is deterministic
// regardless of completion order.
func Values[T any](results []Result[T]) ([]T, error) {
	out := make([]T, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		out[i] = r.Value
	}
	return out, nil
}
