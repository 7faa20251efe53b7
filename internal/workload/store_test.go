package workload

import (
	stdcontext "context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"glider/internal/trace"
)

// TestStoreDeterminism: a stored trace is the same pointer on repeated Gets
// and bit-identical to a direct Generate with the same key.
func TestStoreDeterminism(t *testing.T) {
	t.Parallel()
	spec, err := Lookup("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(0)
	got := s.Get(spec, 5000, 42)
	direct := spec.Generate(5000, 42)
	if !reflect.DeepEqual(got, direct) {
		t.Fatal("stored trace differs from direct Generate")
	}
	if again := s.Get(spec, 5000, 42); again != got {
		t.Fatal("second Get returned a different pointer")
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	// Different seed or length is a different trace.
	if other := s.Get(spec, 5000, 43); other == got {
		t.Fatal("different seed returned the same trace")
	}
	if other := s.Get(spec, 4000, 42); other == got {
		t.Fatal("different length returned the same trace")
	}
}

// TestStoreSingleflight: N concurrent Gets for one key share one generation.
func TestStoreSingleflight(t *testing.T) {
	t.Parallel()
	spec, err := Lookup("mcf")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(0)
	const goroutines = 16
	var wg sync.WaitGroup
	ptrs := make([]uintptr, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := s.Get(spec, 20_000, 7)
			if tr.Len() != 20_000 {
				t.Errorf("goroutine %d: short trace %d", i, tr.Len())
			}
			ptrs[i] = reflect.ValueOf(tr).Pointer()
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if ptrs[i] != ptrs[0] {
			t.Fatalf("goroutine %d got a different trace pointer", i)
		}
	}
	st := s.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (singleflight)", st.Misses)
	}
	if st.Hits != goroutines-1 {
		t.Fatalf("hits = %d, want %d", st.Hits, goroutines-1)
	}
}

// TestStoreEviction: a bounded store drops least-recently-used entries and
// regenerates them on demand; dropped traces stay valid for holders.
func TestStoreEviction(t *testing.T) {
	t.Parallel()
	spec, err := Lookup("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	// Each 1000-access trace is 24 kB; bound the store to two of them.
	s := NewStore(2 * 1000 * accessBytes)
	t0 := s.Get(spec, 1000, 0)
	s.Get(spec, 1000, 1)
	s.Get(spec, 1000, 2) // evicts seed 0
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if s.Bytes() > 2*1000*accessBytes {
		t.Fatalf("bytes = %d over bound", s.Bytes())
	}
	// Seed 0 was dropped: the old pointer is still a valid trace, and the
	// next Get is a fresh miss.
	if t0.Len() != 1000 {
		t.Fatal("evicted trace corrupted")
	}
	before := s.Stats().Misses
	r0 := s.Get(spec, 1000, 0)
	if s.Stats().Misses != before+1 {
		t.Fatal("expected regeneration after eviction")
	}
	if !reflect.DeepEqual(r0, t0) {
		t.Fatal("regenerated trace differs from original")
	}
	// A single trace larger than the whole bound still gets cached rather
	// than thrashing.
	big := s.Get(spec, 5000, 9)
	if again := s.Get(spec, 5000, 9); again != big {
		t.Fatal("over-bound trace was not retained")
	}
}

// TestStoreBoundAfterSlowBuild: an entry whose generation or Derive build
// started before other entries were added finishes behind them in the LRU
// list. The bound still holds once its bytes land: the newer entries are
// evicted, least recently used first, and the slow entry stays.
func TestStoreBoundAfterSlowBuild(t *testing.T) {
	t.Parallel()
	mcf, err := Lookup("mcf")
	if err != nil {
		t.Fatal(err)
	}
	lbm, err := Lookup("lbm")
	if err != nil {
		t.Fatal(err)
	}
	const bound = 2 * 1000 * accessBytes
	// fillBehind runs slow in the background and, once it has started,
	// gets mcf and then lbm: exactly the bound, so nothing is evicted
	// before slow's bytes arrive.
	fillBehind := func(t *testing.T, s *Store, started, release chan struct{}, slow func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			slow()
		}()
		<-started
		s.Get(mcf, 1000, 42)
		s.Get(lbm, 1000, 42)
		if st := s.Stats(); st.Evictions != 0 || s.Bytes() != bound {
			t.Fatalf("before the slow build: %+v, %d bytes", st, s.Bytes())
		}
		close(release)
		<-done
	}

	t.Run("generate", func(t *testing.T) {
		started, release := make(chan struct{}), make(chan struct{})
		slow := Custom("slow(generate)", Ingest, func(n int, seed int64) (*trace.Trace, error) {
			close(started)
			<-release
			return testSpecTrace("slow(generate)", n), nil
		})
		s := NewStore(bound)
		fillBehind(t, s, started, release, func() { s.Get(slow, 1000, 42) })
		if got := s.Bytes(); got != bound {
			t.Fatalf("bytes = %d, want %d", got, bound)
		}
		if st := s.Stats(); st.Evictions != 1 {
			t.Fatalf("evictions = %d, want 1 (mcf)", st.Evictions)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		for name, want := range map[string]bool{"slow(generate)": true, "mcf": false, "lbm": true} {
			if _, ok := s.entries[StoreKey{name, 1000, 42}]; ok != want {
				t.Errorf("%s resident = %v, want %v: mcf, the least recently used, is the one to evict", name, ok, want)
			}
		}
	})

	t.Run("derive", func(t *testing.T) {
		// mcf is generated, then its derived value builds while mcf is got
		// again and lbm is added.
		started, release := make(chan struct{}), make(chan struct{})
		s := NewStore(bound)
		fillBehind(t, s, started, release, func() {
			build := func(stdcontext.Context, *trace.Trace) (Derived, error) {
				close(started)
				<-release
				return sized(1000 * accessBytes), nil
			}
			if _, _, err := s.Derive(stdcontext.Background(), mcf, 1000, 42, "slow", build); err != nil {
				t.Error(err)
			}
		})
		if got := s.Bytes(); got != bound {
			t.Fatalf("bytes = %d, want %d", got, bound)
		}
		if st := s.Stats(); st.Evictions != 1 {
			t.Fatalf("evictions = %d, want 1 (lbm)", st.Evictions)
		}
	})
}

// TestStoreKeepsGeneratingEntry: an entry whose trace is still generating
// holds no bytes, so eviction passes over it: dropping it would free
// nothing, and its trace would be handed out uncached. Once the trace lands
// the bound is restored by evicting a finished entry, and the next GetE for
// the slow key is a hit.
func TestStoreKeepsGeneratingEntry(t *testing.T) {
	t.Parallel()
	mcf, err := Lookup("mcf")
	if err != nil {
		t.Fatal(err)
	}
	lbm, err := Lookup("lbm")
	if err != nil {
		t.Fatal(err)
	}
	const bound = 2 * 1000 * accessBytes
	started, release := make(chan struct{}), make(chan struct{})
	slow := Custom("slow(generating)", Ingest, func(n int, seed int64) (*trace.Trace, error) {
		close(started)
		<-release
		return testSpecTrace("slow(generating)", n), nil
	})
	s := NewStore(bound)
	done := make(chan error, 1)
	go func() {
		_, err := s.GetE(slow, 1000, 42)
		done <- err
	}()
	<-started
	s.Get(mcf, 1000, 42)
	s.Get(lbm, 1000, 42)
	s.Get(mcf, 1000, 43) // over the bound: mcf seed 42 goes, not the generating entry
	if st := s.Stats(); st.Evictions != 1 || s.Bytes() != bound {
		t.Fatalf("while generating: %+v, %d bytes; want 1 eviction (mcf seed 42) and %d bytes", st, s.Bytes(), bound)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Evictions != 2 || s.Bytes() != bound {
		t.Fatalf("after generating: %+v, %d bytes; want 2 evictions (mcf seed 42, lbm) and %d bytes", st, s.Bytes(), bound)
	}
	before := s.Stats()
	if _, err := s.GetE(slow, 1000, 42); err != nil {
		t.Fatal(err)
	}
	if after := s.Stats(); after.Misses != before.Misses || after.Hits != before.Hits+1 {
		t.Fatalf("GetE of the generated trace: %+v before, %+v after; want a hit", before, after)
	}
}

// TestStoreBoundUnderPressure drives a bounded store from many goroutines
// with slow and fast generators and slow and fast Derive builds. While they
// run, a watcher checks that whenever the store holds more than its bound,
// at most one entry holds bytes. Once every call has returned, the store
// holds no more than its bound unless a single entry is left, its byte
// count is the sum of its entries', and every entry a miss created is
// either resident or counted as an eviction.
func TestStoreBoundUnderPressure(t *testing.T) {
	t.Parallel()
	const n = 500
	fast, err := Lookup("mcf")
	if err != nil {
		t.Fatal(err)
	}
	slow := Custom("slow(pressure)", Ingest, func(n int, seed int64) (*trace.Trace, error) {
		time.Sleep(time.Duration(1+seed%3) * time.Millisecond)
		return testSpecTrace("slow(pressure)", n), nil
	})
	specs := []Spec{fast, slow}
	s := NewStore(4 * n * accessBytes)
	ctx := stdcontext.Background()

	stop := make(chan struct{})
	watched := make(chan string, 1)
	go func() {
		defer close(watched)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.mu.Lock()
			holders := 0
			for _, e := range s.entries {
				if e.bytes > 0 {
					holders++
				}
			}
			over := s.bytes > s.maxBytes && holders > 1
			bytes := s.bytes
			s.mu.Unlock()
			if over {
				watched <- fmt.Sprintf("%d entries hold %d bytes, over the bound of %d", holders, bytes, s.maxBytes)
				return
			}
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 40; i++ {
				spec, seed := specs[r.Intn(len(specs))], int64(r.Intn(8))
				if r.Intn(2) == 0 {
					if _, err := s.GetE(spec, n, seed); err != nil {
						t.Error(err)
					}
					continue
				}
				size := sized(r.Intn(2 * n * accessBytes))
				pause := time.Duration(r.Intn(2)) * time.Millisecond
				build := func(stdcontext.Context, *trace.Trace) (Derived, error) {
					time.Sleep(pause)
					return size, nil
				}
				if _, _, err := s.Derive(ctx, spec, n, seed, r.Intn(3), build); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if msg, ok := <-watched; ok {
		t.Fatalf("while the calls ran: %s", msg)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	var sum int64
	for _, e := range s.entries {
		sum += e.bytes
	}
	if sum != s.bytes {
		t.Fatalf("store counts %d bytes, its entries hold %d", s.bytes, sum)
	}
	if len(s.entries) > 1 && s.bytes > s.maxBytes {
		t.Fatalf("%d entries hold %d bytes, over the bound of %d", len(s.entries), s.bytes, s.maxBytes)
	}
	if st := s.stats; st.Evictions != st.Misses-uint64(len(s.entries)) {
		t.Fatalf("%d misses created entries, %d are resident, but %d evictions were counted", st.Misses, len(s.entries), st.Evictions)
	}
}

// TestStoreRelease: Release drops exactly the named entry.
func TestStoreRelease(t *testing.T) {
	t.Parallel()
	spec, err := Lookup("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(0)
	first := s.Get(spec, 1000, 0)
	s.Get(spec, 1000, 1)
	s.Release(spec, 1000, 0)
	s.Release(spec, 1000, 0) // idempotent
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if s.Bytes() != 1000*accessBytes {
		t.Fatalf("bytes = %d, want %d", s.Bytes(), 1000*accessBytes)
	}
	if again := s.Get(spec, 1000, 0); again == first {
		t.Fatal("released entry still cached")
	}
	if again := s.Get(spec, 1000, 1); again == first {
		t.Fatal("wrong entry released")
	}
}

// TestStoreReset: Reset empties the store completely.
func TestStoreReset(t *testing.T) {
	t.Parallel()
	spec, err := Lookup("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(0)
	first := s.Get(spec, 1000, 0)
	s.Reset()
	if s.Bytes() != 0 {
		t.Fatalf("bytes = %d after Reset", s.Bytes())
	}
	if again := s.Get(spec, 1000, 0); again == first {
		t.Fatal("entry survived Reset")
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
}

// TestSharedMatchesGenerate: the package-level helper goes through
// DefaultStore and matches a direct Generate bit for bit.
func TestSharedMatchesGenerate(t *testing.T) {
	spec, err := Lookup("sphinx3")
	if err != nil {
		t.Fatal(err)
	}
	got := Shared(spec, 3000, 11)
	if !reflect.DeepEqual(got, spec.Generate(3000, 11)) {
		t.Fatal("Shared differs from Generate")
	}
	if Shared(spec, 3000, 11) != got {
		t.Fatal("Shared did not cache")
	}
}

// sized is a derived value of a fixed size.
type sized int64

func (s sized) Bytes() int64 { return int64(s) }

// TestStoreDerive: a derived value is built once per (trace, id), counted in
// the store's bytes, and dropped with its trace.
func TestStoreDerive(t *testing.T) {
	t.Parallel()
	spec, err := Lookup("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(0)
	builds := 0
	build := func(_ stdcontext.Context, tr *trace.Trace) (Derived, error) {
		builds++
		return sized(tr.Len()), nil
	}
	ctx := stdcontext.Background()
	tr, v, err := s.Derive(ctx, spec, 1000, 0, "a", build)
	if err != nil || v != sized(1000) || tr != s.Get(spec, 1000, 0) {
		t.Fatalf("Derive = %v, %v; want the stored trace and its value", v, err)
	}
	if _, v2, _ := s.Derive(ctx, spec, 1000, 0, "a", build); v2 != v || builds != 1 {
		t.Fatalf("second Derive rebuilt (builds = %d)", builds)
	}
	if _, _, err := s.Derive(ctx, spec, 1000, 0, "b", build); err != nil || builds != 2 {
		t.Fatalf("a second id must build its own value (builds = %d, err = %v)", builds, err)
	}
	if got, want := s.Bytes(), int64(1000*accessBytes+2*1000); got != want {
		t.Fatalf("bytes = %d, want %d (trace plus both values)", got, want)
	}
	s.Release(spec, 1000, 0)
	if s.Bytes() != 0 {
		t.Fatalf("bytes = %d after Release, want 0", s.Bytes())
	}
	if s.Derive(ctx, spec, 1000, 0, "a", build); builds != 3 {
		t.Fatal("derived value outlived its trace")
	}
}

// TestStoreDeriveBound: derived bytes count toward the bound and can evict
// other traces, never the one they belong to.
func TestStoreDeriveBound(t *testing.T) {
	t.Parallel()
	spec, err := Lookup("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(2*1000*accessBytes + 500)
	s.Get(spec, 1000, 0)
	s.Get(spec, 1000, 1)
	half := func(stdcontext.Context, *trace.Trace) (Derived, error) { return sized(1000), nil }
	if _, _, err := s.Derive(stdcontext.Background(), spec, 1000, 1, "x", half); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1: the derived value must push the older trace out", st.Evictions)
	}
	if got, want := s.Bytes(), int64(1000*accessBytes+1000); got != want {
		t.Fatalf("bytes = %d, want %d", got, want)
	}
}

// TestStoreDeriveErrors: a failed build is not cached; waiters on it get its
// error unless it was its caller's cancellation, which they retry past.
func TestStoreDeriveErrors(t *testing.T) {
	t.Parallel()
	spec, err := Lookup("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(0)
	ctx := stdcontext.Background()
	boom := errors.New("boom")
	if _, _, err := s.Derive(ctx, spec, 1000, 0, "x", func(stdcontext.Context, *trace.Trace) (Derived, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want the build's error", err)
	}
	if s.Bytes() != 1000*accessBytes {
		t.Fatalf("bytes = %d: a failed build was accounted", s.Bytes())
	}

	// A waiter queued behind a build whose caller is cancelled builds the
	// value itself.
	started, release := make(chan struct{}), make(chan struct{})
	cctx, cancel := stdcontext.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		_, _, err := s.Derive(cctx, spec, 1000, 0, "y", func(ctx stdcontext.Context, _ *trace.Trace) (Derived, error) {
			close(started)
			<-release
			return nil, ctx.Err()
		})
		done <- err
	}()
	<-started
	waiter := make(chan Derived, 1)
	go func() {
		_, v, err := s.Derive(ctx, spec, 1000, 0, "y", func(stdcontext.Context, *trace.Trace) (Derived, error) { return sized(7), nil })
		if err != nil {
			t.Error(err)
		}
		waiter <- v
	}()
	cancel()
	close(release)
	if err := <-done; !errors.Is(err, stdcontext.Canceled) {
		t.Fatalf("cancelled build: err = %v", err)
	}
	if v := <-waiter; v != sized(7) {
		t.Fatalf("waiter got %v, want its own build", v)
	}

	// A waiter whose own ctx ends while it waits gives up with that error.
	block := make(chan struct{})
	go s.Derive(ctx, spec, 1000, 0, "z", func(stdcontext.Context, *trace.Trace) (Derived, error) {
		<-block
		return sized(1), nil
	})
	for {
		s.mu.Lock()
		_, inFlight := s.entries[StoreKey{spec.Name, 1000, 0}].derived["z"]
		s.mu.Unlock()
		if inFlight {
			break
		}
		runtime.Gosched()
	}
	dead, stop := stdcontext.WithCancel(ctx)
	stop()
	if _, _, err := s.Derive(dead, spec, 1000, 0, "z", nil); !errors.Is(err, stdcontext.Canceled) {
		t.Fatalf("cancelled waiter: err = %v", err)
	}
	close(block)
}
