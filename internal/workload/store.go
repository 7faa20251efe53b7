package workload

// Shared trace store.
//
// Every experiment sweep is a cross-product of benchmarks × policies, and
// each policy job used to regenerate its benchmark trace from scratch: a
// Fig11-style sweep paid 33×5 generations for 33 distinct traces. Generated
// traces are immutable once returned (nothing in the repo mutates
// trace.Accesses after generation), so concurrent jobs can share one
// *trace.Trace per (spec, n, seed) key. The store de-duplicates generation
// with a singleflight: the first Get for a key generates while later ones
// block on the same entry, guaranteeing exactly one generation per key even
// under a concurrent worker pool. An entry can also keep values derived from
// its trace (Derive), such as the cpu package's L1/L2 capture, under the
// same singleflight, byte bound and lifetime.

import (
	"container/list"
	stdcontext "context" // the package declares a pattern named context
	"errors"
	"fmt"
	"sync"

	"glider/internal/trace"
)

// accessBytes is the in-memory size of one trace.Access (two uint64 plus
// Core/Kind, padded); used for the store's capacity accounting.
const accessBytes = 24

// StoreKey identifies one generated trace. Spec.Generate is a pure function
// of these three values, so the key fully determines the contents.
type StoreKey struct {
	Name string
	N    int
	Seed int64
}

// StoreStats counts store traffic, for tests and diagnostics.
type StoreStats struct {
	// Hits is the number of Gets served from a cached (or in-flight) entry.
	Hits uint64
	// Misses is the number of Gets that had to generate.
	Misses uint64
	// Evictions is the number of entries dropped by the capacity bound or
	// Release.
	Evictions uint64
}

// storeEntry is one cached trace. ready is closed when tr (or err) is
// populated; Gets that find an in-flight entry block on it, and the close
// gives them a happens-before edge on the generation's writes, so the shared
// trace is race-free without further locking. bytes counts the trace and
// every cached derived value; derived is guarded by the store's mutex.
type storeEntry struct {
	ready   chan struct{}
	tr      *trace.Trace
	err     error
	bytes   int64
	lruElem *list.Element
	evicted bool
	derived map[any]*derivedFlight
}

// Derived is a value computed from a stored trace and kept in the trace's
// entry (see Store.Derive). Bytes is its resident size, which counts toward
// the store's bound.
type Derived interface {
	Bytes() int64
}

// derivedFlight is one derived value, built once. ready is closed when val
// (or err) is set, with the same happens-before role as storeEntry.ready.
type derivedFlight struct {
	ready chan struct{}
	val   Derived
	err   error
}

// Store is a content-addressed cache of generated traces. The zero value is
// not usable; use NewStore. All methods are safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	entries  map[StoreKey]*storeEntry
	lru      *list.List // front = most recently used; values are StoreKey
	bytes    int64
	maxBytes int64 // 0 = unbounded
	stats    StoreStats
}

// NewStore returns an empty store. maxBytes bounds the resident bytes
// (approximate, counting accesses and derived values); 0 means unbounded.
// When the bound is exceeded, least-recently-used entries are dropped — a
// dropped trace is still valid for holders of the pointer (traces are
// immutable), the store just regenerates on the next Get.
func NewStore(maxBytes int64) *Store {
	return &Store{
		entries:  make(map[StoreKey]*storeEntry),
		lru:      list.New(),
		maxBytes: maxBytes,
	}
}

// Get returns the trace for (spec, n, seed), generating it at most once per
// key no matter how many goroutines ask concurrently. The returned trace is
// shared and must be treated as read-only. For custom specs with fallible
// sources Get panics on generation failure; such callers should use GetE.
func (s *Store) Get(spec Spec, n int, seed int64) *trace.Trace {
	tr, err := s.GetE(spec, n, seed)
	if err != nil {
		panic(fmt.Sprintf("workload: generating %q: %v", spec.Name, err))
	}
	return tr
}

// GetE is Get with error reporting. A failed generation is never cached: the
// entry is dropped under the lock before waiters are released, so the next
// GetE for the key retries the source (every concurrent waiter on the failed
// flight receives the same error).
func (s *Store) GetE(spec Spec, n int, seed int64) (*trace.Trace, error) {
	e, err := s.entry(spec, n, seed)
	if err != nil {
		return nil, err
	}
	return e.tr, nil
}

// entry returns the ready entry for (spec, n, seed), generating its trace
// under the singleflight described at GetE.
func (s *Store) entry(spec Spec, n int, seed int64) (*storeEntry, error) {
	key := StoreKey{Name: spec.Name, N: n, Seed: seed}

	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.stats.Hits++
		if e.lruElem != nil {
			s.lru.MoveToFront(e.lruElem)
		}
		s.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		return e, nil
	}
	e := &storeEntry{ready: make(chan struct{})}
	s.entries[key] = e
	e.lruElem = s.lru.PushFront(key)
	s.stats.Misses++
	s.mu.Unlock()

	tr, err := spec.GenerateE(n, seed)

	s.mu.Lock()
	if err != nil {
		e.err = err
		s.removeLocked(key)
		s.mu.Unlock()
		close(e.ready)
		return nil, err
	}
	e.tr = tr
	// The entry may have been evicted while generating (Release, or LRU
	// pressure from other keys); if so its bytes were never accounted and
	// must not be added now.
	s.addBytesLocked(key, e, int64(tr.Len())*accessBytes)
	s.mu.Unlock()
	close(e.ready)
	return e, nil
}

// addBytesLocked accounts n more resident bytes to e and evicts down to the
// bound, unless e was evicted meanwhile. Requires s.mu held.
func (s *Store) addBytesLocked(key StoreKey, e *storeEntry, n int64) {
	if e.evicted {
		return
	}
	e.bytes += n
	s.bytes += n
	s.evictOverLocked(key)
}

// Derive returns the trace for (spec, n, seed) and the value build derives
// from it under id, an arbitrary comparable key naming the derivation. The
// value is built at most once per (trace, id) while the trace stays
// resident: concurrent callers share one build, singleflight-style, and
// every later caller gets the same value. It lives in the trace's entry,
// counts toward the store's bound, and is dropped with the trace.
//
// A failed build is never cached. When the build fails because its caller's
// ctx ended, waiters whose own ctx is still live retry the build instead of
// inheriting that error; any other build error reaches every waiter on the
// failed flight, as a failed generation does in GetE. A waiter whose ctx
// ends while it waits returns that ctx's error.
func (s *Store) Derive(ctx stdcontext.Context, spec Spec, n int, seed int64, id any, build func(stdcontext.Context, *trace.Trace) (Derived, error)) (*trace.Trace, Derived, error) {
	e, err := s.entry(spec, n, seed)
	if err != nil {
		return nil, nil, err
	}
	key := StoreKey{Name: spec.Name, N: n, Seed: seed}
	for {
		s.mu.Lock()
		f, ok := e.derived[id]
		if !ok {
			f = &derivedFlight{ready: make(chan struct{})}
			if e.derived == nil {
				e.derived = make(map[any]*derivedFlight)
			}
			e.derived[id] = f
			s.mu.Unlock()

			v, err := build(ctx, e.tr)
			var size int64
			if err == nil {
				size = v.Bytes()
			}

			s.mu.Lock()
			if err != nil {
				f.err = err
				delete(e.derived, id)
			} else {
				f.val = v
				s.addBytesLocked(key, e, size)
			}
			s.mu.Unlock()
			close(f.ready)
			if err != nil {
				return nil, nil, err
			}
			return e.tr, v, nil
		}
		s.mu.Unlock()

		select {
		case <-f.ready:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
		switch {
		case f.err == nil:
			return e.tr, f.val, nil
		case !errors.Is(f.err, stdcontext.Canceled) && !errors.Is(f.err, stdcontext.DeadlineExceeded):
			return nil, nil, f.err
		case ctx.Err() != nil:
			return nil, nil, ctx.Err()
		}
	}
}

// evictOverLocked drops the other entries, least recently used first, until
// the store is back under its bound. keep is never evicted: its bytes were
// just added and it is being handed to callers, so dropping it would only
// force an immediate regeneration. keep need not be the most recently used
// entry (a slow generation or Derive build finishes behind entries added
// while it ran), so the walk passes over it rather than stopping there. It
// passes over entries still generating too: they hold no bytes, so dropping
// one frees nothing and only hands its trace out uncached. A keep larger
// than the whole bound stays resident alone rather than thrashing. Requires
// s.mu held.
func (s *Store) evictOverLocked(keep StoreKey) {
	if s.maxBytes <= 0 {
		return
	}
	for el := s.lru.Back(); el != nil && s.bytes > s.maxBytes; {
		prev := el.Prev()
		if key := el.Value.(StoreKey); key != keep && s.entries[key].tr != nil {
			s.removeLocked(key)
		}
		el = prev
	}
}

// removeLocked drops one entry. In-flight entries (tr not yet set) have no
// accounted bytes; they are unlinked and flagged so their generation does
// not add bytes later. Requires s.mu held.
func (s *Store) removeLocked(key StoreKey) {
	e, ok := s.entries[key]
	if !ok {
		return
	}
	delete(s.entries, key)
	if e.lruElem != nil {
		s.lru.Remove(e.lruElem)
		e.lruElem = nil
	}
	if !e.evicted && e.tr != nil {
		s.bytes -= e.bytes
	}
	e.evicted = true
	s.stats.Evictions++
}

// Release drops the entry for (spec, n, seed) if present, freeing its bytes
// for the capacity bound. Existing holders of the trace pointer are
// unaffected. Use it when a sweep is done with a benchmark and the store is
// bounded tightly.
func (s *Store) Release(spec Spec, n int, seed int64) {
	key := StoreKey{Name: spec.Name, N: n, Seed: seed}
	s.mu.Lock()
	if _, ok := s.entries[key]; ok {
		s.removeLocked(key)
	}
	s.mu.Unlock()
}

// Reset drops every entry. Benchmarks use it to measure cold-store runs.
func (s *Store) Reset() {
	s.mu.Lock()
	s.entries = make(map[StoreKey]*storeEntry)
	s.lru.Init()
	s.bytes = 0
	s.stats = StoreStats{}
	s.mu.Unlock()
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Bytes returns the approximate resident size of cached traces and their
// derived values.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// defaultStoreMaxBytes bounds the process-wide store at 2 GiB of accesses —
// generous for Quick-scale sweeps (33 benchmarks × 60k accesses ≈ 48 MB)
// while still bounding paper-scale multi-gigabyte runs.
const defaultStoreMaxBytes = 2 << 30

// DefaultStore is the process-wide store used by the experiment harness and
// cpu harness. Tests and benchmarks may Reset it.
var DefaultStore = NewStore(defaultStoreMaxBytes)

// Shared returns spec.Generate(n, seed) through DefaultStore: identical
// contents, generated once per key process-wide, shared read-only across
// callers. It panics if a fallible custom source fails; use SharedE for
// ingested workloads.
func Shared(spec Spec, n int, seed int64) *trace.Trace {
	return DefaultStore.Get(spec, n, seed)
}

// SharedE is Shared with error reporting, for specs backed by fallible
// sources (ChampSim files, nested mixes).
func SharedE(spec Spec, n int, seed int64) (*trace.Trace, error) {
	return DefaultStore.GetE(spec, n, seed)
}
