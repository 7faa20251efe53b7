package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRegistryIsDisabled verifies the zero-overhead contract: a nil
// registry hands out nil metrics and every operation on them is a no-op.
func TestNilRegistryIsDisabled(t *testing.T) {
	t.Parallel()
	var r *Registry
	c := r.Counter("x")
	v := r.Vec("v", 8)
	h := r.Histogram("h", []float64{1, 2})
	tm := r.Timer("t")
	p := r.PCStats("p")
	if c != nil || v != nil || h != nil || tm != nil || p != nil {
		t.Fatalf("nil registry must return nil metrics: %v %v %v %v %v", c, v, h, tm, p)
	}
	c.Inc()
	c.Add(5)
	v.Inc(3)
	v.Add(1, 2)
	h.Observe(1.5)
	tm.Observe(time.Second)
	p.Access(1, true)
	p.Insertion(1)
	p.Eviction(1, false)
	if c.Value() != 0 || v.Value(3) != 0 || h.Count() != 0 || p.Len() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	if got := r.Snapshot(); len(got.Counters)+len(got.Hists)+len(got.Vecs)+len(got.PCs) != 0 {
		t.Fatalf("nil registry snapshot must be empty: %+v", got)
	}
}

func TestCounterAndVec(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c := r.Counter("hits")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("hits"); again != c {
		t.Fatal("Counter must dedupe by name")
	}
	v := r.Vec("classes", 3, "a", "b", "c")
	v.Inc(0)
	v.Add(2, 7)
	v.Inc(99) // out of range: ignored
	v.Inc(-1)
	if v.Value(0) != 1 || v.Value(2) != 7 || v.Value(1) != 0 {
		t.Fatalf("vec cells = %d %d %d", v.Value(0), v.Value(1), v.Value(2))
	}
	if v.Label(1) != "b" || v.Label(5) != "5" {
		t.Fatalf("labels = %q %q", v.Label(1), v.Label(5))
	}
}

func TestHistogramBuckets(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, x := range []float64{0.5, 1, 1.5, 10, 50, 1000} {
		h.Observe(x)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+1.5+10+50+1000; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	snap := r.Snapshot()
	if len(snap.Hists) != 1 {
		t.Fatalf("hists = %+v", snap.Hists)
	}
	counts := make([]uint64, 0, 4)
	for _, b := range snap.Hists[0].Buckets {
		counts = append(counts, b.Count)
	}
	// le=1: {0.5, 1}; le=10: {1.5, 10}; le=100: {50}; +Inf: {1000}.
	want := []uint64{2, 2, 1, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bucket counts = %v, want %v", counts, want)
		}
	}
	if !math.IsInf(snap.Hists[0].Buckets[3].UpperBound, 1) {
		t.Fatal("last bucket must be +Inf")
	}

	// Snapshots must survive a JSON round trip even though the overflow
	// bucket's bound is infinite (encoded as the string "+Inf").
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("snapshot changed across JSON round trip:\n before: %+v\n after:  %+v", snap, back)
	}
}

func TestPCStats(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	p := r.PCStats("llc")
	p.Access(0x10, true)
	p.Access(0x10, false)
	p.Access(0x20, false)
	p.Insertion(0x10)
	p.Eviction(0x10, true)
	p.Eviction(0x10, false)
	top := p.Top(0)
	if len(top) != 2 || top[0].PC != 0x10 {
		t.Fatalf("top = %+v", top)
	}
	o := top[0]
	if o.Accesses != 2 || o.Hits != 1 || o.Misses != 1 || o.Insertions != 1 ||
		o.EvictedReused != 1 || o.EvictedDead != 1 {
		t.Fatalf("outcome = %+v", o)
	}
	if o.DeadFraction() != 0.5 || o.HitRate() != 0.5 {
		t.Fatalf("rates = %v %v", o.DeadFraction(), o.HitRate())
	}
}

// TestConcurrentUpdates drives every metric type from many goroutines; run
// under -race this is the registry's thread-safety proof.
func TestConcurrentUpdates(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("c")
			v := r.Vec("v", 16)
			h := r.Histogram("h", []float64{0.5})
			p := r.PCStats("p")
			for i := 0; i < per; i++ {
				c.Inc()
				v.Inc(i % 16)
				h.Observe(float64(i&1) * 0.75)
				p.Access(uint64(i%7), i%2 == 0)
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
	if got := r.Histogram("h", nil).Count(); got != goroutines*per {
		t.Fatalf("hist count = %d, want %d", got, goroutines*per)
	}
	sum := uint64(0)
	v := r.Vec("v", 16)
	for i := 0; i < v.Len(); i++ {
		sum += v.Value(i)
	}
	if sum != goroutines*per {
		t.Fatalf("vec sum = %d, want %d", sum, goroutines*per)
	}
}

func TestSnapshotSummaryRenders(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("cache.llc.hits").Add(10)
	r.Histogram("dram.read.cycles", []float64{100, 200}).Observe(150)
	r.Vec("glider.class", 3, "averse", "low", "friendly").Inc(2)
	r.PCStats("cache.llc.pc").Access(0xdead, true)
	var buf bytes.Buffer
	r.Snapshot().WriteSummary(&buf)
	out := buf.String()
	for _, want := range []string{"cache.llc.hits", "dram.read.cycles", "glider.class", "0xdead"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestLinearAndExpBuckets(t *testing.T) {
	t.Parallel()
	lin := LinearBuckets(0, 2, 4)
	if lin[0] != 0 || lin[3] != 6 {
		t.Fatalf("linear = %v", lin)
	}
	exp := ExpBuckets(1, 10, 3)
	if exp[0] != 1 || exp[2] != 100 {
		t.Fatalf("exp = %v", exp)
	}
}

// TestHistQuantile pins the bucket-interpolation estimator the gateway and
// loadgen reports lean on: exact at bucket boundaries, linear inside a
// bucket, clamped to the last finite bound for overflow observations.
func TestHistQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", LinearBuckets(10, 10, 3)) // bounds 10, 20, 30
	for i := 0; i < 5; i++ {
		h.Observe(5)  // first bucket
		h.Observe(15) // second bucket
	}
	cases := []struct{ q, want float64 }{
		{0, 0}, {0.5, 10}, {0.75, 15}, {1, 20},
		{-1, 0}, {2, 20}, // out-of-range q clamps
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}

	// Overflow observations clamp to the last finite bound.
	over := r.Histogram("q.over", LinearBuckets(10, 10, 3))
	for i := 0; i < 4; i++ {
		over.Observe(1000)
	}
	if got := over.Quantile(0.99); got != 30 {
		t.Errorf("overflow quantile = %v, want clamp to 30", got)
	}

	// Empty histograms and nil receivers answer 0.
	if got := r.Histogram("q.empty", LinearBuckets(1, 1, 2)).Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v", got)
	}
	var nilHist *Histogram
	if got := nilHist.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram quantile = %v", got)
	}

	// The snapshot path agrees with the live path.
	var hs HistSnap
	for _, s := range r.Snapshot().Hists {
		if s.Name == "q" {
			hs = s
		}
	}
	if got := hs.Quantile(0.75); math.Abs(got-15) > 1e-9 {
		t.Errorf("snapshot quantile = %v, want 15", got)
	}
}

// TestHistQuantileNegativeFirstBucket: a layout whose first bound is
// negative (hawkeye.predict.counter, glider.predict.sum, the reuse-distance
// policies' train.err) clamps first-bucket ranks to that bound, instead of
// interpolating up from 0 to a value above the bucket; layouts that start
// above 0, such as every latency histogram, keep their numbers.
func TestHistQuantileNegativeFirstBucket(t *testing.T) {
	r := NewRegistry()
	neg := r.Histogram("neg", LinearBuckets(-16, 4, 9))
	for i := 0; i < 100; i++ {
		neg.Observe(-16)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := neg.Quantile(q); got != -16 {
			t.Errorf("Quantile(%v) of 100 observations of -16 = %v, want -16", q, got)
		}
	}
	lat := r.Histogram("lat", TimeBuckets)
	for i := 0; i < 10; i++ {
		lat.Observe(5e-7)
	}
	for i := 0; i < 20; i++ {
		lat.Observe(5e-3)
	}
	for i := 0; i < 5; i++ {
		lat.Observe(0.3)
	}
	lat.Observe(200)
	cases := []struct{ q, want float64 }{
		{0, 0}, {0.1, 3.6e-7}, {0.25, 9e-7}, {0.5, 0.0046}, {0.9, 0.292}, {0.99, 100}, {1, 100},
	}
	for _, c := range cases {
		if got := lat.Quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("TimeBuckets Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
