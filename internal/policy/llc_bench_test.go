package policy_test

import (
	"context"
	"testing"

	"glider/internal/cache"
	"glider/internal/cpu"
	"glider/internal/policy"
	"glider/internal/workload"
)

// BenchmarkLLCPolicy prices each registered policy's LLC event path: one
// operation replays a captured LLC stream (mcf at the quick sweep's 60k
// accesses, filtered through L1/L2 once, outside the timer) on a Table 1
// LLC. The LLC is built once and reset before every replay, both outside
// the timer, and an untimed warm-up replay first grows every table, so
// allocs/op reads 0 for every policy. ns/event divides the timed replays by
// the LLC events they replayed.
func BenchmarkLLCPolicy(b *testing.B) {
	spec, err := workload.Lookup("mcf")
	if err != nil {
		b.Fatal(err)
	}
	tr := spec.Generate(60_000, 42)
	ctx := context.Background()
	capture, err := cpu.NewCapture(ctx, tr, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := cache.LLCConfig
	for _, name := range policy.Names() {
		b.Run(name, func(b *testing.B) {
			p, _ := policy.New(name, cfg.Sets, cfg.Ways)
			llc, err := cache.New(cfg, p)
			if err != nil {
				b.Fatal(err)
			}
			replay := func() {
				if _, err := capture.RunFunctional(ctx, llc, 0, false); err != nil {
					b.Fatal(err)
				}
			}
			replay() // warm-up: grow every table
			b.ReportAllocs()
			b.ResetTimer()
			var events uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				llc.Reset()
				b.StartTimer()
				replay()
				events += llc.Stats().Accesses
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}
