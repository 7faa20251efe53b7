package policy_test

import (
	"context"
	"testing"

	"glider/internal/cache"
	"glider/internal/cpu"
	"glider/internal/policy"
	"glider/internal/workload"
)

// BenchmarkLLCPolicy prices each registered policy on the LLC alone: one
// operation builds the policy on the Table 1 LLC and replays a captured LLC
// stream (mcf at the quick sweep's 60k accesses, filtered through L1/L2
// once, outside the timer). allocs/op therefore includes the policy's
// construction and warm-up; ns/event divides by the replayed LLC events.
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
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				p, _ := policy.New(name, cfg.Sets, cfg.Ways)
				llc, err := cache.New(cfg, p)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := capture.RunFunctional(ctx, llc, 0, false); err != nil {
					b.Fatal(err)
				}
				events += llc.Stats().Accesses
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}
