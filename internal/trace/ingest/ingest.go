// Package ingest turns external trace sources into first-class workloads:
// real ChampSim/CRC2 LLC traces read off disk, Zipf web/CDN object streams,
// and deterministic multi-tenant interleavings of any two workloads.
// ChampSim files decode through trace.ReadChampSim, which stops at the
// requested access count, so memory is bounded by n, not by the file size.
//
// Each source is exposed two ways:
//
//   - A direct API (trace.ReadChampSim, ZipfConfig, MixConfig) for tools
//     that consume accesses or traces themselves.
//   - A spec string — champsim(file=...), zipf(objects=...,skew=...),
//     mix(rr|poisson,left,right) — parsed by Parse and registered with
//     workload.RegisterScheme from this package's init, so every caller of
//     workload.Resolve (experiments cells, gliderd /v1/sim, glidersim
//     -bench) accepts them wherever a benchmark name is accepted.
//
// Spec strings canonicalize: Parse returns a workload.Spec whose Name is the
// canonical rendering of the spec, so every spelling of the same workload
// shares one workload.Store cache entry and one gliderd result-cache line.
//
// Generation stays deterministic in (n, seed) for every scheme, which is
// what lets workload.Store treat (Name, n, seed) as the full identity of a
// trace. For champsim specs the file's contents are part of that identity in
// spirit but not in the key — the store caches whatever the file held when
// first read, and a fleet must share a filesystem view for cross-node
// determinism.
package ingest

import "glider/internal/workload"

func init() {
	parse := func(s string) (workload.Spec, error) { return Parse(s) }
	workload.RegisterScheme("champsim", parse)
	workload.RegisterScheme("zipf", parse)
	workload.RegisterScheme("mix", parse)
}
