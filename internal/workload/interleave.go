package workload

import (
	"fmt"
	"math/rand"

	"glider/internal/trace"
)

// Multi-tenant interleaving.
//
// A shared cache tier serves several tenants whose streams interleave at the
// front end. mixConfig merges two member workloads into one stream under a
// deterministic arrival discipline, tagging each tenant into a disjoint
// address (and PC) space so tenants never share blocks or predictor entries
// — contention is for capacity, exactly as in a shared LLC or CDN node.
//
// Two disciplines:
//
//   - rr: strict round-robin, tenant 0 on even slots. The deterministic
//     baseline.
//   - poisson: each slot draws its tenant from a seeded Bernoulli(P). This
//     is the arrival process of two independent Poisson streams with rate
//     ratio P/(1-P) observed at merge points, reduced to discrete slots.
//
// Both preserve each member's access order exactly (the merge is a shuffle,
// never a reorder) and are pure functions of (config, n, seed).

// Mix modes.
const (
	mixRR      = "rr"
	mixPoisson = "poisson"
)

// tenantShift/tenantMask carve the tag field, bits 60–63, out of the top
// address and PC bits; maxTenantTag is the largest tag they hold. Member
// addresses (synthetic regions, zipf regions, 48-bit physical ChampSim
// addresses) stay below 1<<60 until a mix tags them.
const (
	tenantShift  = 60
	tenantMask   = uint64(1)<<tenantShift - 1
	maxTenantTag = uint64(1)<<(64-tenantShift) - 1
)

// mixConfig parameterizes one two-tenant interleaved workload.
type mixConfig struct {
	// Mode is mixRR or mixPoisson.
	Mode string
	// A and B are the member workloads (any resolvable spec, including
	// nested spec strings).
	A, B Spec
	// P is the probability a slot belongs to tenant A in poisson mode
	// (default 0.5; ignored for rr).
	P float64
}

// Generate produces the deterministic interleaving: n total accesses, named
// name, fully determined by (config, n, seed). Member traces are generated
// at exactly the lengths the arrival sequence assigns them, with seeds
// derived per tenant so identical members still produce distinct streams.
func (m mixConfig) Generate(name string, n int, seed int64) (*trace.Trace, error) {
	p := m.P
	if p == 0 {
		p = 0.5
	}
	// Draw the arrival sequence first; it fixes each member's length.
	fromA := make([]bool, n)
	countA := 0
	switch m.Mode {
	case mixRR:
		for i := range fromA {
			fromA[i] = i%2 == 0
		}
		countA = (n + 1) / 2
	case mixPoisson:
		r := rand.New(rand.NewSource(seed ^ int64(hashName(name))))
		for i := range fromA {
			if r.Float64() < p {
				fromA[i] = true
				countA++
			}
		}
	default:
		return nil, fmt.Errorf("ingest: unknown mix mode %q", m.Mode)
	}

	trA, err := m.A.GenerateE(countA, tenantSeed(seed, 0))
	if err != nil {
		return nil, fmt.Errorf("ingest: mix member %q: %w", m.A.Name, err)
	}
	trB, err := m.B.GenerateE(n-countA, tenantSeed(seed, 1))
	if err != nil {
		return nil, fmt.Errorf("ingest: mix member %q: %w", m.B.Name, err)
	}

	out := trace.New(name, n)
	ai, bi := 0, 0
	for _, a := range fromA {
		var acc trace.Access
		var ok bool
		if a {
			acc, ok = tagTenant(next(trA, &ai), 0, 2)
		} else {
			acc, ok = tagTenant(next(trB, &bi), 1, 2)
		}
		if !ok {
			return nil, fmt.Errorf("ingest: mix %q: tenant tags overflow address and PC bits 60-63", name)
		}
		out.Append(acc)
	}
	return out, nil
}

// next returns the member's i-th access, wrapping around if the member
// produced fewer accesses than its slot count asked for (only possible for
// file-backed members shorter than the request; rewinding mirrors the
// paper's multi-core methodology).
func next(t *trace.Trace, i *int) trace.Access {
	if t.Len() == 0 {
		return trace.Access{}
	}
	a := t.Accesses[*i%t.Len()]
	*i++
	return a
}

// tagTenant moves an access into tenant k's disjoint address and PC space
// among n tenants. A member that is itself a mix already carries a tag t in
// bits 60–63, so the tag composes to 1 + k + n·t rather than being
// overwritten: every leaf of a nested mix keeps its own space. ok is false
// when the composed tag does not fit in those bits. Core is left untouched:
// tenancy is an address-space property, not a hierarchy topology.
func tagTenant(a trace.Access, k, n uint64) (trace.Access, bool) {
	addrTag := 1 + k + n*(a.Addr>>tenantShift)
	pcTag := 1 + k + n*(a.PC>>tenantShift)
	if addrTag > maxTenantTag || pcTag > maxTenantTag {
		return a, false
	}
	a.Addr = a.Addr&tenantMask | addrTag<<tenantShift
	a.PC = a.PC&tenantMask | pcTag<<tenantShift
	return a, true
}

// tenantSeed derives a member seed: distinct per tenant, deterministic in
// the mix seed (splitmix64-style odd-constant mixing).
func tenantSeed(seed int64, tenant int64) int64 {
	x := uint64(seed) + uint64(tenant+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return int64(x)
}
