package workload

import (
	"math"
	"sort"
	"testing"

	"glider/internal/trace"
)

func mixMembers(t *testing.T) (a, b Spec) {
	t.Helper()
	a, err := Lookup("mcf")
	if err != nil {
		t.Fatal(err)
	}
	b, err = Lookup("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// untag strips the tenant tag and returns the tenant id (1-based tag).
func untag(a trace.Access) (trace.Access, uint64) {
	tenant := a.Addr >> tenantShift
	a.Addr &= tenantMask
	a.PC &= tenantMask
	return a, tenant
}

// checkMix verifies the three structural invariants on one generated mix:
// every access carries a valid tenant tag, each tenant's subsequence equals
// its member trace in order (order preservation), and together they use up
// exactly the member traces (the merge is a permutation of the inputs).
func checkMix(t *testing.T, m mixConfig, n int, seed int64) *trace.Trace {
	t.Helper()
	tr, err := m.Generate("m", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Accesses) != n {
		t.Fatalf("got %d accesses, want %d", len(tr.Accesses), n)
	}

	var sub [2][]trace.Access
	for i, a := range tr.Accesses {
		plain, tenant := untag(a)
		if tenant != 1 && tenant != 2 {
			t.Fatalf("access %d: tenant tag %d", i, tenant)
		}
		sub[tenant-1] = append(sub[tenant-1], plain)
	}

	for tenant, spec := range []Spec{m.A, m.B} {
		want, err := spec.GenerateE(len(sub[tenant]), tenantSeed(seed, int64(tenant)))
		if err != nil {
			t.Fatal(err)
		}
		// Untagged subsequence == the member's own stream, in order. (Member
		// traces generate at exactly the requested length here, so the
		// wrap-around path is not in play.)
		sameAccesses(t, sub[tenant], want.Accesses)
	}
	return tr
}

func TestMixRRInvariants(t *testing.T) {
	a, b := mixMembers(t)
	for _, n := range []int{0, 1, 7, 5000} {
		tr := checkMix(t, mixConfig{Mode: mixRR, A: a, B: b}, n, 42)
		// Strict alternation, tenant 1 (member A) on even slots.
		for i, acc := range tr.Accesses {
			if _, tenant := untag(acc); tenant != uint64(i%2)+1 {
				t.Fatalf("slot %d: tenant %d", i, tenant)
			}
		}
	}
}

func TestMixPoissonInvariants(t *testing.T) {
	a, b := mixMembers(t)
	const n = 20_000
	for _, p := range []float64{0.3, 0.5, 0.7} {
		m := mixConfig{Mode: mixPoisson, A: a, B: b, P: p}
		tr := checkMix(t, m, n, 42)

		countA := 0
		for _, acc := range tr.Accesses {
			if _, tenant := untag(acc); tenant == 1 {
				countA++
			}
		}
		// Bernoulli(p) over 20k slots: the observed share lands within a few
		// standard deviations (σ ≈ 0.0035) of p.
		if got := float64(countA) / n; math.Abs(got-p) > 0.02 {
			t.Fatalf("p=%.1f: tenant-A share %.4f", p, got)
		}

		// Determinism: same inputs, same interleaving.
		again, err := m.Generate("m", n, 42)
		if err != nil {
			t.Fatal(err)
		}
		sameAccesses(t, again.Accesses, tr.Accesses)

		// A different seed draws a different arrival sequence.
		other, err := m.Generate("m", n, 43)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := range tr.Accesses {
			if tr.Accesses[i] != other.Accesses[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical mixes")
		}
	}
}

// TestMixPermutation spells the multiset property out explicitly: sorting
// the merged stream equals sorting the two tagged member streams together.
func TestMixPermutation(t *testing.T) {
	a, b := mixMembers(t)
	const n = 4001 // odd: member lengths differ
	tr := checkMix(t, mixConfig{Mode: mixRR, A: a, B: b}, n, 7)

	countA := (n + 1) / 2
	trA, err := a.GenerateE(countA, tenantSeed(7, 0))
	if err != nil {
		t.Fatal(err)
	}
	trB, err := b.GenerateE(n-countA, tenantSeed(7, 1))
	if err != nil {
		t.Fatal(err)
	}
	var want []trace.Access
	for _, acc := range trA.Accesses {
		want = append(want, tagTenant(acc, 0))
	}
	for _, acc := range trB.Accesses {
		want = append(want, tagTenant(acc, 1))
	}
	got := append([]trace.Access{}, tr.Accesses...)
	less := func(s []trace.Access) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i].Addr != s[j].Addr {
				return s[i].Addr < s[j].Addr
			}
			if s[i].PC != s[j].PC {
				return s[i].PC < s[j].PC
			}
			return s[i].Kind < s[j].Kind
		}
	}
	sort.Slice(got, less(got))
	sort.Slice(want, less(want))
	sameAccesses(t, got, want)
}

func TestMixTenantSpacesDisjoint(t *testing.T) {
	a, b := mixMembers(t)
	tr := checkMix(t, mixConfig{Mode: mixRR, A: a, B: a}, 2000, 3) // same member twice
	blocks := [3]map[uint64]bool{nil, {}, {}}
	for _, acc := range tr.Accesses {
		_, tenant := untag(acc)
		blocks[tenant][acc.Block()] = true
	}
	for blk := range blocks[1] {
		if blocks[2][blk] {
			t.Fatalf("block %#x shared across tenants", blk)
		}
	}
	_ = b
}

func TestMixUnknownMode(t *testing.T) {
	a, b := mixMembers(t)
	if _, err := (mixConfig{Mode: "fifo", A: a, B: b}).Generate("m", 10, 1); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestMixWrapsShortMembers pins the rewind semantics for members that
// produce fewer accesses than their slots (file-backed traces).
func TestMixWrapsShortMembers(t *testing.T) {
	short := Custom("short3", Ingest, func(n int, seed int64) (*trace.Trace, error) {
		tr := trace.New("short3", 3)
		for i := 0; i < 3; i++ { // ignores n: always 3 accesses
			tr.Append(trace.Access{PC: uint64(100 + i), Addr: uint64(0x1000 * (i + 1)), Kind: trace.Load})
		}
		return tr, nil
	})
	b, _ := mixMembers(t)
	tr, err := (mixConfig{Mode: mixRR, A: short, B: b}).Generate("m", 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i += 2 { // tenant A slots
		plain, _ := untag(tr.Accesses[i])
		want := uint64(100 + (i/2)%3)
		if plain.PC != want {
			t.Fatalf("slot %d: PC %d, want %d (wrap)", i, plain.PC, want)
		}
	}
}
