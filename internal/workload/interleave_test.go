package workload

import (
	"math"
	"sort"
	"strings"
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

// untag strips the tenant tag and returns it (1-based for a top-level
// tenant; composed for a nested mix's leaves).
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
	for k, member := range []*trace.Trace{trA, trB} {
		for _, acc := range member.Accesses {
			tagged, ok := tagTenant(acc, uint64(k), 2)
			if !ok {
				t.Fatalf("tenant %d: tag overflow on %+v", k, acc)
			}
			want = append(want, tagged)
		}
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

// TestMixTenantSpacesDisjoint checks that every leaf member of a mix, nested
// mixes included, gets its own address and PC space: the accesses carrying
// a leaf's tag, untagged, are exactly that member's own generation, and no
// block or PC is shared between two leaves. A leaf's path lists its tenant
// index at each level, outermost first.
func TestMixTenantSpacesDisjoint(t *testing.T) {
	type leaf struct {
		spec string
		path []uint64
	}
	cases := []struct {
		spec   string
		leaves []leaf
	}{
		{"mix(rr,mcf,mcf)", []leaf{{"mcf", []uint64{0}}, {"mcf", []uint64{1}}}},
		{"mix(rr,zipf(objects=4096,skew=0.9),mix(rr,mcf,mcf))", []leaf{
			{"zipf(objects=4096,skew=0.9)", []uint64{0}}, {"mcf", []uint64{1, 0}}, {"mcf", []uint64{1, 1}}}},
		{"mix(poisson,mix(rr,mcf,omnetpp),mix(rr,mcf,mcf),p=0.3)", []leaf{
			{"mcf", []uint64{0, 0}}, {"omnetpp", []uint64{0, 1}}, {"mcf", []uint64{1, 0}}, {"mcf", []uint64{1, 1}}}},
		{"mix(rr,mix(rr,mix(rr,mcf,mcf),mcf),mcf)", []leaf{
			{"mcf", []uint64{0, 0, 0}}, {"mcf", []uint64{0, 0, 1}}, {"mcf", []uint64{0, 1}}, {"mcf", []uint64{1}}}},
	}
	const n, seed = 20_000, 3
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			spec, err := Resolve(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := spec.GenerateE(n, seed)
			if err != nil {
				t.Fatal(err)
			}
			byTag := map[uint64][]trace.Access{}
			blockTag := map[uint64]uint64{}
			pcTag := map[uint64]uint64{}
			for i, a := range tr.Accesses {
				plain, tag := untag(a)
				if a.PC>>tenantShift != tag {
					t.Fatalf("access %d: address tag %d, PC tag %d", i, tag, a.PC>>tenantShift)
				}
				byTag[tag] = append(byTag[tag], plain)
				if other, ok := blockTag[a.Block()]; ok && other != tag {
					t.Fatalf("block %#x shared by tags %d and %d", a.Block(), other, tag)
				}
				if other, ok := pcTag[a.PC]; ok && other != tag {
					t.Fatalf("PC %#x shared by tags %d and %d", a.PC, other, tag)
				}
				blockTag[a.Block()], pcTag[a.PC] = tag, tag
			}
			covered := 0
			for _, l := range tc.leaves {
				// Tags compose innermost first; seeds derive outermost first.
				tag, leafSeed := uint64(0), int64(seed)
				for i := len(l.path) - 1; i >= 0; i-- {
					tag = 1 + l.path[i] + 2*tag
				}
				for _, k := range l.path {
					leafSeed = tenantSeed(leafSeed, int64(k))
				}
				member, err := Resolve(l.spec)
				if err != nil {
					t.Fatal(err)
				}
				got := byTag[tag]
				if len(got) == 0 {
					t.Fatalf("leaf %s %v: no accesses carry tag %d", l.spec, l.path, tag)
				}
				want, err := member.GenerateE(len(got), leafSeed)
				if err != nil {
					t.Fatal(err)
				}
				sameAccesses(t, got, want.Accesses)
				covered += len(got)
			}
			if covered != n {
				t.Fatalf("leaves cover %d of %d accesses; tags seen: %d", covered, n, len(byTag))
			}
		})
	}
}

// TestMixRefusesTagOverflow: a member whose addresses or PCs already use
// the top tag values leaves no room to compose a tenant tag, and the mix
// refuses it by name instead of folding it into another tenant's space.
func TestMixRefusesTagOverflow(t *testing.T) {
	kernel := Custom("kernel", Ingest, func(n int, seed int64) (*trace.Trace, error) {
		tr := trace.New("kernel", n)
		for i := 0; i < n; i++ {
			tr.Append(trace.Access{PC: 0xffffffff81000000, Addr: uint64(0x1000 * (i + 1)), Kind: trace.Load})
		}
		return tr, nil
	})
	a, _ := mixMembers(t)
	_, err := (mixConfig{Mode: mixRR, A: a, B: kernel}).Generate("mix(rr,mcf,kernel)", 10, 1)
	if err == nil || !strings.Contains(err.Error(), "mix(rr,mcf,kernel)") {
		t.Fatalf("err = %v, want a refusal naming the mix", err)
	}
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
