package ledger

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// TestMemoryDiskEquivalence drives a MemoryBackend and a DiskBackend through
// identical randomized append/flush/dedupe schedules and requires identical
// observable state throughout: chain heads, artifact anchors, and proof
// bytes. Afterwards the disk log is reopened and must replay to the same
// head — the durability half of the equivalence — and Verify must prove
// every artifact to the writer's proof bytes.
func TestMemoryDiskEquivalence(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			path := filepath.Join(t.TempDir(), "log")
			db, err := OpenDisk(path)
			if err != nil {
				t.Fatal(err)
			}
			batchMax := 2 + r.Intn(6)
			lm := mustLedger(t, NewMemory(), Options{BatchMax: batchMax})
			ld := mustLedger(t, db, Options{BatchMax: batchMax})

			var ids []ID
			steps := 40 + r.Intn(40)
			for i := 0; i < steps; i++ {
				switch {
				case r.Intn(5) == 0: // explicit flush
					bm, err1 := lm.Flush()
					bd, err2 := ld.Flush()
					if err1 != nil || err2 != nil {
						t.Fatalf("step %d: flush: %v / %v", i, err1, err2)
					}
					if bm.Index != bd.Index || bm.Root != bd.Root || bm.Chain != bd.Chain {
						t.Fatalf("step %d: flush diverged: %+v vs %+v", i, bm, bd)
					}
				case len(ids) > 0 && r.Intn(4) == 0: // replayed append (dedupe)
					id := ids[r.Intn(len(ids))]
					am, err1 := lm.Get(id)
					if err1 != nil {
						t.Fatal(err1)
					}
					var pm, pd Artifact
					var perr1, perr2 error
					pm, perr1 = lm.Append(am.Kind, json.RawMessage(am.Payload))
					pd, perr2 = ld.Append(am.Kind, json.RawMessage(am.Payload))
					if perr1 != nil || perr2 != nil {
						t.Fatalf("step %d: dedupe append: %v / %v", i, perr1, perr2)
					}
					if pm.ID != id || pd.ID != id {
						t.Fatalf("step %d: dedupe changed ID", i)
					}
				default: // fresh append
					kind := []string{"cell", "predict", "estimate"}[r.Intn(3)]
					p := payload{Name: fmt.Sprintf("w%d", r.Intn(1000)), Score: float64(r.Intn(100)) / 7, Seq: i + int(seed)*1000}
					am, err1 := lm.Append(kind, p)
					ad, err2 := ld.Append(kind, p)
					if err1 != nil || err2 != nil {
						t.Fatalf("step %d: append: %v / %v", i, err1, err2)
					}
					if am.ID != ad.ID {
						t.Fatalf("step %d: content address diverged: %s vs %s", i, am.ID, ad.ID)
					}
					ids = append(ids, am.ID)
				}
				if sm, sd := lm.Root(), ld.Root(); sm != sd {
					t.Fatalf("step %d: heads diverged:\n memory %+v\n disk   %+v", i, sm, sd)
				}
			}

			// Anchor the stragglers and compare every proof bytewise.
			if _, err := lm.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := ld.Flush(); err != nil {
				t.Fatal(err)
			}
			proofs := make(map[ID]string, len(ids))
			for _, id := range ids {
				pm, err1 := lm.Prove(id)
				pd, err2 := ld.Prove(id)
				if err1 != nil || err2 != nil {
					t.Fatalf("prove %s: %v / %v", id, err1, err2)
				}
				jm, _ := json.Marshal(pm)
				jd, _ := json.Marshal(pd)
				if string(jm) != string(jd) {
					t.Fatalf("proof for %s diverged:\n%s\n%s", id, jm, jd)
				}
				if err := pm.Verify(); err != nil {
					t.Fatal(err)
				}
				proofs[id] = string(jm)
			}
			finalHead := lm.Root()
			if err := ld.Close(); err != nil {
				t.Fatal(err)
			}

			// Reopen from disk: same head, same proofs.
			db2, err := OpenDisk(path)
			if err != nil {
				t.Fatal(err)
			}
			ld2 := mustLedger(t, db2, Options{BatchMax: batchMax})
			if got := ld2.Root(); got != finalHead {
				t.Fatalf("reopened head %+v, want %+v", got, finalHead)
			}
			for id, want := range proofs {
				p, err := ld2.Prove(id)
				if err != nil {
					t.Fatal(err)
				}
				j, _ := json.Marshal(p)
				if string(j) != want {
					t.Fatalf("reopened proof for %s diverged", id)
				}
			}
			// The independent auditor agrees with both.
			rep := Verify(db2)
			if !rep.OK() {
				t.Fatalf("audit problems: %v", rep.Problems)
			}
			if rep.State != finalHead {
				t.Fatalf("audit head %+v, want %+v", rep.State, finalHead)
			}
			// And proves every artifact to the writer's bytes.
			for id, want := range proofs {
				p, err := rep.Prove(id)
				if err != nil {
					t.Fatal(err)
				}
				j, _ := json.Marshal(p)
				if string(j) != want {
					t.Fatalf("audit proof for %s diverged:\n%s\n%s", id, j, want)
				}
			}
			if err := ld2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
