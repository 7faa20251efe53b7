package workload_test

import (
	"testing"

	// Registers the zipf scheme for the spec-string case.
	_ "glider/internal/trace/ingest"
	"glider/internal/workload"
)

// TestGenerateERejectsNegativeLength: a negative length is an error for a
// registry benchmark and a spec workload alike, and the store caches
// nothing for it.
func TestGenerateERejectsNegativeLength(t *testing.T) {
	for _, name := range []string{"mcf", "zipf(objects=64,skew=1)"} {
		spec, err := workload.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		if tr, err := spec.GenerateE(-5, 1); err == nil {
			t.Fatalf("%s: GenerateE(-5) returned %d accesses, want an error", name, tr.Len())
		}
		st := workload.NewStore(0)
		for i := 0; i < 2; i++ {
			if _, err := st.GetE(spec, -5, 1); err == nil {
				t.Fatalf("%s: store GetE(-5) succeeded", name)
			}
		}
		if s := st.Stats(); s.Hits != 0 || s.Misses != 2 || st.Bytes() != 0 {
			t.Fatalf("%s: store after two failed gets: %+v, %d bytes; want two misses and nothing cached", name, s, st.Bytes())
		}
	}
}
