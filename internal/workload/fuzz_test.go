package workload

import (
	"bytes"
	"testing"

	"glider/internal/trace"
)

// FuzzStreamVsOneShot is the differential oracle as a fuzz target: for any
// file contents and length, the champsim scheme's streamed decode and
// oneShot's decode of the whole buffer produce identical traces or
// identical errors, and never panic.
func FuzzStreamVsOneShot(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add(bytes.Repeat([]byte{0}, trace.ChampSimRecordSize), -1)
	f.Add(bytes.Repeat([]byte{0xff}, trace.ChampSimRecordSize*3), 2)
	f.Add(bytes.Repeat([]byte{0xa5}, trace.ChampSimRecordSize+17), 0) // truncated tail
	f.Add([]byte{0x1f, 0x8b, 0x00}, 0)                                // gzip magic, corrupt body
	f.Add([]byte{0xfd, '7', 'z'}, 0)                                  // xz magic
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n > 1<<16 || n < -1<<16 {
			return // the scheme materializes exactly n accesses: cap that, not the input space
		}
		diffOneShot(t, writeTraceFile(t, data), data, n)
	})
}

// FuzzParseSpec enforces the parser's contract on untrusted input: malformed
// specs error (never panic), and accepted specs canonicalize to a fixpoint.
func FuzzParseSpec(f *testing.F) {
	f.Add("zipf(objects=100,skew=1.2)")
	f.Add("zipf(skew=0.9,objects=4096,span=2,pcs=8,scan-every=1000,scan-len=64,churn-every=5000)")
	f.Add("mix(rr,mcf,libquantum)")
	f.Add("mix(poisson,zipf(objects=32,skew=1),mix(rr,mcf,mcf),p=0.25)")
	f.Add("champsim(file=../trace/testdata/mini.champsim)")
	f.Add("zipf(objects=100,skew=1.2))(")
	f.Add("mix(rr,mix(rr,mix(rr,mcf,mcf),mcf),mcf)")
	f.Add("zipf(objects=-1,skew=1e309)")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := parse(s)
		if err != nil {
			return
		}
		again, err := parse(spec.Name)
		if err != nil {
			t.Fatalf("canonical %q from %q does not reparse: %v", spec.Name, s, err)
		}
		if again.Name != spec.Name {
			t.Fatalf("canonicalization not a fixpoint: %q → %q → %q", s, spec.Name, again.Name)
		}
		// The resolver must agree with direct parsing.
		resolved, err := Resolve(s)
		if err != nil {
			t.Fatalf("parse accepted %q but Resolve rejected it: %v", s, err)
		}
		if resolved.Name != spec.Name {
			t.Fatalf("Resolve(%q).Name = %q, parse = %q", s, resolved.Name, spec.Name)
		}
	})
}
