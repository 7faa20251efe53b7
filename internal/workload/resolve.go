package workload

// Workload-name resolution.
//
// The static registry names the paper's 33 synthetic benchmarks. Everything
// else — ChampSim trace files, Zipf object streams, multi-tenant mixes —
// arrives as a spec string of the form scheme(args...), which parse
// (spec.go) turns into a Spec named by the spec's canonical rendering.

import (
	"fmt"
	"slices"
	"strings"
)

// schemes are the spec-string schemes parse understands, in sorted order.
var schemes = []string{"champsim", "mix", "zipf"}

// Schemes returns the spec-string scheme names in sorted order (for the
// gliderd catalog).
func Schemes() []string { return slices.Clone(schemes) }

// Resolve turns a workload name or spec string into a Spec: registry names
// resolve as Lookup does; strings of the form "scheme(args)" are parsed as
// spec strings. The error for a malformed or unknown spec is always an
// error value, never a panic, whatever bytes arrive (the spec parser is
// fuzzed on this contract).
func Resolve(name string) (Spec, error) {
	if s, err := Lookup(name); err == nil {
		return s, nil
	}
	open := strings.IndexByte(name, '(')
	if open <= 0 || !strings.HasSuffix(name, ")") {
		return Spec{}, ErrUnknown{name}
	}
	if scheme := name[:open]; !slices.Contains(schemes, scheme) {
		return Spec{}, fmt.Errorf("workload: unknown spec scheme %q in %q", scheme, name)
	}
	return parse(name)
}
