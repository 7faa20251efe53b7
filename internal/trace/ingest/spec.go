package ingest

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"glider/internal/trace"
	"glider/internal/workload"
)

// Workload spec strings.
//
// A spec string names an ingested workload the way a benchmark name names a
// synthetic one, so it can travel through every surface that takes a
// workload: gliderd request bodies, experiment flags, store keys. Grammar
// (no whitespace; nesting only where noted):
//
//	champsim(file=PATH)                 ChampSim/CRC2 trace file, raw or .gz
//	zipf(objects=N,skew=F[,span=N][,pcs=N]
//	     [,scan-every=N][,scan-len=N][,churn-every=N])
//	mix(rr,LEFT,RIGHT)                  round-robin two-tenant interleave
//	mix(poisson,LEFT,RIGHT[,p=F])       seeded-Bernoulli interleave
//
// LEFT/RIGHT are registry benchmark names or nested specs (champsim, zipf,
// or mix up to depth 3). Parse canonicalizes: the returned Spec's Name is
// the unique rendering of the workload (defaults elided, fixed key order,
// shortest float form), so zipf(skew=1.20,objects=100) and
// zipf(objects=100,skew=1.2) share one cache identity everywhere.
//
// Parse returns an error — never panics — on malformed input; FuzzParseSpec
// enforces this and the canonicalization fixpoint Parse(Parse(s).Name).Name
// == Parse(s).Name.

// Parse limits: a spec arriving over HTTP is untrusted input, so every
// numeric parameter is bounded and nesting is capped.
const (
	maxSpecLen  = 4096
	maxMixDepth = 3
)

// Parse turns a spec string into a workload.Spec with a canonical Name.
func Parse(s string) (workload.Spec, error) {
	return parseSpec(s, 0)
}

func parseSpec(s string, depth int) (workload.Spec, error) {
	if len(s) > maxSpecLen {
		return workload.Spec{}, fmt.Errorf("ingest: spec longer than %d bytes", maxSpecLen)
	}
	scheme, args, err := splitSpec(s)
	if err != nil {
		return workload.Spec{}, err
	}
	switch scheme {
	case "champsim":
		return parseChampSim(args)
	case "zipf":
		return parseZipf(args)
	case "mix":
		return parseMix(args, depth)
	default:
		return workload.Spec{}, fmt.Errorf("ingest: unknown spec scheme %q", scheme)
	}
}

// splitSpec splits "scheme(a,b,c)" into the scheme and its top-level
// comma-separated arguments (commas inside nested parens do not split).
func splitSpec(s string) (scheme string, args []string, err error) {
	open := strings.IndexByte(s, '(')
	if open <= 0 || !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("ingest: malformed spec %q (want scheme(args))", s)
	}
	scheme = s[:open]
	body := s[open+1 : len(s)-1]
	if body == "" {
		return scheme, nil, nil
	}
	depth, start := 0, 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth < 0 {
				return "", nil, fmt.Errorf("ingest: unbalanced parens in spec %q", s)
			}
		case ',':
			if depth == 0 {
				args = append(args, body[start:i])
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return "", nil, fmt.Errorf("ingest: unbalanced parens in spec %q", s)
	}
	args = append(args, body[start:])
	return scheme, args, nil
}

// keyValues parses key=value arguments, rejecting duplicates and keys
// outside the allowed set.
func keyValues(args []string, allowed ...string) (map[string]string, error) {
	kv := make(map[string]string, len(args))
	for _, a := range args {
		eq := strings.IndexByte(a, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("ingest: malformed argument %q (want key=value)", a)
		}
		k, v := a[:eq], a[eq+1:]
		ok := false
		for _, al := range allowed {
			if k == al {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("ingest: unknown argument %q (allowed: %s)", k, strings.Join(allowed, ", "))
		}
		if _, dup := kv[k]; dup {
			return nil, fmt.Errorf("ingest: duplicate argument %q", k)
		}
		if v == "" {
			return nil, fmt.Errorf("ingest: empty value for %q", k)
		}
		kv[k] = v
	}
	return kv, nil
}

func intArg(kv map[string]string, key string, def, min, max int) (int, error) {
	v, ok := kv[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("ingest: %s=%q is not an integer", key, v)
	}
	if n < min || n > max {
		return 0, fmt.Errorf("ingest: %s=%d out of range [%d, %d]", key, n, min, max)
	}
	return n, nil
}

// ---------------------------------------------------------------- champsim

func parseChampSim(args []string) (workload.Spec, error) {
	kv, err := keyValues(args, "file")
	if err != nil {
		return workload.Spec{}, err
	}
	path, ok := kv["file"]
	if !ok {
		return workload.Spec{}, fmt.Errorf("ingest: champsim spec requires file=PATH")
	}
	fi, err := os.Stat(path)
	if err != nil {
		return workload.Spec{}, fmt.Errorf("ingest: champsim trace: %w", err)
	}
	if fi.IsDir() {
		return workload.Spec{}, fmt.Errorf("ingest: champsim trace %q is a directory", path)
	}
	name := fmt.Sprintf("champsim(file=%s)", path)
	return workload.Custom(name, workload.Ingest, func(n int, seed int64) (*trace.Trace, error) {
		return generateChampSim(name, path, n)
	}), nil
}

// generateChampSim decodes at most n accesses of the file (n = 0 reads it
// all), so memory is bounded by n rather than by the file size. A file
// shorter than n is cycle-extended to exactly n — the rewind the paper's
// multi-core methodology uses — so downstream warmup fractions and per-cell
// access counts hold for every file length. The seed is unused: the file's
// bytes are the workload's identity.
func generateChampSim(name, path string, n int) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ingest: champsim trace: %w", err)
	}
	defer f.Close()
	t, err := trace.ReadChampSim(f, name, n)
	if err != nil {
		return nil, fmt.Errorf("ingest: champsim trace %s: %w", path, err)
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("ingest: champsim trace %s contains no memory accesses", path)
	}
	for base := t.Len(); n > 0 && t.Len() < n; {
		t.Append(t.Accesses[t.Len()%base])
	}
	return t, nil
}

// ---------------------------------------------------------------- zipf

func parseZipf(args []string) (workload.Spec, error) {
	kv, err := keyValues(args, "objects", "skew", "span", "pcs", "scan-every", "scan-len", "churn-every")
	if err != nil {
		return workload.Spec{}, err
	}
	if _, ok := kv["objects"]; !ok {
		return workload.Spec{}, fmt.Errorf("ingest: zipf spec requires objects=N")
	}
	if _, ok := kv["skew"]; !ok {
		return workload.Spec{}, fmt.Errorf("ingest: zipf spec requires skew=F")
	}
	var c ZipfConfig
	if c.Objects, err = intArg(kv, "objects", 0, 1, zipfMaxObjects); err != nil {
		return workload.Spec{}, err
	}
	skew, err := strconv.ParseFloat(kv["skew"], 64)
	if err != nil || skew != skew { // reject NaN
		return workload.Spec{}, fmt.Errorf("ingest: skew=%q is not a number", kv["skew"])
	}
	if skew < 0 || skew > zipfMaxSkew {
		return workload.Spec{}, fmt.Errorf("ingest: skew=%v out of range [0, %v]", skew, zipfMaxSkew)
	}
	c.Skew = skew
	if c.Span, err = intArg(kv, "span", zipfDefaultSpan, 1, zipfMaxSpan); err != nil {
		return workload.Spec{}, err
	}
	if c.PCs, err = intArg(kv, "pcs", zipfDefaultPCs, 1, zipfMaxPCs); err != nil {
		return workload.Spec{}, err
	}
	if c.ScanEvery, err = intArg(kv, "scan-every", 0, 0, 1<<30); err != nil {
		return workload.Spec{}, err
	}
	if c.ScanLen, err = intArg(kv, "scan-len", 0, 0, zipfMaxScanLen); err != nil {
		return workload.Spec{}, err
	}
	if c.ChurnEvery, err = intArg(kv, "churn-every", 0, 0, 1<<30); err != nil {
		return workload.Spec{}, err
	}
	if c.ScanLen > 0 && c.ScanEvery == 0 {
		return workload.Spec{}, fmt.Errorf("ingest: scan-len without scan-every")
	}
	if c.ScanEvery > 0 && c.ScanLen == 0 {
		// Make the default explicit here so the canonical name elides it:
		// "scan-every=N" and "scan-every=N,scan-len=512" are one workload.
		c.ScanLen = zipfDefaultScanLen
	}
	name := canonicalZipf(c)
	return workload.Custom(name, workload.Ingest, func(n int, seed int64) (*trace.Trace, error) {
		return c.Generate(name, n, seed), nil
	}), nil
}

// canonicalZipf renders the unique spec string for a config: required keys
// first, optional keys in fixed order only when they differ from defaults,
// floats in their shortest form.
func canonicalZipf(c ZipfConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "zipf(objects=%d,skew=%s", c.Objects, strconv.FormatFloat(c.Skew, 'g', -1, 64))
	if c.Span != 0 && c.Span != zipfDefaultSpan {
		fmt.Fprintf(&b, ",span=%d", c.Span)
	}
	if c.PCs != 0 && c.PCs != zipfDefaultPCs {
		fmt.Fprintf(&b, ",pcs=%d", c.PCs)
	}
	if c.ScanEvery > 0 {
		fmt.Fprintf(&b, ",scan-every=%d", c.ScanEvery)
		if c.ScanLen != zipfDefaultScanLen {
			fmt.Fprintf(&b, ",scan-len=%d", c.ScanLen)
		}
	}
	if c.ChurnEvery > 0 {
		fmt.Fprintf(&b, ",churn-every=%d", c.ChurnEvery)
	}
	b.WriteByte(')')
	return b.String()
}

// ---------------------------------------------------------------- mix

func parseMix(args []string, depth int) (workload.Spec, error) {
	if depth >= maxMixDepth {
		return workload.Spec{}, fmt.Errorf("ingest: mix nesting deeper than %d", maxMixDepth)
	}
	if len(args) < 3 {
		return workload.Spec{}, fmt.Errorf("ingest: mix spec wants mix(MODE,LEFT,RIGHT[,p=F])")
	}
	mode := args[0]
	if mode != MixRR && mode != MixPoisson {
		return workload.Spec{}, fmt.Errorf("ingest: unknown mix mode %q (want %q or %q)", mode, MixRR, MixPoisson)
	}
	left, err := parseMember(args[1], depth)
	if err != nil {
		return workload.Spec{}, err
	}
	right, err := parseMember(args[2], depth)
	if err != nil {
		return workload.Spec{}, err
	}
	p := 0.5
	rest := args[3:]
	switch {
	case len(rest) == 0:
	case len(rest) == 1 && mode == MixPoisson:
		v, ok := strings.CutPrefix(rest[0], "p=")
		if !ok {
			return workload.Spec{}, fmt.Errorf("ingest: unexpected mix argument %q", rest[0])
		}
		p, err = strconv.ParseFloat(v, 64)
		if err != nil || !(p > 0 && p < 1) {
			return workload.Spec{}, fmt.Errorf("ingest: p=%q must be a number in (0, 1)", v)
		}
	default:
		return workload.Spec{}, fmt.Errorf("ingest: too many mix arguments")
	}

	c := MixConfig{Mode: mode, A: left, B: right, P: p}
	var name string
	if mode == MixPoisson {
		name = fmt.Sprintf("mix(poisson,%s,%s,p=%s)", left.Name, right.Name, strconv.FormatFloat(p, 'g', -1, 64))
	} else {
		name = fmt.Sprintf("mix(rr,%s,%s)", left.Name, right.Name)
	}
	return workload.Custom(name, workload.Ingest, func(n int, seed int64) (*trace.Trace, error) {
		return c.Generate(name, n, seed)
	}), nil
}

// parseMember resolves a mix member: a nested spec when it contains parens,
// otherwise a registry benchmark name.
func parseMember(s string, depth int) (workload.Spec, error) {
	if strings.ContainsRune(s, '(') {
		return parseSpec(s, depth+1)
	}
	spec, err := workload.Lookup(s)
	if err != nil {
		return workload.Spec{}, fmt.Errorf("ingest: mix member: %w", err)
	}
	return spec, nil
}
