// Command audit verifies an experiment ledger file end to end — without
// trusting the process that wrote it.
//
//	audit verify -ledger results.ledger
//	audit verify -ledger results.ledger -artifact <hex id> -resim
//	audit root   -ledger results.ledger
//	audit list   -ledger results.ledger
//	audit prove  -ledger results.ledger -artifact <hex id>
//
// verify replays the full record log: every batch root is recomputed from
// its committed leaves, every chain link is rechecked hop by hop, and every
// artifact's content hash is compared against the leaf the chain committed
// to. Any mismatch — a single flipped byte anywhere in the file — exits
// nonzero and names the damaged record, batch, leaf, and artifact. With
// -artifact the inclusion proof for that artifact is rebuilt and checked;
// adding -resim re-runs the recorded simulation from the artifact's own
// parameters and requires the fresh result to canonicalize to the same
// bytes — a historical number is reproduced bit for bit, or the audit fails.
//
// The ledger file is opened read-only; auditing never modifies evidence.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"glider/internal/experiments"
	"glider/internal/ledger"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: audit <verify|root|list|prove> -ledger FILE [-artifact HEXID] [-resim]")
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	cmd := args[0]
	switch cmd {
	case "verify", "root", "list", "prove":
	default:
		fmt.Fprintf(stderr, "audit: unknown command %q\n", cmd)
		usage(stderr)
		return 2
	}
	fs := flag.NewFlagSet("audit "+cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	ledgerPath := fs.String("ledger", "", "ledger file to audit (required)")
	artifact := fs.String("artifact", "", "hex artifact ID to prove (verify, prove)")
	resim := fs.Bool("resim", false, "with verify -artifact: re-run the simulation and require bit-identical results")
	timeout := fs.Duration("timeout", 10*time.Minute, "re-simulation deadline")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	if *ledgerPath == "" {
		fmt.Fprintln(stderr, "audit: -ledger is required")
		return 2
	}
	if *resim && (cmd != "verify" || *artifact == "") {
		fmt.Fprintln(stderr, "audit: -resim needs verify -artifact")
		return 2
	}

	b, err := ledger.ReadDisk(*ledgerPath)
	if err != nil {
		fmt.Fprintf(stderr, "audit: %s: %v\n", *ledgerPath, err)
		return 1
	}
	defer b.Close()
	if b.Torn() {
		fmt.Fprintf(stderr, "audit: %s: torn tail (crash mid-append); auditing the complete prefix\n", *ledgerPath)
	}
	rep := ledger.Verify(b)
	for _, p := range rep.Problems {
		fmt.Fprintf(stderr, "audit: PROBLEM %s\n", p)
	}

	switch cmd {
	case "root":
		writeJSON(stdout, rep.State)
	case "list":
		for _, a := range rep.Artifacts {
			status := "ok"
			if a.Err != nil {
				status = "DAMAGED"
			}
			loc := "pending"
			if a.Batch >= 0 {
				loc = fmt.Sprintf("batch %d leaf %d", a.Batch, a.Leaf)
			}
			fmt.Fprintf(stdout, "%s  %-12s %-16s %s\n", a.ID, a.Kind, loc, status)
		}
	case "prove":
		if *artifact == "" {
			fmt.Fprintln(stderr, "audit: prove needs -artifact")
			return 2
		}
		// Scoped to the artifact: a damaged sibling does not block proving
		// an intact leaf — the chain committed to leaf IDs, not bytes.
		p, err := proveAndCheck(rep, *artifact)
		if err != nil {
			fmt.Fprintf(stderr, "audit: %v\n", err)
			return 1
		}
		writeJSON(stdout, p)
		return 0
	case "verify":
		if *artifact != "" {
			// Targeted audit: the verdict is scoped to this artifact, so an
			// intact result stays provable (and reproducible) even when a
			// sibling leaf was damaged. The ledger-wide problems are still
			// printed above; a full-ledger verdict is `verify` without
			// -artifact.
			return verifyArtifact(rep, *artifact, *resim, *timeout, stdout, stderr)
		}
		if !rep.OK() {
			fmt.Fprintf(stderr, "audit: FAILED: %d problem(s) in %s\n", len(rep.Problems), *ledgerPath)
			return 1
		}
		fmt.Fprintf(stdout, "audit: ok: %d artifact(s) in %d batch(es), %d pending, chain %s\n",
			rep.State.Artifacts, rep.State.Batches, rep.State.Pending, rep.State.Chain)
	}
	if !rep.OK() {
		return 1
	}
	return 0
}

// proveAndCheck builds the inclusion proof from the verified batches and
// checks it locally before handing it out.
func proveAndCheck(rep ledger.VerifyReport, artifact string) (ledger.Proof, error) {
	id, err := ledger.ParseID(artifact)
	if err != nil {
		return ledger.Proof{}, fmt.Errorf("artifact: %v", err)
	}
	p, err := rep.Prove(id)
	if err != nil {
		return ledger.Proof{}, err
	}
	if err := p.Verify(); err != nil {
		return ledger.Proof{}, err
	}
	return p, nil
}

// verifyArtifact checks one artifact's inclusion proof and content, and with
// resim re-runs the recorded simulation and byte-compares the results.
func verifyArtifact(rep ledger.VerifyReport, artifact string, resim bool, timeout time.Duration, stdout, stderr io.Writer) int {
	p, err := proveAndCheck(rep, artifact)
	if err != nil {
		fmt.Fprintf(stderr, "audit: %v\n", err)
		return 1
	}
	i := slices.IndexFunc(rep.Artifacts, func(a ledger.VerifiedArtifact) bool { return a.ID.String() == p.Artifact })
	target := rep.Artifacts[i] // Prove found the artifact, so i >= 0
	if target.Err != nil {
		fmt.Fprintf(stderr, "audit: artifact %s: content damaged: %v\n", artifact, target.Err)
		return 1
	}
	fmt.Fprintf(stdout, "audit: artifact %s: inclusion proof ok (batch %d leaf %d of %d)\n", p.Artifact, p.Batch, p.Leaf, p.Size)
	if !resim {
		return 0
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := resimulate(ctx, target); err != nil {
		fmt.Fprintf(stderr, "audit: artifact %s: re-simulation: %v\n", artifact, err)
		return 1
	}
	fmt.Fprintf(stdout, "audit: artifact %s: re-simulation bit-identical\n", p.Artifact)
	return 0
}

// resimulate re-runs an artifact's recorded experiment from the parameters
// embedded in its own payload and requires the fresh result to canonicalize
// to exactly the stored bytes. Supported kinds are the ones whose payloads
// are self-describing: "cell" and "estimate" (one simulation names its
// workload, policy, accesses and seed) and "zoo" (an exhaustive grid names
// its workloads, policies, accesses and seed; the grid runs to completion,
// ignoring ctx).
func resimulate(ctx context.Context, a ledger.VerifiedArtifact) error {
	switch a.Kind {
	case experiments.LedgerKindCell:
		var rec experiments.CellResult
		if err := ledger.DecodePayload(a, &rec); err != nil {
			return err
		}
		fresh, err := experiments.RunCell(ctx, rec.Workload, rec.Policy, rec.Accesses, rec.Seed)
		if err != nil {
			return err
		}
		return compareCanonical(a.Payload, fresh)
	case experiments.LedgerKindEstimate:
		var rec experiments.EstimateResult
		if err := ledger.DecodePayload(a, &rec); err != nil {
			return err
		}
		fresh, err := experiments.RunEstimateCell(ctx, rec.Workload, rec.Policy, rec.Accesses, rec.Seed)
		if err != nil {
			return err
		}
		return compareCanonical(a.Payload, fresh)
	case experiments.LedgerKindZoo:
		var rec experiments.Sweep
		if err := ledger.DecodePayload(a, &rec); err != nil {
			return err
		}
		cfg := experiments.Config{Accesses: rec.Accesses, Seed: rec.Seed}
		fresh, err := experiments.RunSweepExhaustive(cfg, experiments.SweepOptions{Workloads: rec.Workloads, Policies: rec.Policies})
		if err != nil {
			return err
		}
		return compareCanonical(a.Payload, fresh)
	case experiments.LedgerKindSweep:
		return fmt.Errorf("kind %q does not support re-simulation (its surrogate cells need the estimator its run trained)", a.Kind)
	default:
		return fmt.Errorf("kind %q does not support re-simulation (its payload does not embed its full parameters)", a.Kind)
	}
}

// compareCanonical canonicalizes a fresh result and byte-compares it against
// the stored canonical payload.
func compareCanonical(stored []byte, fresh any) error {
	got, err := ledger.CanonicalJSON(fresh)
	if err != nil {
		return err
	}
	if string(got) != string(stored) {
		return fmt.Errorf("result diverged from the anchored payload:\n  anchored: %s\n  fresh:    %s", stored, got)
	}
	return nil
}

func writeJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
