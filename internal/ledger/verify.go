package ledger

import (
	"encoding/json"
	"fmt"
)

// VerifiedArtifact is one artifact as seen by a full verification replay.
// Once anchored, its ID is the stored leaf ID — the identity the chain
// committed to; Payload is nil when the record is damaged.
type VerifiedArtifact struct {
	Artifact
	// Err is non-nil when the artifact's content no longer matches the
	// chain's commitment (or no longer decodes at all).
	Err error
}

// Problem is one verification failure, located as precisely as the damage
// allows.
type Problem struct {
	// Record is the log record index the problem was detected at.
	Record int
	// Batch and Leaf locate the failing leaf (-1 when not leaf-scoped).
	Batch int
	Leaf  int
	// Artifact is the committed artifact ID when known.
	Artifact string
	// Msg says what failed.
	Msg string
}

func (p Problem) String() string {
	where := fmt.Sprintf("record %d", p.Record)
	if p.Batch >= 0 && p.Leaf >= 0 {
		where = fmt.Sprintf("batch %d leaf %d (record %d)", p.Batch, p.Leaf, p.Record)
	} else if p.Batch >= 0 {
		where = fmt.Sprintf("batch %d (record %d)", p.Batch, p.Record)
	}
	if p.Artifact != "" {
		return fmt.Sprintf("%s artifact %s: %s", where, p.Artifact, p.Msg)
	}
	return fmt.Sprintf("%s: %s", where, p.Msg)
}

// VerifyReport is the outcome of a full ledger verification replay.
type VerifyReport struct {
	// State is the verified chain head: when structural damage stops the
	// replay, the head of the prefix that verified before it.
	State ChainState
	// Artifacts lists every artifact in log order, damaged ones included.
	Artifacts []VerifiedArtifact
	// Batches lists every batch that verified, in chain order.
	Batches []Batch
	// Problems lists every verification failure in detection order.
	Problems []Problem
}

// OK reports whether the replay verified cleanly.
func (r VerifyReport) OK() bool { return len(r.Problems) == 0 }

// Verify replays a backend's full record log and checks every commitment
// independently of the Ledger type: batch roots recomputed from recorded
// leaves, chain links rechecked hop by hop, each artifact's content hash
// compared against the leaf the chain committed to, and no artifact recorded
// twice. It is the one reader of the log: New opens a backend through it.
// Structural damage to the chain itself (a bad root or broken link) stops
// the replay — nothing after it is trustworthy — but per-artifact content
// damage is collected and attributed to its exact leaf, so intact siblings
// still verify (and can still be proven and re-simulated).
func Verify(b Backend) (rep VerifyReport) {
	var chain ID
	anchored := 0           // rep.Artifacts[anchored:] are pending
	var recs []int          // the log record of each rep.Artifacts entry
	firstAt := map[ID]int{} // the record each decoded artifact first appeared at
	fail := func(p Problem) { rep.Problems = append(rep.Problems, p) }
	// Every return, the early ones included, reports the verified head.
	defer func() {
		rep.State = ChainState{Batches: len(rep.Batches), Artifacts: anchored, Pending: len(rep.Artifacts) - anchored, Chain: chain.String()}
	}()

	for i := 0; i < b.Len(); i++ {
		rec, err := b.Read(i)
		if err != nil {
			fail(Problem{Record: i, Batch: -1, Leaf: -1, Msg: err.Error()})
			break
		}
		switch rec.Type {
		case RecordArtifact:
			a, err := decodeArtifact(rec.Data)
			if err != nil {
				// The record still occupies a leaf slot: remember it by the
				// hash of its (damaged) bytes so the batch walk can name it.
				a = Artifact{ID: contentID(rec.Data), Batch: -1, Leaf: -1}
			} else if first, dup := firstAt[a.ID]; dup {
				fail(Problem{Record: i, Batch: -1, Leaf: -1, Artifact: a.ID.String(), Msg: fmt.Sprintf("duplicate of record %d", first)})
			} else {
				firstAt[a.ID] = i
			}
			rep.Artifacts = append(rep.Artifacts, VerifiedArtifact{Artifact: a, Err: err})
			recs = append(recs, i)
		case RecordBatch:
			n := len(rep.Batches)
			bt, err := decodeBatch(rec.Data)
			var msg string
			if err != nil {
				msg = fmt.Sprintf("batch record does not decode: %v", err)
			} else {
				msg = chainProblem(bt, n, chain, len(rep.Artifacts)-anchored)
			}
			if msg != "" {
				fail(Problem{Record: i, Batch: n, Leaf: -1, Msg: msg})
				return rep
			}
			// The chain is sound. Now attribute any content damage to its
			// exact leaf: a stored leaf whose artifact record hashes
			// differently was modified after anchoring.
			for j, leaf := range bt.Leaves {
				va := &rep.Artifacts[anchored+j]
				switch {
				case va.Err != nil:
					va.Err = fmt.Errorf("artifact record does not decode: %v", va.Err)
				case va.ID != leaf:
					va.Err = fmt.Errorf("content hash %s does not match committed leaf %s", va.ID, leaf)
					va.Payload = nil
				}
				if va.Err != nil {
					fail(Problem{Record: recs[anchored+j], Batch: n, Leaf: j, Artifact: leaf.String(), Msg: va.Err.Error()})
				}
				va.ID, va.Batch, va.Leaf = leaf, n, j
			}
			rep.Batches = append(rep.Batches, bt)
			anchored += len(bt.Leaves)
			chain = bt.Chain
		default:
			fail(Problem{Record: i, Batch: -1, Leaf: -1, Msg: fmt.Sprintf("unknown record type %q", rec.Type)})
			return rep
		}
	}
	for j, va := range rep.Artifacts[anchored:] {
		if va.Err != nil {
			fail(Problem{Record: recs[anchored+j], Batch: -1, Leaf: -1, Artifact: va.ID.String(), Msg: fmt.Sprintf("pending artifact record does not decode: %v", va.Err)})
		}
	}
	return rep
}

// chainProblem checks decoded batch bt against the verified chain: it must
// be batch n, extend chain, cover exactly the pending artifacts, and carry
// the root and chain link its leaves recompute to. It returns "" for a
// sound batch.
func chainProblem(bt Batch, n int, chain ID, pending int) string {
	switch {
	case bt.Index != n:
		return fmt.Sprintf("batch index %d, want %d", bt.Index, n)
	case bt.Prev != chain:
		return fmt.Sprintf("prev chain root %s does not extend %s", bt.Prev, chain)
	case len(bt.Leaves) == 0 || len(bt.Leaves) != pending:
		return fmt.Sprintf("%d leaves but %d artifacts pending", len(bt.Leaves), pending)
	}
	if root := MerkleRoot(bt.Leaves); root != bt.Root {
		return fmt.Sprintf("recorded root %s, recomputed %s", bt.Root, root)
	}
	if link := ChainHash(bt.Prev, bt.Root); link != bt.Chain {
		return fmt.Sprintf("recorded chain root %s, recomputed %s", bt.Chain, link)
	}
	return ""
}

// Prove builds the inclusion proof for an anchored artifact from the
// verified batches — the read-only path cmd/audit uses. It works even when
// sibling artifacts are damaged: the chain committed to their leaf IDs, not
// their bytes.
func (r VerifyReport) Prove(id ID) (Proof, error) {
	for _, a := range r.Artifacts {
		if a.ID != id {
			continue
		}
		if a.Batch < 0 {
			return Proof{}, fmt.Errorf("ledger: artifact %s is not anchored yet", id)
		}
		return proofFor(a.Artifact, r.Batches[a.Batch])
	}
	return Proof{}, fmt.Errorf("%w: %s", ErrUnknownArtifact, id)
}

// DecodePayload unmarshals an artifact payload into v — a convenience for
// auditors re-simulating historical results.
func DecodePayload(a VerifiedArtifact, v any) error {
	if a.Err != nil {
		return a.Err
	}
	return json.Unmarshal(a.Payload, v)
}
