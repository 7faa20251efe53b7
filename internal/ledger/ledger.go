package ledger

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"glider/internal/obs"
)

// Artifact is one content-addressed result. ID is the SHA-256 of the
// canonical artifact encoding {"kind":...,"payload":...}; Payload holds the
// canonical payload bytes. Batch/Leaf locate the artifact in the Merkle
// chain once anchored (Batch is -1 while the artifact is still pending).
type Artifact struct {
	ID      ID
	Kind    string
	Payload []byte
	Batch   int
	Leaf    int
}

// artifactRecord is the stored encoding of an artifact. The record bytes on
// the log are the canonical form of this struct, and the artifact's ID is
// the SHA-256 of exactly those bytes.
type artifactRecord struct {
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

// batchRecord is the stored encoding of one batch anchor. Leaves repeats
// the batch's artifact IDs so a proof for one artifact — and the batch root
// itself — can be recomputed even when a sibling artifact's content is
// later damaged: the damage is then attributable to exactly the leaf whose
// stored ID no longer matches its content.
type batchRecord struct {
	Index  int      `json:"index"`
	Leaves []string `json:"leaves"`
	Root   string   `json:"root"`
	Prev   string   `json:"prev"`
	Chain  string   `json:"chain"`
}

// Batch is one anchored batch.
type Batch struct {
	Index  int
	Leaves []ID
	Root   ID
	Prev   ID
	Chain  ID
}

// ChainState is the ledger head: what /v1/ledger/root publishes.
type ChainState struct {
	// Batches is the number of anchored batches.
	Batches int `json:"batches"`
	// Artifacts is the number of anchored artifacts.
	Artifacts int `json:"artifacts"`
	// Pending is the number of appended-but-not-yet-anchored artifacts.
	Pending int `json:"pending"`
	// Chain is the hex chain root after the last batch (the all-zero
	// genesis root when no batch has been anchored).
	Chain string `json:"chain"`
}

// Proof is a self-contained inclusion proof: artifact → batch root via the
// audit path, batch root → chain via the recorded link. Hex throughout so
// it round-trips JSON cleanly.
type Proof struct {
	// Artifact is the proven artifact ID.
	Artifact string `json:"artifact"`
	// Kind echoes the artifact kind (informational).
	Kind string `json:"kind"`
	// Batch and Leaf locate the artifact; Size is the batch's leaf count.
	Batch int `json:"batch"`
	Leaf  int `json:"leaf"`
	Size  int `json:"size"`
	// Path is the Merkle audit path, deepest sibling first.
	Path []string `json:"path"`
	// Root is the batch's Merkle root.
	Root string `json:"root"`
	// Prev and Chain are the chain roots before and after the batch.
	Prev  string `json:"prev"`
	Chain string `json:"chain"`
}

// Verify checks the proof end to end: the artifact ID recomputes the batch
// root through the audit path, and the batch root links Prev onto Chain.
func (p Proof) Verify() error {
	id, err := ParseID(p.Artifact)
	if err != nil {
		return err
	}
	root, err := ParseID(p.Root)
	if err != nil {
		return err
	}
	prev, err := ParseID(p.Prev)
	if err != nil {
		return err
	}
	chain, err := ParseID(p.Chain)
	if err != nil {
		return err
	}
	path := make([]ID, len(p.Path))
	for i, s := range p.Path {
		if path[i], err = ParseID(s); err != nil {
			return err
		}
	}
	if !VerifyInclusion(id, p.Leaf, p.Size, path, root) {
		return fmt.Errorf("ledger: proof for artifact %s: inclusion check failed (leaf %d of %d, batch %d)", p.Artifact, p.Leaf, p.Size, p.Batch)
	}
	if ChainHash(prev, root) != chain {
		return fmt.Errorf("ledger: proof for artifact %s: chain link check failed at batch %d", p.Artifact, p.Batch)
	}
	return nil
}

// proofFor builds the inclusion proof for artifact a, anchored in batch bt.
// Ledger.Prove and VerifyReport.Prove both build through it.
func proofFor(a Artifact, bt Batch) (Proof, error) {
	path, err := MerklePath(bt.Leaves, a.Leaf)
	if err != nil {
		return Proof{}, err
	}
	p := Proof{
		Artifact: a.ID.String(),
		Kind:     a.Kind,
		Batch:    bt.Index,
		Leaf:     a.Leaf,
		Size:     len(bt.Leaves),
		Path:     make([]string, len(path)),
		Root:     bt.Root.String(),
		Prev:     bt.Prev.String(),
		Chain:    bt.Chain.String(),
	}
	for i, h := range path {
		p.Path[i] = h.String()
	}
	return p, nil
}

// Options configures a Ledger.
type Options struct {
	// FlushEvery anchors pending artifacts on this interval (<= 0: only
	// explicit Flush calls, BatchMax overflows, and proofs anchor).
	FlushEvery time.Duration
	// BatchMax flushes as soon as this many artifacts are pending
	// (default 256).
	BatchMax int
	// Obs receives ledger metrics; nil disables them.
	Obs *obs.Registry
}

func (o Options) defaulted() Options {
	if o.BatchMax <= 0 {
		o.BatchMax = 256
	}
	return o
}

// Errors callers branch on.
var (
	// ErrUnknownArtifact reports a Get/Prove for an ID the ledger has never
	// anchored or appended.
	ErrUnknownArtifact = errors.New("ledger: unknown artifact")
)

// Ledger is a content-addressed artifact store over an append-only Merkle
// chain. Safe for concurrent use.
type Ledger struct {
	mu      sync.Mutex
	b       Backend
	opts    Options
	arts    map[ID]*Artifact
	order   []ID // every artifact in append order; order[anchored:] is pending
	batches []Batch
	chain   ID
	flushed int // artifacts covered by batches

	stopCh   chan struct{}
	doneCh   chan struct{}
	flushErr error

	appended *obs.Counter
	deduped  *obs.Counter
	anchored *obs.Counter
	bytes    *obs.Counter
}

// New opens a ledger over a backend. The log is read once, by Verify, and
// a log with any problem is refused with the first one: a batch root or
// chain link that does not recompute, an artifact whose content no longer
// matches its leaf, an artifact recorded twice. Opening a tampered ledger is
// an error, not a warning.
func New(b Backend, opts Options) (*Ledger, error) {
	rep := Verify(b)
	if !rep.OK() {
		return nil, fmt.Errorf("ledger: %s", rep.Problems[0])
	}
	opts = opts.defaulted()
	l := &Ledger{
		b:       b,
		opts:    opts,
		arts:    make(map[ID]*Artifact, len(rep.Artifacts)),
		order:   make([]ID, len(rep.Artifacts)),
		batches: rep.Batches,
		flushed: rep.State.Artifacts,
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
	for i := range rep.Artifacts {
		a := &rep.Artifacts[i].Artifact
		l.arts[a.ID] = a
		l.order[i] = a.ID
	}
	if n := len(rep.Batches); n > 0 {
		l.chain = rep.Batches[n-1].Chain
	}
	if opts.Obs != nil {
		l.appended = opts.Obs.Counter("ledger.artifacts.appended")
		l.deduped = opts.Obs.Counter("ledger.artifacts.deduped")
		l.anchored = opts.Obs.Counter("ledger.batches.anchored")
		l.bytes = opts.Obs.Counter("ledger.bytes.appended")
	}
	if opts.FlushEvery > 0 {
		go l.flushLoop()
	} else {
		close(l.doneCh)
	}
	return l, nil
}

func decodeArtifact(data []byte) (Artifact, error) {
	canon, err := Canonicalize(data)
	if err != nil {
		return Artifact{}, err
	}
	if string(canon) != string(data) {
		return Artifact{}, errors.New("artifact record is not canonical")
	}
	var rec artifactRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return Artifact{}, err
	}
	if rec.Kind == "" {
		return Artifact{}, errors.New("artifact record has no kind")
	}
	payload, err := Canonicalize(rec.Payload)
	if err != nil {
		return Artifact{}, err
	}
	return Artifact{ID: contentID(data), Kind: rec.Kind, Payload: payload, Batch: -1, Leaf: -1}, nil
}

func decodeBatch(data []byte) (Batch, error) {
	// Batch records are canonical-only and closed to unknown fields: a
	// mutation that renames a key (leaving the old field at its zero value)
	// or reorders/reformats the record must be detected even when the
	// decoded semantics would coincidentally survive it.
	canon, err := Canonicalize(data)
	if err != nil {
		return Batch{}, err
	}
	if string(canon) != string(data) {
		return Batch{}, errors.New("batch record is not canonical")
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rec batchRecord
	if err := dec.Decode(&rec); err != nil {
		return Batch{}, err
	}
	bt := Batch{Index: rec.Index, Leaves: make([]ID, len(rec.Leaves))}
	for i, s := range rec.Leaves {
		if bt.Leaves[i], err = ParseID(s); err != nil {
			return Batch{}, err
		}
	}
	if bt.Root, err = ParseID(rec.Root); err != nil {
		return Batch{}, err
	}
	if bt.Prev, err = ParseID(rec.Prev); err != nil {
		return Batch{}, err
	}
	if bt.Chain, err = ParseID(rec.Chain); err != nil {
		return Batch{}, err
	}
	return bt, nil
}

// EncodeArtifact builds the canonical artifact record bytes for a payload
// already in JSON form. ArtifactIDFor is the hash of exactly these bytes.
func EncodeArtifact(kind string, payload json.RawMessage) ([]byte, error) {
	if kind == "" {
		return nil, errors.New("ledger: artifact kind must be non-empty")
	}
	return CanonicalJSON(artifactRecord{Kind: kind, Payload: payload})
}

// ArtifactIDFor computes the content address an Append(kind, payload) would
// record, without a ledger: the way a client that only holds a served
// result derives the ID to request a proof for.
func ArtifactIDFor(kind string, payload json.RawMessage) (ID, error) {
	data, err := EncodeArtifact(kind, payload)
	if err != nil {
		return ID{}, err
	}
	return contentID(data), nil
}

func contentID(canonicalRecord []byte) ID {
	return sha256Sum(canonicalRecord)
}

// Append canonicalizes payload (any JSON-marshalable value, including raw
// json.RawMessage bytes), content-addresses it under kind, and appends it to
// the log. Appends are idempotent: a payload the ledger already holds is
// returned as-is without a new record — content addressing makes replays
// and cross-layer double-recording harmless.
func (l *Ledger) Append(kind string, payload any) (Artifact, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return Artifact{}, err
	}
	data, err := EncodeArtifact(kind, raw)
	if err != nil {
		return Artifact{}, err
	}
	id := contentID(data)

	l.mu.Lock()
	defer l.mu.Unlock()
	if a, ok := l.arts[id]; ok {
		l.deduped.Inc()
		return *a, nil
	}
	if err := l.b.Append(Record{Type: RecordArtifact, Data: data}); err != nil {
		return Artifact{}, err
	}
	a, err := decodeArtifact(data)
	if err != nil {
		return Artifact{}, err
	}
	l.arts[id] = &a
	l.order = append(l.order, id)
	l.appended.Inc()
	l.bytes.Add(uint64(len(data)))
	if len(l.order)-l.flushed >= l.opts.BatchMax {
		if _, err := l.flushLocked(); err != nil {
			return Artifact{}, err
		}
	}
	return *l.arts[id], nil
}

// Flush anchors every pending artifact into one batch: leaves in append
// order, an RFC 6962-shaped Merkle root, and a chain link onto the previous
// root, all recorded on the log and synced. With nothing pending it is a
// no-op returning the last batch (zero Batch when none exists).
func (l *Ledger) Flush() (Batch, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

func (l *Ledger) flushLocked() (Batch, error) {
	pending := l.order[l.flushed:]
	if len(pending) == 0 {
		if len(l.batches) == 0 {
			return Batch{Index: -1}, nil
		}
		return l.batches[len(l.batches)-1], nil
	}
	leaves := append([]ID(nil), pending...)
	bt := Batch{
		Index:  len(l.batches),
		Leaves: leaves,
		Root:   MerkleRoot(leaves),
		Prev:   l.chain,
	}
	bt.Chain = ChainHash(bt.Prev, bt.Root)
	rec := batchRecord{
		Index:  bt.Index,
		Leaves: make([]string, len(leaves)),
		Root:   bt.Root.String(),
		Prev:   bt.Prev.String(),
		Chain:  bt.Chain.String(),
	}
	for i, leaf := range leaves {
		rec.Leaves[i] = leaf.String()
	}
	data, err := CanonicalJSON(rec)
	if err != nil {
		return Batch{}, err
	}
	if err := l.b.Append(Record{Type: RecordBatch, Data: data}); err != nil {
		return Batch{}, err
	}
	if err := l.b.Sync(); err != nil {
		return Batch{}, err
	}
	for j, leaf := range leaves {
		a := l.arts[leaf]
		a.Batch, a.Leaf = bt.Index, j
	}
	l.batches = append(l.batches, bt)
	l.chain = bt.Chain
	l.flushed += len(leaves)
	l.anchored.Inc()
	l.bytes.Add(uint64(len(data)))
	return bt, nil
}

func (l *Ledger) flushLoop() {
	defer close(l.doneCh)
	ticker := time.NewTicker(l.opts.FlushEvery)
	defer ticker.Stop()
	for {
		select {
		case <-l.stopCh:
			return
		case <-ticker.C:
			if _, err := l.Flush(); err != nil {
				l.mu.Lock()
				l.flushErr = err
				l.mu.Unlock()
			}
		}
	}
}

// Root reports the chain head.
func (l *Ledger) Root() ChainState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return ChainState{
		Batches:   len(l.batches),
		Artifacts: l.flushed,
		Pending:   len(l.order) - l.flushed,
		Chain:     l.chain.String(),
	}
}

// Get returns the artifact stored under id.
func (l *Ledger) Get(id ID) (Artifact, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a, ok := l.arts[id]
	if !ok {
		return Artifact{}, fmt.Errorf("%w: %s", ErrUnknownArtifact, id)
	}
	return *a, nil
}

// Prove returns an inclusion proof for id. A still-pending artifact is
// anchored first (an implicit Flush), so a proof request never has to wait
// out the flush interval.
func (l *Ledger) Prove(id ID) (Proof, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a, ok := l.arts[id]
	if !ok {
		return Proof{}, fmt.Errorf("%w: %s", ErrUnknownArtifact, id)
	}
	if a.Batch < 0 {
		if _, err := l.flushLocked(); err != nil {
			return Proof{}, err
		}
	}
	return proofFor(*a, l.batches[a.Batch])
}

// Close stops the auto-flush loop, anchors whatever is pending, and closes
// the backend. It reports the first background flush error if one occurred.
func (l *Ledger) Close() error {
	l.mu.Lock()
	if l.opts.FlushEvery > 0 {
		select {
		case <-l.stopCh:
		default:
			close(l.stopCh)
		}
	}
	l.mu.Unlock()
	<-l.doneCh
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err := l.flushLocked()
	if err == nil {
		err = l.flushErr
	}
	if cerr := l.b.Close(); err == nil {
		err = cerr
	}
	return err
}
