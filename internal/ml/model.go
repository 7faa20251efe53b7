package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// AttentionLSTMConfig sizes the paper's offline model (§4.1, Table 5).
type AttentionLSTMConfig struct {
	// Vocab is the PC vocabulary size.
	Vocab int
	// Embed is the embedding width (paper: 128).
	Embed int
	// Hidden is the LSTM state width (paper: 128).
	Hidden int
	// Scale is the attention scaling factor f (paper sweeps 1–5 in Fig 4).
	Scale float64
	// LR is the Adam learning rate (paper: 0.001).
	LR float64
	// ClipNorm bounds the global gradient norm per sequence (0 disables).
	ClipNorm float64
	// Seed makes initialization deterministic.
	Seed int64
}

// PaperConfig returns the exact Table 5 hyper-parameters for a vocabulary.
// It is expensive to train in pure Go; the experiment harness defaults to
// FastConfig and documents the substitution in EXPERIMENTS.md.
func PaperConfig(vocab int) AttentionLSTMConfig {
	return AttentionLSTMConfig{Vocab: vocab, Embed: 128, Hidden: 128, Scale: 1, LR: 0.001, ClipNorm: 5, Seed: 1}
}

// FastConfig returns a reduced configuration (embed/hidden 32) that trains
// orders of magnitude faster with the same qualitative behaviour on the
// synthetic workloads.
func FastConfig(vocab int) AttentionLSTMConfig {
	return AttentionLSTMConfig{Vocab: vocab, Embed: 32, Hidden: 32, Scale: 1, LR: 0.003, ClipNorm: 5, Seed: 1}
}

// AttentionLSTM is the paper's offline model: embedding → 1-layer LSTM →
// scaled dot-product attention → linear classifier, producing a binary
// cache-friendly/cache-averse label for each element of the input sequence
// (Figure 3).
type AttentionLSTM struct {
	cfg  AttentionLSTMConfig
	emb  *Embedding
	lstm *LSTM
	attn *Attention

	wOut   *Mat // 2 × 2H (context ‖ hidden)
	bOut   Vec
	pWOut  *Param
	pBOut  *Param
	gWOut  *Mat
	gBOut  Vec
	opt    Optimizer
	params []*Param

	scr modelScratch
}

// modelScratch holds the reused buffers of forward and AccumulateSequence
// so that steady-state training performs no per-step allocations. Each
// model (and each Shadow) owns its own scratch; none of it is shared
// across goroutines.
type modelScratch struct {
	inputs  []Vec // embedding row views, one per token
	concat  Vec   // 2H classifier input
	dConcat Vec   // 2H classifier input gradient
	dLogits Vec   // 2

	dH     *Mat  // T × H: per-timestep hidden-state gradients
	dHRows []Vec // row views of dH

	attnStates []AttentionState
	attnPtrs   []*AttentionState
	srcMats    []Mat // per-target source views into the LSTM hidden history
	probRows   []Vec

	weightsArena Vec // Σ_t t floats: attention weights per target
	ctxArena     Vec // nPred × H floats: context vectors
	logitArena   Vec // nPred × 2
	probArena    Vec // nPred × 2
}

// growForward sizes the forward-pass scratch for a T-token sequence with
// nPred predicted steps needing weightsLen total attention weights.
func (s *modelScratch) growForward(T, nPred, weightsLen, hidden int) {
	if cap(s.inputs) < T {
		s.inputs = make([]Vec, T)
	}
	s.inputs = s.inputs[:T]
	if len(s.concat) == 0 {
		s.concat = NewVec(2 * hidden)
		s.dConcat = NewVec(2 * hidden)
		s.dLogits = NewVec(2)
	}
	if cap(s.attnStates) < nPred {
		s.attnStates = make([]AttentionState, nPred)
		s.attnPtrs = make([]*AttentionState, nPred)
		s.srcMats = make([]Mat, nPred)
		s.probRows = make([]Vec, nPred)
	}
	if cap(s.weightsArena) < weightsLen {
		s.weightsArena = make(Vec, weightsLen)
	}
	if cap(s.ctxArena) < nPred*hidden {
		s.ctxArena = make(Vec, nPred*hidden)
	}
	if cap(s.logitArena) < nPred*2 {
		s.logitArena = make(Vec, nPred*2)
		s.probArena = make(Vec, nPred*2)
	}
}

// growBackward sizes the backward-pass scratch.
func (s *modelScratch) growBackward(T, hidden int) {
	if s.dH == nil || s.dH.Rows < T {
		s.dH = NewMat(T, hidden)
		s.dHRows = make([]Vec, T)
	}
	for t := 0; t < T; t++ {
		s.dHRows[t] = s.dH.Row(t)
	}
	view(s.dH, T).Zero()
}

// optOverride swaps the optimizer (used by gradient-checking tests).
func (m *AttentionLSTM) optOverride(o Optimizer) { m.opt = o }

// NewAttentionLSTM builds the model.
func NewAttentionLSTM(cfg AttentionLSTMConfig) (*AttentionLSTM, error) {
	if cfg.Vocab <= 0 || cfg.Embed <= 0 || cfg.Hidden <= 0 {
		return nil, fmt.Errorf("ml: invalid AttentionLSTM config %+v", cfg)
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	if cfg.LR == 0 {
		cfg.LR = 0.001
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	m := &AttentionLSTM{
		cfg:  cfg,
		emb:  NewEmbedding(cfg.Vocab, cfg.Embed, r),
		lstm: NewLSTM(cfg.Embed, cfg.Hidden, r),
		attn: &Attention{Scale: cfg.Scale},
		wOut: NewMat(2, 2*cfg.Hidden),
		bOut: NewVec(2),
	}
	m.wOut.XavierInit(r)
	m.pWOut = NewParam("out.w", m.wOut.Data)
	m.pBOut = NewParam("out.b", m.bOut)
	m.gWOut = &Mat{Rows: 2, Cols: 2 * cfg.Hidden, Data: m.pWOut.G}
	m.gBOut = Vec(m.pBOut.G)
	m.opt = NewAdam(cfg.LR)
	m.params = append(m.params, m.emb.Params()...)
	m.params = append(m.params, m.lstm.Params()...)
	m.params = append(m.params, m.pWOut, m.pBOut)
	return m, nil
}

// Config returns the model configuration.
func (m *AttentionLSTM) Config() AttentionLSTMConfig { return m.cfg }

// NumWeights returns the total trainable parameter count (Table 3 model
// size is NumWeights × 4 bytes for float32 storage).
func (m *AttentionLSTM) NumWeights() int {
	return m.emb.NumWeights() + m.lstm.NumWeights() + len(m.wOut.Data) + len(m.bOut)
}

// forwardPass is the output of forward that training and inference share.
type forwardPass struct {
	states []*LSTMState
	attn   []*AttentionState // indexed by t−predictFrom
	probs  []Vec
}

// forward runs the shared part of training and inference: embeddings, the
// LSTM, and per-target attention + logits. predictFrom is the first
// timestep whose output is collected (the first half of each sequence is
// warmup context, §4.1). One MulABt computes the LSTM input projections,
// attention runs over contiguous hidden-state rows, and every intermediate
// lives in reused arena storage. Results are valid until the next forward
// on the same model.
func (m *AttentionLSTM) forward(tokens []int, predictFrom int) *forwardPass {
	T := len(tokens)
	H := m.cfg.Hidden
	nPred := T - predictFrom
	if nPred < 0 {
		nPred = 0
	}
	// Total attention-weight storage: target t attends over t sources.
	weightsLen := 0
	for t := predictFrom; t < T; t++ {
		weightsLen += t
	}
	s := &m.scr
	s.growForward(T, nPred, weightsLen, H)
	for t, tok := range tokens {
		s.inputs[t] = m.emb.Forward(tok % m.cfg.Vocab)
	}
	states := m.lstm.Forward(s.inputs)
	fp := &forwardPass{states: states}
	if nPred == 0 {
		return fp
	}

	// hs row t+1 is h_t; the sources for target t are rows 1..t, a
	// contiguous prefix starting one row in.
	hs := m.lstm.scr.h
	wOff := 0
	for i := 0; i < nPred; i++ {
		t := predictFrom + i
		srcView := &s.srcMats[i]
		*srcView = Mat{Rows: t, Cols: H, Data: hs.Data[H : (t+1)*H]}
		weights := s.weightsArena[wOff : wOff+t]
		wOff += t
		ctx := s.ctxArena[i*H : (i+1)*H]
		ast := &s.attnStates[i]
		m.attn.ForwardMat(states[t].H, srcView, weights, ctx, ast)
		s.attnPtrs[i] = ast

		copy(s.concat[:H], ast.Context)
		copy(s.concat[H:], states[t].H)
		logits := s.logitArena[i*2 : (i+1)*2]
		probs := s.probArena[i*2 : (i+1)*2]
		m.wOut.MulVec(s.concat, logits)
		logits.Add(m.bOut)
		Softmax(logits, probs)
		s.probRows[i] = probs
	}
	fp.attn = s.attnPtrs[:nPred]
	fp.probs = s.probRows[:nPred]
	return fp
}

// Predict labels the sequence elements from predictFrom onward: true means
// cache-friendly. The returned slice has len(tokens)−predictFrom entries.
func (m *AttentionLSTM) Predict(tokens []int, predictFrom int) []bool {
	fp := m.forward(tokens, predictFrom)
	out := make([]bool, len(fp.probs))
	for i, p := range fp.probs {
		out[i] = p[1] >= p[0]
	}
	return out
}

// AttentionWeights returns, for each predicted timestep, the attention
// weight vector over its source positions (Figures 4 and 5).
func (m *AttentionLSTM) AttentionWeights(tokens []int, predictFrom int) [][]float64 {
	fp := m.forward(tokens, predictFrom)
	out := make([][]float64, len(fp.attn))
	for i, a := range fp.attn {
		out[i] = append([]float64(nil), a.Weights...)
	}
	return out
}

// TrainSequence performs one forward/backward/update pass over a sequence.
// labels[t] is the oracle decision for tokens[t]; only labels from
// predictFrom onward contribute to the loss. Returns the mean cross-entropy
// over the predicted steps.
func (m *AttentionLSTM) TrainSequence(tokens []int, labels []bool, predictFrom int) float64 {
	loss, n := m.AccumulateSequence(tokens, labels, predictFrom)
	if n == 0 {
		return 0
	}
	m.StepBatch(1)
	return loss
}

// AccumulateSequence runs one forward/backward pass and accumulates the
// sequence's gradients into the model's parameter gradient buffers without
// applying an optimizer step. It returns the mean cross-entropy over the
// predicted steps and the number of predicted steps. Minibatch training
// accumulates several sequences (possibly on Shadow models) before one
// StepBatch.
func (m *AttentionLSTM) AccumulateSequence(tokens []int, labels []bool, predictFrom int) (float64, int) {
	if len(labels) != len(tokens) {
		panic(fmt.Sprintf("ml: labels length %d != tokens length %d", len(labels), len(tokens)))
	}
	fp := m.forward(tokens, predictFrom)
	H := m.cfg.Hidden
	nPred := len(fp.probs)
	if nPred == 0 {
		return 0, 0
	}

	// Per-timestep hidden-state gradients, accumulated from attention
	// targets, attention sources, and the classifier.
	m.scr.growBackward(len(tokens), H)
	dH := m.scr.dHRows[:len(tokens)]

	loss := 0.0
	concat, dConcat, dLogits := m.scr.concat, m.scr.dConcat, m.scr.dLogits
	for i := nPred - 1; i >= 0; i-- {
		t := predictFrom + i
		y := 0
		if labels[t] {
			y = 1
		}
		p := fp.probs[i]
		loss += -logSafe(p[y])

		// Softmax cross-entropy gradient.
		dLogits[0], dLogits[1] = p[0], p[1]
		dLogits[y] -= 1

		ast := fp.attn[i]
		copy(concat[:H], ast.Context)
		copy(concat[H:], fp.states[t].H)
		m.gWOut.AddOuter(dLogits, concat)
		m.gBOut.Add(dLogits)

		dConcat.Zero()
		m.wOut.MulVecT(dLogits, dConcat)
		dContext := dConcat[:H]
		dHiddenT := dConcat[H:]

		// Attention backward: sources are h_0..h_{t-1}.
		m.attn.BackwardMat(ast, dContext, view(m.scr.dH, t), dH[t])
		dH[t].Add(dHiddenT)
	}

	dX := m.lstm.Backward(fp.states, dH)
	for t, tok := range tokens {
		m.emb.Backward(tok%m.cfg.Vocab, dX[t])
	}
	return loss / float64(nPred), nPred
}

// StepBatch finishes a minibatch of n accumulated sequences: it averages
// the gradient (scaling by 1/n), applies gradient clipping, and performs
// one optimizer step, clearing the gradients. n = 1 reproduces the classic
// per-sequence update exactly.
func (m *AttentionLSTM) StepBatch(n int) {
	if m.opt == nil {
		panic("ml: StepBatch on a Shadow model (shadows only accumulate gradients)")
	}
	if n > 1 {
		inv := 1 / float64(n)
		for _, p := range m.params {
			Vec(p.G).Scale(inv)
		}
	}
	if m.cfg.ClipNorm > 0 {
		grads := make([]Vec, len(m.params))
		for i, p := range m.params {
			grads[i] = Vec(p.G)
		}
		ClipNorm(grads, m.cfg.ClipNorm)
	}
	m.opt.Step(m.params)
}

// Shadow returns a model that shares this model's weights but owns private
// gradient buffers and scratch. Workers of a data-parallel minibatch each
// accumulate into their own shadow while the weights stay frozen, then the
// owner reduces the shadows (ReduceGrads) and steps. Shadows must only be
// used for AccumulateSequence and inference; they have no optimizer.
func (m *AttentionLSTM) Shadow() *AttentionLSTM {
	s := &AttentionLSTM{
		cfg:  m.cfg,
		emb:  m.emb.shadow(),
		lstm: m.lstm.shadow(),
		attn: &Attention{Scale: m.cfg.Scale},
		wOut: m.wOut,
		bOut: m.bOut,
	}
	s.pWOut = NewParam("out.w", m.wOut.Data)
	s.pBOut = NewParam("out.b", m.bOut)
	s.gWOut = &Mat{Rows: 2, Cols: 2 * m.cfg.Hidden, Data: s.pWOut.G}
	s.gBOut = Vec(s.pBOut.G)
	s.params = append(s.params, s.emb.Params()...)
	s.params = append(s.params, s.lstm.Params()...)
	s.params = append(s.params, s.pWOut, s.pBOut)
	return s
}

// ReduceGrads adds each shadow's accumulated gradients into m's gradient
// buffers — always in slice order, so the floating-point reduction order is
// fixed by the shard layout, never by scheduling — and clears the shadow
// gradients for reuse.
func (m *AttentionLSTM) ReduceGrads(shadows []*AttentionLSTM) {
	for _, sh := range shadows {
		for i, p := range m.params {
			sp := sh.params[i]
			for j, g := range sp.G {
				p.G[j] += g
			}
			sp.ZeroGrad()
		}
	}
}

// WeightSnapshot returns a deep copy of every parameter tensor, keyed by
// parameter name. Equivalence tests compare snapshots bitwise.
func (m *AttentionLSTM) WeightSnapshot() map[string][]float64 {
	out := make(map[string][]float64, len(m.params))
	for _, p := range m.params {
		out[p.Name] = append([]float64(nil), p.W...)
	}
	return out
}

// EvalSequence returns (correct, total) prediction counts against labels
// for the steps from predictFrom onward.
func (m *AttentionLSTM) EvalSequence(tokens []int, labels []bool, predictFrom int) (int, int) {
	pred := m.Predict(tokens, predictFrom)
	correct := 0
	for i, p := range pred {
		if p == labels[predictFrom+i] {
			correct++
		}
	}
	return correct, len(pred)
}

func logSafe(x float64) float64 {
	const tiny = 1e-12
	if x < tiny {
		x = tiny
	}
	return math.Log(x)
}
