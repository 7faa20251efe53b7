package ml

// The scalar reference kernels: the model's original one-timestep-at-a-time
// implementation, with fresh buffers per step and attention over a slice of
// source vectors. Production runs only the batched kernels;
// TestKernelPathEquivalence trains a model on these kernels beside one on
// the production path and requires the two to agree.

// scalarAttnState records one reference attention application.
type scalarAttnState struct {
	target, weights, context Vec
	sources                  []Vec
}

// forwardScalar computes attention of target over sources. sources must be
// non-empty.
func (a *Attention) forwardScalar(target Vec, sources []Vec) *scalarAttnState {
	scores := NewVec(len(sources))
	for s, hs := range sources {
		scores[s] = a.Scale * target.Dot(hs)
	}
	weights := NewVec(len(sources))
	Softmax(scores, weights)
	ctx := NewVec(len(target))
	for s, hs := range sources {
		w := weights[s]
		for j := range ctx {
			ctx[j] += w * hs[j]
		}
	}
	return &scalarAttnState{target: target, sources: sources, weights: weights, context: ctx}
}

// backwardScalar propagates ∂L/∂context through the attention. It returns
// ∂L/∂target and accumulates ∂L/∂h_s into dSources (indexed like
// st.sources).
func (a *Attention) backwardScalar(st *scalarAttnState, dContext Vec, dSources []Vec) Vec {
	n := len(st.sources)
	// dWeights[s] = dContext · h_s ; also dSources gets a_s * dContext.
	dWeights := NewVec(n)
	for s, hs := range st.sources {
		dWeights[s] = dContext.Dot(hs)
		w := st.weights[s]
		ds := dSources[s]
		for j := range ds {
			ds[j] += w * dContext[j]
		}
	}
	// Softmax backward: dScore[s] = a_s * (dW[s] − Σ_k a_k dW[k]).
	dot := 0.0
	for s := 0; s < n; s++ {
		dot += st.weights[s] * dWeights[s]
	}
	dTarget := NewVec(len(st.target))
	for s, hs := range st.sources {
		dScore := st.weights[s] * (dWeights[s] - dot) * a.Scale
		if dScore == 0 {
			continue
		}
		// score = target·h_s ⇒ d target += dScore·h_s, d h_s += dScore·target.
		ds := dSources[s]
		for j := range dTarget {
			dTarget[j] += dScore * hs[j]
			ds[j] += dScore * st.target[j]
		}
	}
	return dTarget
}

// stepScalar runs one timestep from (hPrev, cPrev) on input x and returns
// the recorded state.
func (l *LSTM) stepScalar(x, hPrev, cPrev Vec) *LSTMState {
	H := l.Hidden
	z := NewVec(4 * H)
	l.wx.MulVec(x, z)
	tmp := NewVec(4 * H)
	l.wh.MulVec(hPrev, tmp)
	for i := range z {
		z[i] += tmp[i] + l.b[i]
	}
	st := &LSTMState{
		X: x, CPrev: cPrev, HPrev: hPrev,
		I: NewVec(H), F: NewVec(H), G: NewVec(H), O: NewVec(H),
		C: NewVec(H), H: NewVec(H),
	}
	l.gates(st, z, cPrev)
	return st
}

// backwardScalar is BPTT with per-timestep outer-product accumulation in
// reverse time order.
func (l *LSTM) backwardScalar(states []*LSTMState, dH []Vec) []Vec {
	H := l.Hidden
	dX := make([]Vec, len(states))
	dhNext := NewVec(H)
	dcNext := NewVec(H)
	dz := NewVec(4 * H)

	for t := len(states) - 1; t >= 0; t-- {
		st := states[t]
		dh := dH[t].Clone()
		dh.Add(dhNext)

		l.stepGrad(st, dh, dcNext, dz)

		// Accumulate weight gradients: gWx += dz·xᵀ, gWh += dz·h'ᵀ, gB += dz.
		l.gWx.AddOuter(dz, st.X)
		l.gWh.AddOuter(dz, st.HPrev)
		l.gB.Add(dz)

		// Propagate to input and previous hidden state.
		dx := NewVec(l.In)
		l.wx.MulVecT(dz, dx)
		dX[t] = dx

		dhNext.Zero()
		l.wh.MulVecT(dz, dhNext)
	}
	return dX
}

// scalarPass is the output of AttentionLSTM.forwardScalar.
type scalarPass struct {
	states []*LSTMState
	attn   []*scalarAttnState // indexed by t−predictFrom
	probs  []Vec
}

// forwardScalar is forward on the reference kernels.
func (m *AttentionLSTM) forwardScalar(tokens []int, predictFrom int) *scalarPass {
	states := make([]*LSTMState, len(tokens))
	h := NewVec(m.cfg.Hidden)
	c := NewVec(m.cfg.Hidden)
	for t, tok := range tokens {
		states[t] = m.lstm.stepScalar(m.emb.Forward(tok%m.cfg.Vocab), h, c)
		h, c = states[t].H, states[t].C
	}
	fp := &scalarPass{states: states}
	concat := NewVec(2 * m.cfg.Hidden)
	for t := predictFrom; t < len(tokens); t++ {
		sources := make([]Vec, t)
		for s := 0; s < t; s++ {
			sources[s] = states[s].H
		}
		ast := m.attn.forwardScalar(states[t].H, sources)
		copy(concat[:m.cfg.Hidden], ast.context)
		copy(concat[m.cfg.Hidden:], states[t].H)
		logits := NewVec(2)
		m.wOut.MulVec(concat, logits)
		logits.Add(m.bOut)
		probs := NewVec(2)
		Softmax(logits, probs)
		fp.attn = append(fp.attn, ast)
		fp.probs = append(fp.probs, probs)
	}
	return fp
}

// trainSequenceScalar is TrainSequence on the reference kernels.
func (m *AttentionLSTM) trainSequenceScalar(tokens []int, labels []bool, predictFrom int) float64 {
	fp := m.forwardScalar(tokens, predictFrom)
	H := m.cfg.Hidden
	nPred := len(fp.probs)
	if nPred == 0 {
		return 0
	}
	dH := make([]Vec, len(tokens))
	for t := range dH {
		dH[t] = NewVec(H)
	}
	loss := 0.0
	concat := NewVec(2 * H)
	for i := nPred - 1; i >= 0; i-- {
		t := predictFrom + i
		y := 0
		if labels[t] {
			y = 1
		}
		p := fp.probs[i]
		loss += -logSafe(p[y])

		// Softmax cross-entropy gradient.
		dLogits := NewVec(2)
		dLogits[0], dLogits[1] = p[0], p[1]
		dLogits[y] -= 1

		ast := fp.attn[i]
		copy(concat[:H], ast.context)
		copy(concat[H:], fp.states[t].H)
		m.gWOut.AddOuter(dLogits, concat)
		m.gBOut.Add(dLogits)

		dConcat := NewVec(2 * H)
		m.wOut.MulVecT(dLogits, dConcat)

		// Attention backward: sources are h_0..h_{t-1}.
		dTarget := m.attn.backwardScalar(ast, dConcat[:H], dH[:t])
		dH[t].Add(dTarget)
		dH[t].Add(dConcat[H:])
	}
	dX := m.lstm.backwardScalar(fp.states, dH)
	for t, tok := range tokens {
		m.emb.Backward(tok%m.cfg.Vocab, dX[t])
	}
	m.StepBatch(1)
	return loss / float64(nPred)
}
