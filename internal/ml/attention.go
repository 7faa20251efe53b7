package ml

// Scaled dot-product attention (§4.2, Equation 3): for a target hidden
// state h_t and source hidden states h_1..h_s, the attention weights are
//
//	a_t(s) = softmax_s( f · (h_t · h_s) )
//
// and the context vector is c_t = Σ_s a_t(s)·h_s. The paper's novelty in
// the scaling factor f is interpretive: raising f forces sparsity in the
// weight distribution, revealing which few source accesses decide the
// caching outcome.

// AttentionState records one attention application for the backward pass.
type AttentionState struct {
	// Target is h_t.
	Target Vec
	// SourceMat holds the h_s vectors attended over: row s is h_s. The
	// rows are contiguous views into the LSTM's hidden-state scratch.
	SourceMat *Mat
	// Weights is the softmax output a_t(·).
	Weights Vec
	// Context is the weighted sum of sources.
	Context Vec
}

// Attention is the (parameter-free) scaled dot-product attention layer.
type Attention struct {
	// Scale is the scaling factor f applied to scores before softmax.
	Scale float64

	// scores/dW are reused per-call scratch. Each model (and each
	// training shadow) owns its own Attention, so scratch is never shared
	// across goroutines.
	scores Vec
	dW     Vec
}

// scratchVec returns a length-n buffer from a reusable backing slice.
func scratchVec(buf *Vec, n int) Vec {
	if cap(*buf) < n {
		*buf = make(Vec, n)
	}
	return (*buf)[:n]
}

// ForwardMat computes attention of target over sources, the rows of a
// matrix (contiguous LSTM hidden states). Scores and the context reduce to
// the MulVec/MulVecT kernels, and the caller provides the weights and
// context storage plus the state to fill (typically arena storage reused
// across sequences), so the steady-state path allocates nothing.
func (a *Attention) ForwardMat(target Vec, sources *Mat, weights, ctx Vec, st *AttentionState) {
	scores := scratchVec(&a.scores, sources.Rows)
	sources.MulVec(target, scores)
	if a.Scale != 1 {
		scores.Scale(a.Scale)
	}
	Softmax(scores, weights)
	ctx.Zero()
	sources.MulVecT(weights, ctx)
	*st = AttentionState{Target: target, SourceMat: sources, Weights: weights, Context: ctx}
}

// BackwardMat propagates ∂L/∂context through the attention. dSources is
// the matrix whose row s accumulates ∂L/∂h_s (a prefix view of the
// caller's dH scratch); dTarget accumulates ∂L/∂h_t in place. The three
// source-side updates are expressed as the shared dense kernels:
// dW = S·dContext (MulVec), dSources += a ⊗ dContext and
// dSources += dScore ⊗ target (AddOuter), and dTarget += Sᵀ·dScore
// (MulVecT).
func (a *Attention) BackwardMat(st *AttentionState, dContext Vec, dSources *Mat, dTarget Vec) {
	src := st.SourceMat
	dW := scratchVec(&a.dW, src.Rows)
	src.MulVec(dContext, dW)
	dSources.AddOuter(st.Weights, dContext)
	// Softmax backward: dScore[s] = a_s·(dW[s] − Σ_k a_k·dW[k])·scale,
	// computed in place over dW.
	dot := st.Weights.Dot(dW)
	for s := range dW {
		dW[s] = st.Weights[s] * (dW[s] - dot) * a.Scale
	}
	src.MulVecT(dW, dTarget)
	dSources.AddOuter(dW, st.Target)
}
