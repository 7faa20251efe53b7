package ml

import "math/rand"

// LSTM is a single-layer Long Short-Term Memory network (Hochreiter &
// Schmidhuber, 1997) with the standard gate formulation:
//
//	i = σ(Wxi·x + Whi·h' + bi)    f = σ(Wxf·x + Whf·h' + bf)
//	g = tanh(Wxg·x + Whg·h' + bg) o = σ(Wxo·x + Who·h' + bo)
//	c = f∘c' + i∘g                h = o∘tanh(c)
//
// The four gates are packed in one matrix pair (Wx: 4H×E, Wh: 4H×H) in
// i, f, g, o order. The forget-gate bias is initialized to 1, the usual
// trick for learning long dependences.
type LSTM struct {
	// In is the input width (embedding dim), Hidden the state width.
	In, Hidden int

	wx, wh *Mat
	b      Vec

	pWx, pWh, pB *Param
	gWx, gWh     *Mat
	gB           Vec

	scr lstmScratch
}

// lstmScratch holds the reused per-sequence buffers of Forward and Backward.
// Buffers grow to the longest sequence seen and are then reused, so
// steady-state training allocates nothing per step. Scratch is never shared:
// each model (and each training shadow) owns its own.
type lstmScratch struct {
	cap int // allocated timestep capacity

	x  *Mat // T × In: copied inputs
	z  *Mat // T × 4H: pre-activations
	h  *Mat // (T+1) × H: hidden states; row 0 is the zero initial state
	c  *Mat // (T+1) × H: cell states; row 0 is the zero initial state
	g  *Mat // T × 4H: gate activations i,f,g,o packed per row
	dz *Mat // T × 4H: backward pre-activation gradients
	dx *Mat // T × In: backward input gradients

	tmp    Vec // 4H: recurrent projection of one step
	dhNext Vec // H
	dcNext Vec // H

	states    []LSTMState
	statePtrs []*LSTMState
	dxRows    []Vec
}

// grow sizes the scratch for a T-step sequence.
func (s *lstmScratch) grow(T, in, hidden int) {
	if T <= s.cap {
		// Row-0 initial states must be zero at the start of every forward;
		// they are never written afterwards, so clearing once per growth
		// would suffice — but the rows may hold stale data after a shrink,
		// so clear defensively (2H floats, negligible).
		s.h.Row(0).Zero()
		s.c.Row(0).Zero()
		return
	}
	s.cap = T
	s.x = NewMat(T, in)
	s.z = NewMat(T, 4*hidden)
	s.h = NewMat(T+1, hidden)
	s.c = NewMat(T+1, hidden)
	s.g = NewMat(T, 4*hidden)
	s.dz = NewMat(T, 4*hidden)
	s.dx = NewMat(T, in)
	s.tmp = NewVec(4 * hidden)
	s.dhNext = NewVec(hidden)
	s.dcNext = NewVec(hidden)
	s.states = make([]LSTMState, T)
	s.statePtrs = make([]*LSTMState, T)
	s.dxRows = make([]Vec, T)
}

// view returns a Rows×cols matrix over the first rows of m.
func view(m *Mat, rows int) *Mat {
	return &Mat{Rows: rows, Cols: m.Cols, Data: m.Data[:rows*m.Cols]}
}

// NewLSTM builds an LSTM layer with Xavier-initialized weights.
func NewLSTM(in, hidden int, r *rand.Rand) *LSTM {
	l := &LSTM{
		In: in, Hidden: hidden,
		wx: NewMat(4*hidden, in),
		wh: NewMat(4*hidden, hidden),
		b:  NewVec(4 * hidden),
	}
	l.wx.XavierInit(r)
	l.wh.XavierInit(r)
	for i := hidden; i < 2*hidden; i++ {
		l.b[i] = 1 // forget gate bias
	}
	l.bindParams()
	return l
}

// bindParams (re)creates the layer's Params and gradient views over the
// current weight storage.
func (l *LSTM) bindParams() {
	l.pWx = NewParam("lstm.wx", l.wx.Data)
	l.pWh = NewParam("lstm.wh", l.wh.Data)
	l.pB = NewParam("lstm.b", l.b)
	l.gWx = &Mat{Rows: 4 * l.Hidden, Cols: l.In, Data: l.pWx.G}
	l.gWh = &Mat{Rows: 4 * l.Hidden, Cols: l.Hidden, Data: l.pWh.G}
	l.gB = Vec(l.pB.G)
}

// shadow returns a layer that shares l's weight storage but owns private
// gradient buffers and scratch, so concurrent workers can accumulate
// gradients against frozen weights without data races.
func (l *LSTM) shadow() *LSTM {
	s := &LSTM{In: l.In, Hidden: l.Hidden, wx: l.wx, wh: l.wh, b: l.b}
	s.bindParams()
	return s
}

// Params exposes the trainable tensors.
func (l *LSTM) Params() []*Param { return []*Param{l.pWx, l.pWh, l.pB} }

// NumWeights returns the parameter count.
func (l *LSTM) NumWeights() int {
	return len(l.wx.Data) + len(l.wh.Data) + len(l.b)
}

// LSTMState holds the per-timestep activations the backward pass needs.
// The vectors are views into scratch matrices owned by the layer: they are
// valid until the next Forward call.
type LSTMState struct {
	X          Vec // input
	I, F, G, O Vec // gate activations
	C, H       Vec // cell and hidden state after the step
	CPrev      Vec // cell state before the step
	HPrev      Vec // hidden state before the step
}

// gates computes the gate nonlinearities and the new cell/hidden state from
// the pre-activations z.
func (l *LSTM) gates(st *LSTMState, z Vec, cPrev Vec) {
	H := l.Hidden
	for j := 0; j < H; j++ {
		st.I[j] = Sigmoid(z[j])
		st.F[j] = Sigmoid(z[H+j])
		st.G[j] = Tanh(z[2*H+j])
		st.O[j] = Sigmoid(z[3*H+j])
		st.C[j] = st.F[j]*cPrev[j] + st.I[j]*st.G[j]
		st.H[j] = st.O[j] * Tanh(st.C[j])
	}
}

// Forward runs the whole input sequence from zero state and returns the
// per-step states (states[t].H is the hidden state after step t). It
// computes Z = X · Wxᵀ for the whole sequence with one MulABt call, then
// runs the (inherently sequential) recurrence over scratch rows. Hidden
// and cell histories live in (T+1)-row matrices whose row 0 is the zero
// initial state, so the "previous state" sequence h'_0..h'_{T−1} is the
// contiguous prefix the batched backward kernels consume directly.
func (l *LSTM) Forward(inputs []Vec) []*LSTMState {
	T := len(inputs)
	H := l.Hidden
	s := &l.scr
	s.grow(T, l.In, H)
	for t, x := range inputs {
		copy(s.x.Row(t), x)
	}
	xv := view(s.x, T)
	zv := view(s.z, T)
	MulABt(xv, l.wx, zv)

	for t := 0; t < T; t++ {
		st := &s.states[t]
		st.X = s.x.Row(t)
		st.HPrev = s.h.Row(t)
		st.CPrev = s.c.Row(t)
		st.H = s.h.Row(t + 1)
		st.C = s.c.Row(t + 1)
		grow := s.g.Row(t)
		st.I = grow[:H]
		st.F = grow[H : 2*H]
		st.G = grow[2*H : 3*H]
		st.O = grow[3*H:]

		z := s.z.Row(t)
		l.wh.MulVec(st.HPrev, s.tmp)
		for i := range z {
			z[i] += s.tmp[i] + l.b[i]
		}
		l.gates(st, z, st.CPrev)
		s.statePtrs[t] = st
	}
	return s.statePtrs[:T]
}

// stepGrad computes one timestep's pre-activation gradient dz from the
// incoming hidden gradient dh, updating dcNext in place.
func (l *LSTM) stepGrad(st *LSTMState, dh, dcNext, dz Vec) {
	H := l.Hidden
	for j := 0; j < H; j++ {
		tc := Tanh(st.C[j])
		do := dh[j] * tc
		dc := dh[j]*st.O[j]*(1-tc*tc) + dcNext[j]

		di := dc * st.G[j]
		df := dc * st.CPrev[j]
		dg := dc * st.I[j]

		dz[j] = di * st.I[j] * (1 - st.I[j])
		dz[H+j] = df * st.F[j] * (1 - st.F[j])
		dz[2*H+j] = dg * (1 - st.G[j]*st.G[j])
		dz[3*H+j] = do * st.O[j] * (1 - st.O[j])

		dcNext[j] = dc * st.F[j]
	}
}

// Backward runs backpropagation through time. dH[t] is ∂L/∂h_t accumulated
// from the layers above (attention/output); the returned slice holds
// ∂L/∂x_t for the embedding layer. Gradients accumulate into the layer's
// Params. It records every timestep's dz into a scratch matrix during the
// reverse sweep, then accumulates the three weight gradients with batched
// kernels: gWx += DZᵀ·X and gWh += DZᵀ·H' via AddOuterBatch,
// gB += Σ dz_t via SumRowsInto, and the input gradients DX = DZ·Wx via one
// cache-blocked MatMul. It must be called after a Forward on the same
// layer (it reuses the forward scratch).
func (l *LSTM) Backward(states []*LSTMState, dH []Vec) []Vec {
	T := len(states)
	H := l.Hidden
	s := &l.scr
	dhNext := s.dhNext
	dcNext := s.dcNext
	dhNext.Zero()
	dcNext.Zero()
	dh := s.tmp[:H] // reuse the forward projection scratch as the dh buffer

	for t := T - 1; t >= 0; t-- {
		st := states[t]
		copy(dh, dH[t])
		dh.Add(dhNext)

		dz := s.dz.Row(t)
		l.stepGrad(st, dh, dcNext, dz)

		dhNext.Zero()
		l.wh.MulVecT(dz, dhNext)
	}

	dzv := view(s.dz, T)
	xv := view(s.x, T)
	hPrev := view(s.h, T) // rows 0..T−1 are exactly h'_0..h'_{T−1}
	AddOuterBatch(l.gWx, dzv, xv)
	AddOuterBatch(l.gWh, dzv, hPrev)
	dzv.SumRowsInto(l.gB)

	dxv := view(s.dx, T)
	MatMul(dzv, l.wx, dxv)
	for t := 0; t < T; t++ {
		s.dxRows[t] = s.dx.Row(t)
	}
	return s.dxRows[:T]
}
