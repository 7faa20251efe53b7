// Package ml is a from-scratch, dependency-free machine-learning toolkit
// sized for the paper's offline models: dense vector/matrix kernels, an
// embedding layer, an LSTM cell, scaled dot-product attention, softmax and
// hinge losses, and the Adam optimizer. It exists because the paper's
// offline pipeline (attention-based LSTM trained with Adam on Belady
// labels) is a system the reproduction must provide, and no external ML
// framework is available.
package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// Vec is a dense float64 vector.
type Vec []float64

// NewVec allocates a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone copies the vector.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Zero sets all elements to 0.
func (v Vec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Add accumulates w into v (v += w).
func (v Vec) Add(w Vec) {
	for i := range v {
		v[i] += w[i]
	}
}

// Scale multiplies v by s in place.
func (v Vec) Scale(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Dot returns the inner product of v and w.
func (v Vec) Dot(w Vec) float64 { return dot(v, w) }

// dot is the inner-product kernel behind Vec.Dot: four independent
// accumulators break the floating-point dependency chain so the adds
// pipeline instead of serializing, and the head slicing (b = b[:len(a)])
// lets the compiler drop the bounds check in the hot loop. MulVec and
// MulABt repeat this pattern inline — their rows are short enough that a
// non-inlined call per row would cost more than it saves. The accumulator
// split reassociates the sum, but the order still depends only on the
// operand length — never on scheduling — so results stay reproducible
// across runs and worker counts.
func dot(a, b Vec) float64 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return ((s0 + s1) + s2) + s3
}

// The axpy-shaped kernels below (MulVecT, AddOuter, MatMul's inner loop,
// AddOuterBatch) all update out[i] += a·x[i] with the head-sliced operand
// trick written out inline: the loop bodies are duplicated rather than
// factored into a helper because the rows here are short (tens of columns)
// and a non-inlined call per row costs more than the loop itself. Each
// element receives exactly one fused update, so the unrolling never changes
// an element's accumulation order — callers that promise bitwise
// determinism (AddOuterBatch vs sequential AddOuter) stay bit-identical.

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat allocates a zero rows×cols matrix.
func NewMat(rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (r, c).
func (m *Mat) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Mat) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r.
func (m *Mat) Row(r int) Vec { return Vec(m.Data[r*m.Cols : (r+1)*m.Cols]) }

// Zero clears the matrix.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone deep-copies the matrix.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec computes out = m · x. out must have length m.Rows and x length
// m.Cols.
func (m *Mat) MulVec(x, out Vec) {
	if len(x) != m.Cols || len(out) != m.Rows {
		panic(fmt.Sprintf("ml: MulVec shape mismatch: mat %dx%d, x %d, out %d", m.Rows, m.Cols, len(x), len(out)))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		xv := x[:len(row)]
		var s0, s1, s2, s3 float64
		c := 0
		for ; c+4 <= len(row); c += 4 {
			s0 += row[c] * xv[c]
			s1 += row[c+1] * xv[c+1]
			s2 += row[c+2] * xv[c+2]
			s3 += row[c+3] * xv[c+3]
		}
		for ; c < len(row); c++ {
			s0 += row[c] * xv[c]
		}
		out[r] = ((s0 + s1) + s2) + s3
	}
}

// MulVecT computes out = mᵀ · x (x length m.Rows, out length m.Cols),
// accumulating into out.
func (m *Mat) MulVecT(x, out Vec) {
	if len(x) != m.Rows || len(out) != m.Cols {
		panic(fmt.Sprintf("ml: MulVecT shape mismatch: mat %dx%d, x %d, out %d", m.Rows, m.Cols, len(x), len(out)))
	}
	for r := 0; r < m.Rows; r++ {
		xv := x[r]
		if xv == 0 {
			continue
		}
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		o := out[:len(row)]
		c := 0
		for ; c+4 <= len(row); c += 4 {
			o[c] += xv * row[c]
			o[c+1] += xv * row[c+1]
			o[c+2] += xv * row[c+2]
			o[c+3] += xv * row[c+3]
		}
		for ; c < len(row); c++ {
			o[c] += xv * row[c]
		}
	}
}

// AddOuter accumulates the outer product x·yᵀ into m (gradient update for a
// weight matrix between activations y and output-gradient x).
func (m *Mat) AddOuter(x, y Vec) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic(fmt.Sprintf("ml: AddOuter shape mismatch: mat %dx%d, x %d, y %d", m.Rows, m.Cols, len(x), len(y)))
	}
	for r := 0; r < m.Rows; r++ {
		xv := x[r]
		if xv == 0 {
			continue
		}
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		yv := y[:len(row)]
		c := 0
		for ; c+4 <= len(row); c += 4 {
			row[c] += xv * yv[c]
			row[c+1] += xv * yv[c+1]
			row[c+2] += xv * yv[c+2]
			row[c+3] += xv * yv[c+3]
		}
		for ; c < len(row); c++ {
			row[c] += xv * yv[c]
		}
	}
}

// matMulBlock is the k-panel width for MatMul. A 64-wide panel of b rows
// (64 × ≤128 cols × 8 bytes ≤ 64 KB) stays L1/L2-resident while every row
// of a streams against it.
const matMulBlock = 64

// MatMul computes out = a · b. The loop order is i-k-j with the k loop
// blocked into panels: the inner j loop runs over contiguous rows of b and
// out, so the kernel is sequential-access on every operand, and each panel
// of b is reused across all rows of a before being evicted. The
// floating-point accumulation order depends only on the operand shapes,
// never on scheduling, so results are reproducible across runs and worker
// counts.
func MatMul(a, b, out *Mat) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("ml: MatMul shape mismatch: a %dx%d, b %dx%d, out %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	out.Zero()
	for k0 := 0; k0 < a.Cols; k0 += matMulBlock {
		k1 := k0 + matMulBlock
		if k1 > a.Cols {
			k1 = a.Cols
		}
		for i := 0; i < a.Rows; i++ {
			arow := a.Data[i*a.Cols : (i+1)*a.Cols]
			orow := out.Data[i*out.Cols : (i+1)*out.Cols]
			for k := k0; k < k1; k++ {
				av := arow[k]
				if av == 0 {
					continue
				}
				brow := b.Data[k*b.Cols : (k+1)*b.Cols]
				o := orow[:len(brow)]
				j := 0
				for ; j+4 <= len(brow); j += 4 {
					o[j] += av * brow[j]
					o[j+1] += av * brow[j+1]
					o[j+2] += av * brow[j+2]
					o[j+3] += av * brow[j+3]
				}
				for ; j < len(brow); j++ {
					o[j] += av * brow[j]
				}
			}
		}
	}
}

// MulABt computes out = a · bᵀ without materializing the transpose: each
// output element is a dot product of two contiguous rows, which is the
// cache-friendly orientation for row-major storage. Used for the LSTM's
// batched input projection Z = X · Wxᵀ.
func MulABt(a, b, out *Mat) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("ml: MulABt shape mismatch: a %dx%d, b %dx%d, out %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			av := arow[:len(brow)]
			var s0, s1, s2, s3 float64
			c := 0
			for ; c+4 <= len(brow); c += 4 {
				s0 += av[c] * brow[c]
				s1 += av[c+1] * brow[c+1]
				s2 += av[c+2] * brow[c+2]
				s3 += av[c+3] * brow[c+3]
			}
			for ; c < len(brow); c++ {
				s0 += av[c] * brow[c]
			}
			orow[j] = ((s0 + s1) + s2) + s3
		}
	}
}

// AddOuterBatch accumulates a batch of outer products into m:
// m += Σ_t xs.Row(t) · ys.Row(t)ᵀ. It is the batched form of AddOuter with
// the row loop hoisted outside the batch loop, so each output row of m
// stays hot in cache while the whole batch streams past it. Each element's
// partial sums accumulate in ascending t order, so the result is
// deterministic for a given batch regardless of scheduling.
func AddOuterBatch(m, xs, ys *Mat) {
	if xs.Rows != ys.Rows || xs.Cols != m.Rows || ys.Cols != m.Cols {
		panic(fmt.Sprintf("ml: AddOuterBatch shape mismatch: mat %dx%d, xs %dx%d, ys %dx%d",
			m.Rows, m.Cols, xs.Rows, xs.Cols, ys.Rows, ys.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		mrow := m.Data[r*m.Cols : (r+1)*m.Cols]
		for t := 0; t < xs.Rows; t++ {
			xv := xs.Data[t*xs.Cols+r]
			if xv == 0 {
				continue
			}
			yrow := ys.Data[t*ys.Cols : (t+1)*ys.Cols]
			o := mrow[:len(yrow)]
			c := 0
			for ; c+4 <= len(yrow); c += 4 {
				o[c] += xv * yrow[c]
				o[c+1] += xv * yrow[c+1]
				o[c+2] += xv * yrow[c+2]
				o[c+3] += xv * yrow[c+3]
			}
			for ; c < len(yrow); c++ {
				o[c] += xv * yrow[c]
			}
		}
	}
}

// SumRowsInto accumulates every row of m into out (out += Σ_t m.Row(t)) in
// ascending row order.
func (m *Mat) SumRowsInto(out Vec) {
	if len(out) != m.Cols {
		panic(fmt.Sprintf("ml: SumRowsInto shape mismatch: mat %dx%d, out %d", m.Rows, m.Cols, len(out)))
	}
	for t := 0; t < m.Rows; t++ {
		row := m.Data[t*m.Cols : (t+1)*m.Cols]
		for c, v := range row {
			out[c] += v
		}
	}
}

// XavierInit fills m with Glorot-uniform random values.
func (m *Mat) XavierInit(r *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (r.Float64()*2 - 1) * limit
	}
}

// Activation helpers -------------------------------------------------------

// Sigmoid is the logistic function.
func Sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Tanh is the hyperbolic tangent.
func Tanh(x float64) float64 { return math.Tanh(x) }

// Softmax writes the softmax of xs into out (which may alias xs), using the
// max-subtraction trick for numerical stability.
func Softmax(xs, out Vec) {
	if len(xs) == 0 {
		return
	}
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	sum := 0.0
	for i, x := range xs {
		e := math.Exp(x - max)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}

// ClipNorm rescales grads in place so the global L2 norm is at most limit,
// and returns the pre-clip norm. Standard LSTM training hygiene.
func ClipNorm(grads []Vec, limit float64) float64 {
	total := 0.0
	for _, g := range grads {
		for _, v := range g {
			total += v * v
		}
	}
	norm := math.Sqrt(total)
	if norm > limit && norm > 0 {
		s := limit / norm
		for _, g := range grads {
			g.Scale(s)
		}
	}
	return norm
}
