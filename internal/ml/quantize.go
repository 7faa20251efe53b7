package ml

import "math"

// Post-training quantization (§5.4): the paper observes that compression
// techniques — quantization, pruning, integerization — can shrink deep
// models 30–50×, but even compressed they remain impractical for hardware
// prediction. This file implements symmetric per-tensor int8 quantization
// so that claim can be measured: QuantizeAttentionLSTM produces a model
// whose weights round-trip through int8, and QuantizedSizeBytes reports the
// compressed footprint.

// QuantReport summarizes one quantization pass.
type QuantReport struct {
	// Params is the number of quantized weights.
	Params int
	// OriginalBytes is the float64-in-memory footprint (8 bytes/weight;
	// a float32 deployment would be half).
	OriginalBytes int
	// QuantizedBytes is the int8 footprint plus one float32 scale per
	// tensor.
	QuantizedBytes int
	// MaxAbsError is the largest absolute weight perturbation introduced.
	MaxAbsError float64
}

// CompressionRatio is OriginalBytes / QuantizedBytes.
func (r QuantReport) CompressionRatio() float64 {
	if r.QuantizedBytes == 0 {
		return 0
	}
	return float64(r.OriginalBytes) / float64(r.QuantizedBytes)
}

// quantizeTensor rounds a weight slice through symmetric int8 in place and
// returns the maximum absolute error.
func quantizeTensor(w []float64) float64 {
	maxAbs := 0.0
	for _, v := range w {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	scale := maxAbs / 127
	maxErr := 0.0
	for i, v := range w {
		q := math.Round(v / scale)
		if q > 127 {
			q = 127
		}
		if q < -127 {
			q = -127
		}
		dq := q * scale
		if e := math.Abs(dq - v); e > maxErr {
			maxErr = e
		}
		w[i] = dq
	}
	return maxErr
}

// QuantizeAttentionLSTM quantizes every parameter tensor of the model to
// int8 in place (weights are replaced by their dequantized values, so the
// model keeps working with degraded precision) and reports the size
// arithmetic.
func QuantizeAttentionLSTM(m *AttentionLSTM) QuantReport {
	rep := QuantReport{}
	for _, p := range m.params {
		rep.Params += len(p.W)
		rep.OriginalBytes += 8 * len(p.W)
		rep.QuantizedBytes += len(p.W) + 4 // int8 weights + float32 scale
		if e := quantizeTensor(p.W); e > rep.MaxAbsError {
			rep.MaxAbsError = e
		}
	}
	return rep
}
