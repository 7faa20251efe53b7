package estimate

import (
	"encoding/gob"
	"fmt"
	"io"

	"glider/internal/ml"
)

// estimatorSnapshot is the on-disk representation. Head weights persist in
// their quantized int16 form (ml.IntLinear), so a save/load round trip
// reproduces the serving model exactly — bit-identical predictions, not
// merely close ones.
type estimatorSnapshot struct {
	Schema                int
	Names                 []string
	Mean, Scale, Min, Max []float64
	Slack, AbsSlack       float64
	AnchorFeats           [][]float64
	CalibFeats            [][]float64
	Inflate               float64
	MinMissBound          float64
	MinIPCBound           float64
	Heads                 map[string]headSnapshot
}

type headSnapshot struct {
	Miss, IPC             ml.IntLinear
	QMiss, QIPC           float64
	AnchorMiss, AnchorIPC []float64
	CalibMiss, CalibIPC   []float64
	MeanMiss, MeanIPC     float64
	NoiseMiss, NoiseIPC   []float64
	Samples               int
}

// Save serializes the estimator with encoding/gob.
func (e *Estimator) Save(w io.Writer) error {
	snap := estimatorSnapshot{
		Schema:       e.Schema,
		Names:        append([]string(nil), e.Names...),
		Mean:         append([]float64(nil), e.Mean...),
		Scale:        append([]float64(nil), e.Scale...),
		Min:          append([]float64(nil), e.Min...),
		Max:          append([]float64(nil), e.Max...),
		Slack:        e.Slack,
		AbsSlack:     e.AbsSlack,
		AnchorFeats:  e.AnchorFeats,
		CalibFeats:   e.CalibFeats,
		Inflate:      e.Inflate,
		MinMissBound: e.MinMissBound,
		MinIPCBound:  e.MinIPCBound,
		Heads:        make(map[string]headSnapshot, len(e.Heads)),
	}
	for p, h := range e.Heads {
		snap.Heads[p] = headSnapshot{
			Miss: *h.Miss, IPC: *h.IPC, QMiss: h.QMiss, QIPC: h.QIPC,
			AnchorMiss: h.AnchorMiss, AnchorIPC: h.AnchorIPC,
			CalibMiss: h.CalibMiss, CalibIPC: h.CalibIPC,
			MeanMiss: h.MeanMiss, MeanIPC: h.MeanIPC,
			NoiseMiss: h.NoiseMiss, NoiseIPC: h.NoiseIPC, Samples: h.Samples,
		}
	}
	return gob.NewEncoder(w).Encode(snap)
}

// Load reconstructs an estimator saved with Save and validates it (schema
// version, vector alignment, head completeness).
func Load(r io.Reader) (*Estimator, error) {
	var snap estimatorSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("estimate: decoding model: %w", err)
	}
	e := &Estimator{
		Schema:       snap.Schema,
		Names:        snap.Names,
		Mean:         snap.Mean,
		Scale:        snap.Scale,
		Min:          snap.Min,
		Max:          snap.Max,
		Slack:        snap.Slack,
		AbsSlack:     snap.AbsSlack,
		AnchorFeats:  snap.AnchorFeats,
		CalibFeats:   snap.CalibFeats,
		Inflate:      snap.Inflate,
		MinMissBound: snap.MinMissBound,
		MinIPCBound:  snap.MinIPCBound,
		Heads:        make(map[string]*Head, len(snap.Heads)),
	}
	for p, h := range snap.Heads {
		h := h
		e.Heads[p] = &Head{
			Miss: &h.Miss, IPC: &h.IPC, QMiss: h.QMiss, QIPC: h.QIPC,
			AnchorMiss: h.AnchorMiss, AnchorIPC: h.AnchorIPC,
			CalibMiss: h.CalibMiss, CalibIPC: h.CalibIPC,
			MeanMiss: h.MeanMiss, MeanIPC: h.MeanIPC,
			NoiseMiss: h.NoiseMiss, NoiseIPC: h.NoiseIPC, Samples: h.Samples,
		}
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}
