package estimate

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Save serializes the estimator with encoding/gob. Every field is exported
// plain data, and head weights persist in their quantized int16 form
// (ml.IntLinear), so a save/load round trip reproduces the serving model
// exactly — bit-identical predictions, not merely close ones.
func (e *Estimator) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(e)
}

// Load reconstructs an estimator saved with Save and validates it (schema
// version, vector alignment, head completeness).
func Load(r io.Reader) (*Estimator, error) {
	e := new(Estimator)
	if err := gob.NewDecoder(r).Decode(e); err != nil {
		return nil, fmt.Errorf("estimate: decoding model: %w", err)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}
