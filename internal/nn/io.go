package nn

import (
	"encoding/json"
	"fmt"
	"io"
)

// serialized mirrors MLP for JSON round-trips.
type serialized struct {
	Layers []serializedLayer `json:"layers"`
}

type serializedLayer struct {
	In   int       `json:"in"`
	Out  int       `json:"out"`
	W    []float64 `json:"w"`
	B    []float64 `json:"b"`
	Mask []float64 `json:"mask,omitempty"`
}

// Save writes the network as JSON.
func (m *MLP) Save(w io.Writer) error {
	s := serialized{}
	for _, l := range m.Layers {
		s.Layers = append(s.Layers, serializedLayer{In: l.In, Out: l.Out, W: l.W, B: l.B, Mask: l.Mask})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(s)
}

// Load reads a network saved with Save and returns CheckFinite's
// verdict on it: the one validator of the layer format.
func Load(r io.Reader) (*MLP, error) {
	var s serialized
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("nn: decoding model: %w", err)
	}
	m := &MLP{}
	for _, sl := range s.Layers {
		m.Layers = append(m.Layers, &Dense{
			In:    sl.In,
			Out:   sl.Out,
			W:     sl.W,
			B:     sl.B,
			Mask:  sl.Mask,
			GradW: make([]float64, len(sl.W)),
			GradB: make([]float64, len(sl.B)),
		})
	}
	if err := m.CheckFinite(); err != nil {
		return nil, err
	}
	return m, nil
}
