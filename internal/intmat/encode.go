package intmat

import "fmt"

// Rec is the portable, JSON-serializable form of a Mat: row-major
// entries with explicit dimensions. It exists so higher layers (the
// engine's plan records, the disk store) can persist matrices without
// reaching into Mat's private representation; FromRec validates on
// the way back in, so a corrupted record surfaces as an error instead
// of a malformed matrix.
type Rec struct {
	R int     `json:"r"`
	C int     `json:"c"`
	V []int64 `json:"v"`
}

// Rec returns the serialized form of m.
func (m *Mat) Rec() Rec {
	r := Rec{R: m.rows, C: m.cols, V: make([]int64, 0, m.rows*m.cols)}
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			r.V = append(r.V, m.At(i, j))
		}
	}
	return r
}

// FromRec reconstructs a Mat from its serialized form, rejecting
// dimension/length mismatches.
func FromRec(r Rec) (*Mat, error) {
	if r.R <= 0 || r.C <= 0 {
		return nil, fmt.Errorf("intmat: invalid record dimensions %d×%d", r.R, r.C)
	}
	// Divide rather than multiply: R·C may wrap past MaxInt.
	if len(r.V)%r.R != 0 || len(r.V)/r.R != r.C {
		return nil, fmt.Errorf("intmat: record %d×%d has %d entries, want %d", r.R, r.C, len(r.V), r.R*r.C)
	}
	return New(r.R, r.C, r.V...), nil
}
