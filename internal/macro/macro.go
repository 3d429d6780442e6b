// Package macro detects macro-communications — broadcasts, scatters,
// gathers, reductions — and message-vectorization opportunities in a
// mapped affine loop nest (paper Section 4), and computes the
// unimodular rotation that makes a partial broadcast parallel to the
// axes of the virtual processor space (Section 4.1).
//
// All conditions are kernel conditions. For an access a(F_a·I + c_a)
// in statement S with schedule θ, allocation matrices M_S, M_a:
//
//	broadcast: v ∈ ker θ ∩ ker F_a, M_S·v ≠ 0
//	  (same datum, same time step, distinct destination processors);
//	scatter:   v ∈ ker θ ∩ ker(M_a·F_a), M_S·v ≠ 0, F_a·v ≠ 0
//	  (same source processor, distinct data, distinct destinations);
//	gather:    the same kernels with the data flowing toward the
//	  array owner (write access);
//	reduction: v ∈ ker θ ∩ ker F_x, M_S·v ≠ 0 on a ⊕-accumulation
//	  (one result element combined from distinct processors);
//	message vectorization: ker M_S ⊆ ker(M_a·F_a)
//	  (the accessed datum does not depend on the time step).
package macro

import (
	"fmt"

	"repro/internal/accessgraph"
	"repro/internal/alignment"
	"repro/internal/intmat"
)

// Kind enumerates macro-communication kinds.
type Kind int

// Macro-communication kinds.
const (
	Broadcast Kind = iota
	Scatter
	Gather
	Reduction
)

func (k Kind) String() string {
	switch k {
	case Broadcast:
		return "broadcast"
	case Scatter:
		return "scatter"
	case Gather:
		return "gather"
	case Reduction:
		return "reduction"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Macro describes one detected macro-communication.
type Macro struct {
	Kind Kind
	Comm accessgraph.Comm
	// Kernel is the basis (columns, in iteration space) of the
	// directions v that generate the macro-communication.
	Kernel *intmat.Mat
	// Directions is D = M_S·Kernel (m×p in processor space) with zero
	// columns removed; its rank is the dimension of the macro-comm.
	Directions *intmat.Mat
	// P is rank(Directions): 0 = hidden by the mapping, m = total,
	// otherwise partial.
	P int
	M int
}

// Total reports whether the macro-communication spans the whole
// processor space.
func (mc *Macro) Total() bool { return mc.P == mc.M }

// Partial reports 1 ≤ p < m.
func (mc *Macro) Partial() bool { return mc.P >= 1 && mc.P < mc.M }

// Hidden reports that the mapping collapsed the macro-communication
// to a point-to-point transfer (p = 0).
func (mc *Macro) Hidden() bool { return mc.P == 0 }

// AxisParallel reports whether the direction space of the
// macro-communication is a coordinate subspace of the processor
// space: the efficient case for partial macro-communications
// (Platonoff's constraint, adopted in Section 4.1). A matrix spans a
// coordinate subspace iff its number of non-zero rows equals its rank.
func (mc *Macro) AxisParallel() bool {
	if mc.P == 0 {
		return true // nothing to route
	}
	return AxisParallel(mc.Directions)
}

// AxisParallel reports whether the column space of D is spanned by
// coordinate vectors.
func AxisParallel(d *intmat.Mat) bool {
	nz := 0
	for i := 0; i < d.Rows(); i++ {
		for j := 0; j < d.Cols(); j++ {
			if d.At(i, j) != 0 {
				nz++
				break
			}
		}
	}
	return nz == d.Rank()
}

// AxisAlignRotation returns a unimodular V such that V·D spans a
// coordinate subspace (Section 4.1: the left Hermite decomposition
// D = Q·[H;0] gives V = Q⁻¹), computed through k (nil: plainly).
func AxisAlignRotation(k *intmat.Kernels, d *intmat.Mat) *intmat.Mat {
	q, _ := k.HermiteLeft(d)
	return k.InverseUnimodular(q)
}

// String renders a macro-communication.
func (mc *Macro) String() string {
	shape := "partial"
	if mc.Total() {
		shape = "total"
	} else if mc.Hidden() {
		shape = "hidden"
	}
	return fmt.Sprintf("%s %s (p=%d/%d) in %s on %s",
		shape, mc.Kind, mc.P, mc.M, mc.Comm.Stmt.Name, mc.Comm.Access.Array)
}

// Detect classifies one residual communication of an alignment
// result, returning every macro-communication pattern it matches
// (possibly none). A read access is tested for broadcast and scatter;
// a write access for gather; a reduction access for reduction. The
// kernel intersections are computed through k (nil: plainly).
func Detect(k *intmat.Kernels, res *alignment.Result, c accessgraph.Comm) []*Macro {
	var out []*Macro
	theta := c.Stmt.ScheduleOrEmpty()
	ms := res.Alloc[c.Stmt.Name]
	mx := res.Alloc[c.Access.Array]
	if ms == nil || mx == nil {
		return nil
	}
	fa := c.Access.F
	mxfa := intmat.Mul(mx, fa)

	mk := func(kind Kind, kernel *intmat.Mat) *Macro {
		if kernel.Cols() == 0 {
			return nil
		}
		dirs := intmat.Mul(ms, kernel)
		return &Macro{
			Kind:       kind,
			Comm:       c,
			Kernel:     kernel,
			Directions: dropZeroCols(dirs),
			P:          dirs.Rank(),
			M:          res.M,
		}
	}

	if c.Access.Reduction {
		// one array element accumulated from several processors
		if m := mk(Reduction, k.KernelIntersection(theta, fa)); m != nil {
			out = append(out, m)
		}
		return out
	}
	if !c.Access.Write {
		// broadcast: same datum to several destinations
		if m := mk(Broadcast, k.KernelIntersection(theta, fa)); m != nil && m.P >= 1 {
			out = append(out, m)
		}
		// scatter: same source processor, different data
		ker := k.KernelIntersection(theta, mxfa)
		if m := mk(Scatter, ker); m != nil && m.P >= 1 {
			// distinct data required: F_a must not kill the kernel
			if intmat.Mul(fa, ker).Rank() >= 1 {
				out = append(out, m)
			}
		}
		return out
	}
	// write access: gather — several sources into one array owner
	ker := k.KernelIntersection(theta, mxfa)
	if m := mk(Gather, ker); m != nil && m.P >= 1 {
		if intmat.Mul(fa, ker).Rank() >= 1 {
			out = append(out, m)
		}
	}
	return out
}

// DetectAll classifies every residual communication of res.
func DetectAll(res *alignment.Result) []*Macro {
	var out []*Macro
	for _, c := range res.ResidualComms() {
		out = append(out, Detect(nil, res, c)...)
	}
	return out
}

// Vectorizable reports whether the communication supports message
// vectorization (Section 4.5): the data accessed does not depend on
// the time step, i.e. ker M_S ⊆ ker(M_a·F_a), which holds iff
// rank([M_S; M_a·F_a]) = rank(M_S).
func Vectorizable(res *alignment.Result, c accessgraph.Comm) bool {
	ms := res.Alloc[c.Stmt.Name]
	mx := res.Alloc[c.Access.Array]
	if ms == nil || mx == nil {
		return false
	}
	mxfa := intmat.Mul(mx, c.Access.F)
	return intmat.Stack(ms, mxfa).Rank() == ms.Rank()
}

// AlignBroadcast rotates the component of the statement so that the
// given partial macro-communication becomes axis-parallel, and
// returns the rotation applied (identity if already axis-parallel).
// The rotation is computed through k (nil: plainly).
func AlignBroadcast(k *intmat.Kernels, res *alignment.Result, mc *Macro) (*intmat.Mat, error) {
	if mc.AxisParallel() {
		return intmat.Identity(res.M), nil
	}
	v := AxisAlignRotation(k, mc.Directions)
	if err := res.RotateComponent(mc.Comm.Stmt.Name, v); err != nil {
		return nil, err
	}
	// keep the Macro's view of the world coherent
	mc.Directions = dropZeroCols(intmat.Mul(v, mc.Directions))
	return v, nil
}

func dropZeroCols(m *intmat.Mat) *intmat.Mat {
	var keep []int
	for j := 0; j < m.Cols(); j++ {
		for i := 0; i < m.Rows(); i++ {
			if m.At(i, j) != 0 {
				keep = append(keep, j)
				break
			}
		}
	}
	return m.SubCols(keep...)
}
