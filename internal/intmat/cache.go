package intmat

import (
	"fmt"
	"time"
)

// KernelCache is a memo store for the expensive kernels of this
// package (Hermite normal forms and integer kernel bases), consulted
// through a Kernels handle.
// Implementations must be safe for concurrent use; package engine
// provides one. Keys are canonical (operation-prefixed Mat.Key), so
// a hit is always the exact result of the same computation. The
// values stored under the keys are private to this package.
type KernelCache interface {
	Get(key string) (any, bool)
	Put(key string, v any)
}

// Kernels is the handle one optimization passes down to the kernels
// of this package (HermiteLeft, HermiteRight, InverseUnimodular,
// KernelBasis, LeftKernelBasis, KernelIntersection). It carries the
// optional memo store and accounts the kernels it computed — not
// those served from Cache — in Time and Ops, so a caller attributes
// compute cost, not lookup cost. A nil *Kernels computes plainly,
// with no memo and no accounting; the package-level functions are
// that case. A handle is not safe for concurrent use: give each
// optimization its own (the Cache behind it may be shared).
type Kernels struct {
	// Cache is the memo store, or nil for none. Results handed to
	// callers are deep copies of the cached matrices, so a hit is
	// observationally identical to recomputation and callers may
	// freely mutate what they receive.
	Cache KernelCache
	// Time and Ops total the wall-clock time and the number of the
	// kernel computations run through this handle.
	Time time.Duration
	Ops  int
}

// matPair is the cached value of a two-matrix kernel result.
type matPair struct{ a, b *Mat }

// Clone deep-copies both matrices.
func (p matPair) Clone() matPair { return matPair{p.a.Clone(), p.b.Clone()} }

// memo runs one kernel through k: under op+":"+m.Key() in k.Cache
// when there is one, cloning on both store and load, and timed into
// k.Time/k.Ops when it computes. A cached value of the wrong type
// (possible only if a persistence layer fed back a record under the
// wrong key) is ignored and recomputed.
func memo[T interface{ Clone() T }](k *Kernels, op string, m *Mat, compute func(*Mat) T) T {
	if k == nil {
		return compute(m)
	}
	var key string
	if k.Cache != nil {
		key = op + ":" + m.Key()
		if v, ok := k.Cache.Get(key); ok {
			if r, ok := v.(T); ok {
				return r.Clone()
			}
		}
	}
	t0 := time.Now()
	r := compute(m)
	k.Time += time.Since(t0)
	k.Ops++
	if k.Cache != nil {
		k.Cache.Put(key, r.Clone())
	}
	return r
}

// KernelRec is the portable, JSON-serializable form of one kernel
// memo value — a single matrix or a pair — so a disk tier can persist
// the kernel cache (Hermite forms, unimodular inverses, kernel bases)
// under the same op:key scheme Kernels uses.
type KernelRec struct {
	A Rec  `json:"a"`
	B *Rec `json:"b,omitempty"`
}

// EncodeKernelValue serializes a value a Kernels handle stores; ok
// is false for foreign values (which a persistence layer must simply
// skip).
func EncodeKernelValue(v any) (KernelRec, bool) {
	switch t := v.(type) {
	case *Mat:
		return KernelRec{A: t.Rec()}, true
	case matPair:
		b := t.b.Rec()
		return KernelRec{A: t.a.Rec(), B: &b}, true
	}
	return KernelRec{}, false
}

// DecodeKernelValue rebuilds a kernel memo value from its serialized
// form, validating the matrices on the way in. Unlike plan matrices,
// kernel results may legitimately be empty (a trivial kernel has a
// 0-column basis), so zero dimensions are accepted here.
func DecodeKernelValue(r KernelRec) (any, error) {
	a, err := fromRecAllowEmpty(r.A)
	if err != nil {
		return nil, err
	}
	if r.B == nil {
		return a, nil
	}
	b, err := fromRecAllowEmpty(*r.B)
	if err != nil {
		return nil, err
	}
	return matPair{a: a, b: b}, nil
}

// fromRecAllowEmpty is FromRec minus the positive-dimension
// requirement.
func fromRecAllowEmpty(r Rec) (*Mat, error) {
	if r.R < 0 || r.C < 0 {
		return nil, fmt.Errorf("intmat: invalid record dimensions %d×%d", r.R, r.C)
	}
	if len(r.V) != r.R*r.C {
		return nil, fmt.Errorf("intmat: record %d×%d has %d entries, want %d", r.R, r.C, len(r.V), r.R*r.C)
	}
	return New(r.R, r.C, r.V...), nil
}
