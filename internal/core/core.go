// Package core assembles the paper's complete two-step heuristic
// (Section 6):
//
//  1. Zero out non-local communications — access graph, maximum
//     branching, augmentation by identity cycles / equal parallel
//     paths, deficient-rank zeroing (package alignment).
//  2. Optimize residual communications — detect macro-communications
//     and rotate the allocation matrices so partial broadcasts run
//     parallel to the processor axes (package macro); decompose the
//     remaining general affine communications into elementary, or
//     unirow, factors (package decomp).
//
// The result classifies every communication of the nest as local, a
// macro-communication, a decomposed communication, or a general
// communication, with everything needed to cost it on the machine
// models of package machine.
package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/accessgraph"
	"repro/internal/affine"
	"repro/internal/alignment"
	"repro/internal/decomp"
	"repro/internal/intmat"
	"repro/internal/macro"
	"repro/internal/ratmat"
	"repro/internal/trace"
)

// Class is the final classification of one communication.
type Class int

// Classification of a communication after both heuristic steps.
const (
	// Local: the non-local term was zeroed out; only a constant
	// translation may remain.
	Local Class = iota
	// MacroComm: the residual is a broadcast/scatter/gather/reduction
	// implementable with the machine's collective facilities.
	MacroComm
	// Decomposed: the residual's data-flow matrix was factored into
	// elementary (or unirow) communications.
	Decomposed
	// General: nothing better than a general affine communication was
	// found.
	General
)

func (c Class) String() string {
	switch c {
	case Local:
		return "local"
	case MacroComm:
		return "macro"
	case Decomposed:
		return "decomposed"
	case General:
		return "general"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Plan is the optimization outcome for one communication.
type Plan struct {
	Comm  accessgraph.Comm
	Class Class
	// Macro is set for MacroComm plans (and may accompany Decomposed
	// plans when a hidden macro pattern was found but not used).
	Macro *macro.Macro
	// Rotation is the unimodular component rotation applied to make
	// the macro-communication axis-parallel, if any.
	Rotation *intmat.Mat
	// Dataflow is the data-flow matrix T (processor → processor) of
	// the residual, when defined (square, integral).
	Dataflow *intmat.Mat
	// Factors is the elementary/unirow factorization of Dataflow for
	// Decomposed plans.
	Factors []*intmat.Mat
	// Similarity is the unimodular conjugator applied before
	// decomposition, if one was used.
	Similarity *intmat.Mat
	// Vectorizable reports the message-vectorization condition of
	// Section 4.5.
	Vectorizable bool
}

// Result is the outcome of the full heuristic.
type Result struct {
	Align *alignment.Result
	Plans []Plan
	// Timing is the wall-clock phase breakdown of the run that produced
	// this result.
	Timing Timing
}

// Timing attributes the heuristic's wall-clock time to its phases:
// alignment (step 1), macro detection and rotation (step 2a), and
// decomposition plus plan assembly (step 2b). Filled by every run; a
// pure function of nothing — two runs over the same input produce
// equal Plans and different Timings.
type Timing struct {
	Align     time.Duration
	Macro     time.Duration
	Decompose time.Duration
}

// Options tune the pipeline. The zero value is the paper's
// configuration.
type Options struct {
	// Alignment tunes step 1.
	Alignment alignment.Options
	// MaxFactors caps the elementary decomposition length (default 4,
	// the paper's practical bound).
	MaxFactors int
	// SimilarityBound bounds the entries of candidate unimodular
	// conjugators when searching for a shorter decomposition of
	// M·T·M⁻¹ (default 2; 0 disables the similarity search).
	SimilarityBound int64
	// NoMacro disables macro-communication detection (ablation).
	NoMacro bool
	// NoDecomposition disables communication decomposition (ablation).
	NoDecomposition bool
}

func (o *Options) maxFactors() int {
	if o.MaxFactors == 0 {
		return 4
	}
	return o.MaxFactors
}

// Optimize runs the complete two-step heuristic on p for an
// m-dimensional virtual processor space.
func Optimize(p *affine.Program, m int, opts Options) (*Result, error) {
	return OptimizeCtx(context.Background(), nil, p, m, opts)
}

// OptimizeCtx is Optimize under a context: when ctx carries an active
// trace span, each heuristic phase records a timed child span
// ("alignment", "macro", "decompose"); the same phase durations are
// always reported in Result.Timing. The context does not cancel the
// computation — phases are short and run to completion. Every Hermite
// form, unimodular inverse and kernel basis of the run is computed
// through k (see intmat.Kernels: nil computes plainly), so the caller
// chooses the memo and reads the kernel cost back off the handle.
func OptimizeCtx(ctx context.Context, k *intmat.Kernels, p *affine.Program, m int, opts Options) (*Result, error) {
	t0 := time.Now()
	_, alignSpan := trace.StartSpan(ctx, "alignment")
	ar, err := alignment.AlignWith(k, p, m, opts.Alignment)
	alignSpan.End()
	alignDur := time.Since(t0)
	if err != nil {
		return nil, err
	}
	res := &Result{Align: ar}
	res.Timing.Align = alignDur

	// Step 2a: macro-communications, with axis alignment. Process
	// residuals one at a time, re-detecting after every rotation so
	// each plan reflects the final allocation matrices. Once a
	// component has been rotated for one macro-communication it is
	// frozen: a second rotation would undo the first alignment.
	t0 = time.Now()
	_, macroSpan := trace.StartSpan(ctx, "macro")
	planned := map[int]*Plan{}
	frozen := map[int]bool{}
	if !opts.NoMacro {
		for _, c := range ar.ResidualComms() {
			best := pickMacro(macro.Detect(k, ar, c))
			if best == nil {
				continue
			}
			pl := &Plan{Comm: c, Class: MacroComm, Macro: best}
			comp := ar.Component[c.Stmt.Name]
			if best.Partial() && !best.AxisParallel() && !frozen[comp] {
				rot, err := macro.AlignBroadcast(k, ar, best)
				if err != nil {
					macroSpan.End()
					return nil, err
				}
				pl.Rotation = rot
			}
			frozen[comp] = true
			planned[c.ID] = pl
		}
	}
	macroSpan.SetInt("macros", int64(len(planned))).End()
	res.Timing.Macro = time.Since(t0)

	// Step 2b: decompose the remaining general communications.
	t0 = time.Now()
	_, decSpan := trace.StartSpan(ctx, "decompose")
	for _, c := range ar.ResidualComms() {
		if planned[c.ID] != nil {
			continue
		}
		pl := &Plan{Comm: c, Class: General}
		if !opts.NoDecomposition {
			res.decompose(k, pl, ar, opts, frozen)
		}
		planned[c.ID] = pl
	}

	// Assemble plans in communication order, with vectorization info.
	for _, c := range ar.Graph.Comms {
		var pl Plan
		if ar.LocalComms[c.ID] {
			pl = Plan{Comm: c, Class: Local}
		} else {
			pl = *planned[c.ID]
		}
		pl.Vectorizable = macro.Vectorizable(ar, c)
		res.Plans = append(res.Plans, pl)
	}
	decSpan.SetInt("plans", int64(len(res.Plans))).End()
	res.Timing.Decompose = time.Since(t0)
	return res, nil
}

// pickMacro chooses the preferred macro pattern: Table 1 orders
// reduction cheapest, then broadcast; scatters/gathers follow. Hidden
// patterns are never picked.
func pickMacro(ms []*macro.Macro) *macro.Macro {
	rank := func(k macro.Kind) int {
		switch k {
		case macro.Reduction:
			return 0
		case macro.Broadcast:
			return 1
		case macro.Gather:
			return 2
		case macro.Scatter:
			return 3
		}
		return 4
	}
	var best *macro.Macro
	for _, m := range ms {
		if m.Hidden() {
			continue
		}
		if best == nil || rank(m.Kind) < rank(best.Kind) {
			best = m
		}
	}
	return best
}

// decompose computes the data-flow matrix of the residual and factors
// it (Section 5). Sender: M_x·(F·I + c); receiver: M_S·I; data-flow
// matrix T solves T·(M_x·F) = M_S.
func (r *Result) decompose(k *intmat.Kernels, pl *Plan, ar *alignment.Result, opts Options, frozen map[int]bool) {
	c := pl.Comm
	ms := ar.Alloc[c.Stmt.Name]
	mx := ar.Alloc[c.Access.Array]
	if ms == nil || mx == nil {
		return
	}
	mxf := intmat.Mul(mx, c.Access.F)
	t, ok := dataflow(ms, mxf)
	if !ok {
		return
	}
	pl.Dataflow = t
	if t.IsIdentity() {
		// pure translation: already the cheapest non-local form
		pl.Class = Decomposed
		pl.Factors = nil
		return
	}
	if t.Rows() == 2 && t.Det() == 1 {
		if fs, found := decomp.DecomposeAtMost(t, opts.maxFactors()); found {
			pl.Class = Decomposed
			pl.Factors = fs
			return
		}
		if opts.SimilarityBound > 0 && !frozen[ar.Component[c.Stmt.Name]] {
			// conjugation = re-basing the component; only valid when
			// statement and array share a component.
			if ar.Component[c.Stmt.Name] == ar.Component[c.Access.Array] {
				if conj, fs, found := decomp.SimilarAtMost(k, t, 2, opts.SimilarityBound); found {
					if err := ar.RotateComponent(c.Stmt.Name, conj); err == nil {
						frozen[ar.Component[c.Stmt.Name]] = true
						pl.Class = Decomposed
						pl.Factors = fs
						pl.Similarity = conj
						pl.Dataflow = intmat.MulAll(conj, t, k.InverseUnimodular(conj))
						return
					}
				}
			}
		}
		pl.Class = Decomposed
		pl.Factors = decomp.DecomposeEuclid(t)
		return
	}
	// larger dimension, determinant 1: elementary factors (the 3-D
	// machine case the paper sketches for the Cray T3D)
	if t.Rows() > 2 && t.Det() == 1 {
		pl.Class = Decomposed
		pl.Factors = decomp.DecomposeElementaryN(t)
		return
	}
	// arbitrary determinant: unirow factors (Section 5.3)
	if fs, found := decomp.DecomposeUnirow(t); found {
		pl.Class = Decomposed
		pl.Factors = fs
	}
}

// dataflow solves T·(M_x·F) = M_S for an integral square T, the
// processor-to-processor map of the residual communication.
func dataflow(ms, mxf *intmat.Mat) (*intmat.Mat, bool) {
	if mxf.Rank() != mxf.Rows() {
		return nil, false
	}
	x0, _, ok := ratmat.SolveXF(ratmat.FromInt(ms), mxf)
	if !ok {
		return nil, false
	}
	ti, isInt := x0.ToInt()
	if !isInt {
		return nil, false
	}
	if !intmat.Mul(ti, mxf).Equal(ms) {
		return nil, false
	}
	return ti, true
}

// Counts returns how many communications fall into each class.
func (r *Result) Counts() map[Class]int {
	out := map[Class]int{}
	for _, pl := range r.Plans {
		out[pl.Class]++
	}
	return out
}

// Report renders a human-readable summary of the optimization.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s on a %d-dimensional virtual grid\n",
		r.Align.Program.Name, r.Align.M)
	fmt.Fprintf(&b, "allocation matrices:\n")
	for _, arr := range r.Align.Program.Arrays {
		fmt.Fprintf(&b, "  M_%s = %v\n", arr.Name, r.Align.Alloc[arr.Name])
	}
	for _, s := range r.Align.Program.Statements {
		fmt.Fprintf(&b, "  M_%s = %v\n", s.Name, r.Align.Alloc[s.Name])
	}
	fmt.Fprintf(&b, "communications:\n")
	for _, pl := range r.Plans {
		fmt.Fprintf(&b, "  [%d] %s in %s: %s", pl.Comm.ID, pl.Comm.Access.Array, pl.Comm.Stmt.Name, pl.Class)
		switch pl.Class {
		case MacroComm:
			fmt.Fprintf(&b, " (%s)", pl.Macro)
			if pl.Rotation != nil {
				fmt.Fprintf(&b, " rotated by %v", pl.Rotation)
			}
		case Decomposed:
			if pl.Dataflow != nil {
				fmt.Fprintf(&b, " T=%v into %d elementary", pl.Dataflow, len(pl.Factors))
			}
		}
		if pl.Vectorizable && pl.Class != Local {
			fmt.Fprintf(&b, " [vectorizable]")
		}
		b.WriteByte('\n')
	}
	c := r.Counts()
	fmt.Fprintf(&b, "summary: %d local, %d macro, %d decomposed, %d general\n",
		c[Local], c[MacroComm], c[Decomposed], c[General])
	return b.String()
}
