// Package compiled factors one full optimization run into a
// structural phase done once per nest and a cheap numeric evaluator
// run once per machine point. The structural phase (Compile) pays for
// alignment, Hermite forms and plan construction through core; its
// result — an Artifact — is the machine-independent projection of the
// plans. The numeric phase (Artifact.Eval) prices those plans on a
// concrete machine instance through the same cost model the engine
// uses, with mesh pricing served from compiled templates cached in a
// Pricer, so sweeping a lattice of (P, Q, bytes) points costs one
// structural compile plus one cheap arithmetic evaluation per point
// instead of one cold optimize each.
//
// Equivalence is the package's contract: for any scenario, Eval
// returns bit-identical model time, class counts and collective
// summaries to running the scenario through the engine — both price
// through the one cost dispatch, EvalPlans, and templates compile the
// exact Select* and contention structure (see internal/collective).
package compiled

import (
	"bytes"
	"strconv"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/intmat"
	"repro/internal/macro"
	"repro/internal/scenarios"
)

// PlanShape is the machine-independent projection of one core.Plan:
// exactly the fields the cost models read. It mirrors the engine's
// plan records, so an artifact built from either a fresh optimization
// or a stored plan entry evaluates identically.
type PlanShape struct {
	Class          core.Class
	Vectorizable   bool
	MacroReduction bool
	// MacroDims lists the virtual grid axes of a partial axis-parallel
	// macro-communication (nil: machine-spanning scheduling).
	MacroDims []int
	Factors   []*intmat.Mat
	Dataflow  *intmat.Mat
}

// Artifact is the compiled structural form of one optimization
// problem: the plan shapes of its nest, reusable across every
// machine, distribution, size and payload. Artifacts are read-only
// after construction and safe for concurrent Eval.
type Artifact struct {
	// Key is the scenario plan key the artifact was compiled from
	// (scenarios.Scenario.PlanKey) — machine-independent by
	// construction.
	Key string
	// Err is the optimization error ("" on success); an errored
	// artifact evaluates to the zero Point at every machine.
	Err   string
	Plans []PlanShape
}

// New assembles an artifact from already-projected plan shapes (the
// engine uses this to convert a cached plan entry without re-running
// the heuristic).
func New(key string, plans []PlanShape, errMsg string) *Artifact {
	return &Artifact{Key: key, Err: errMsg, Plans: plans}
}

// Compile runs the structural phase for a scenario's optimization
// problem: the full two-step heuristic, projected down to plan
// shapes. Only the nest-side fields of sc are read (Program, M,
// Opts); machine, distribution and size belong to Eval.
func Compile(sc *scenarios.Scenario) *Artifact {
	a := &Artifact{Key: sc.PlanKey()}
	res, err := core.Optimize(sc.Program, sc.M, sc.Opts)
	if err != nil {
		a.Err = err.Error()
		return a
	}
	a.Plans = Shapes(res.Plans)
	return a
}

// Shapes projects optimized plans onto their plan shapes.
func Shapes(plans []core.Plan) []PlanShape {
	shapes := make([]PlanShape, 0, len(plans))
	for _, pl := range plans {
		shapes = append(shapes, PlanShape{
			Class:          pl.Class,
			Vectorizable:   pl.Vectorizable,
			MacroReduction: pl.Macro != nil && pl.Macro.Kind == macro.Reduction,
			MacroDims:      macroGridDims(pl.Macro),
			Factors:        pl.Factors,
			Dataflow:       pl.Dataflow,
		})
	}
	return shapes
}

// macroGridDims extracts the grid axes of a partial axis-parallel
// macro-communication — the non-zero rows of its direction matrix, in
// row order. Total, hidden and non-axis macros report nil
// (machine-spanning scheduling).
func macroGridDims(mc *macro.Macro) []int {
	if mc == nil || !mc.Partial() || !mc.AxisParallel() {
		return nil
	}
	d := mc.Directions
	var dims []int
	for i := 0; i < d.Rows(); i++ {
		for j := 0; j < d.Cols(); j++ {
			if d.At(i, j) != 0 {
				dims = append(dims, i)
				break
			}
		}
	}
	return dims
}

// choiceCount is one distinct collective choice of a point and how
// many times it was chosen.
type choiceCount struct {
	pattern          collective.Pattern
	scope, algorithm string
	n                int
}

// choiceCounts tallies a point's collective choices by (pattern,
// scope, algorithm). Points of the built-in examples and the
// big-sweep suite carry at most four distinct choices; past the
// fixed array's eight they spill to a slice. It lives on the
// evaluating goroutine's stack, so no field may point into the array.
type choiceCounts struct {
	n     int
	fixed [8]choiceCount
	more  []choiceCount
}

func (c *choiceCounts) at(i int) *choiceCount {
	if i < c.n {
		return &c.fixed[i]
	}
	return &c.more[i-c.n]
}

func (c *choiceCounts) len() int { return c.n + len(c.more) }

// add counts ch times more times.
func (c *choiceCounts) add(ch collective.Choice, times int) {
	for i := 0; i < c.len(); i++ {
		e := c.at(i)
		if e.pattern == ch.Pattern && e.scope == ch.Scope && e.algorithm == ch.Algorithm {
			e.n += times
			return
		}
	}
	e := choiceCount{pattern: ch.Pattern, scope: ch.Scope, algorithm: ch.Algorithm, n: times}
	if c.n < len(c.fixed) {
		c.fixed[c.n] = e
		c.n++
		return
	}
	c.more = append(c.more, e)
}

// render renders the counted choices deterministically — sorted
// "pattern=algorithm" (or "pattern@scope=algorithm") terms, "*n"
// multiplicities past one — byte-identical to the engine's rendering
// of collective.Choice.String terms. A rendering equal to reuse
// returns reuse, so an unchanged summary allocates nothing.
func (c *choiceCounts) render(reuse string) string {
	total := c.len()
	if total == 0 {
		return ""
	}
	// Terms go into one buffer, term i at [ends[i-1], ends[i]); order
	// is insertion-sorted by term bytes, as sort.Strings orders them.
	var termBuf [256]byte
	var endBuf, orderBuf [len(c.fixed)]int
	terms, ends, order := termBuf[:0], endBuf[:0], orderBuf[:0]
	for i := 0; i < total; i++ {
		e := c.at(i)
		terms = append(terms, e.pattern.String()...)
		if e.scope != "" {
			terms = append(terms, '@')
			terms = append(terms, e.scope...)
		}
		terms = append(terms, '=')
		terms = append(terms, e.algorithm...)
		ends = append(ends, len(terms))
		order = append(order, i)
	}
	term := func(i int) []byte {
		start := 0
		if i > 0 {
			start = ends[i-1]
		}
		return terms[start:ends[i]]
	}
	for i := 1; i < total; i++ {
		for j := i; j > 0 && bytes.Compare(term(order[j]), term(order[j-1])) < 0; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	var outBuf [256]byte
	out := outBuf[:0]
	for k, i := range order {
		if k > 0 {
			out = append(out, ',')
		}
		out = append(out, term(i)...)
		if n := c.at(i).n; n > 1 {
			out = append(out, '*')
			out = strconv.AppendInt(out, int64(n), 10)
		}
	}
	if string(out) == reuse {
		return reuse
	}
	return string(out)
}
