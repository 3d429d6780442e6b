// Package alignment implements step 1 of the paper's heuristic: given
// the access graph and its maximum branching, it derives full-rank
// integer allocation matrices that make as many communications as
// possible local, including
//
//   - propagation of allocation matrices along the branching
//     (M_dst = M_src·W for every branching edge);
//   - re-adding non-branching edges that close identity cycles or
//     parallel paths of equal matrix weight (heuristic step (c)(i));
//   - merging components through exactly solvable matrix equations
//     (Lemma 2);
//   - zeroing deficient-rank path differences by choosing the root
//     allocation inside the left kernel of F_p1 − F_p2 (step (c)(ii)).
//
// Allocation matrices within a connected component are determined up
// to left multiplication by a unimodular matrix (paper Section 3,
// Remark); RotateComponent applies such a re-basing, which step 2 of
// the heuristic uses to make broadcasts axis-parallel and to improve
// decompositions.
package alignment

import (
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/accessgraph"
	"repro/internal/affine"
	"repro/internal/intmat"
	"repro/internal/ratmat"
)

// Options tune the alignment heuristic; the zero value is the paper's
// configuration.
type Options struct {
	// UnitWeights replaces the volume (rank) edge weights with weight
	// 1, for the ablation study.
	UnitWeights bool
	// NoAugmentation skips heuristic step (c) entirely: only the
	// branching edges become local.
	NoAugmentation bool
	// NoDeficientRank skips step (c)(ii) only.
	NoDeficientRank bool
	// Seed drives the randomized retries of root instantiation.
	Seed int64
}

// Result is the outcome of the alignment step.
type Result struct {
	M       int
	Program *affine.Program
	Graph   *accessgraph.Graph
	// Branching is the maximum branching (selected edges).
	Branching []*accessgraph.Edge
	// LocalComms maps communication id → true when the communication
	// was made local.
	LocalComms map[int]bool
	// Alloc maps vertex name (statement or array) to its integer
	// allocation matrix (m×dim, full rank min(m, dim)).
	Alloc map[string]*intmat.Mat
	// Component maps vertex name to a component id of the final local
	// graph; Roots lists one root vertex name per component.
	Component map[string]int
	Roots     []string
	// DeficientZeroed counts communications zeroed by the kernel
	// trick of step (c)(ii).
	DeficientZeroed int
}

// vertex state during alignment
type vstate struct {
	root     int         // vertex index of the component root
	transfer *ratmat.Mat // P_v: M_v = M_root·P_v (dim(root)×dim(v))
}

// Align runs alignment step 1 on program p for an m-dimensional
// virtual architecture.
func Align(p *affine.Program, m int, opts Options) (*Result, error) {
	return AlignWith(nil, p, m, opts)
}

// AlignWith is Align computing its left kernels through k (see
// intmat.Kernels; nil computes plainly).
func AlignWith(k *intmat.Kernels, p *affine.Program, m int, opts Options) (*Result, error) {
	g, err := accessgraph.Build(p, m)
	if err != nil {
		return nil, err
	}
	res := &Result{
		M:          m,
		Program:    p,
		Graph:      g,
		LocalComms: map[int]bool{},
		Alloc:      map[string]*intmat.Mat{},
		Component:  map[string]int{},
	}

	// --- step (b): maximum branching ---
	bes := make([]accessgraph.BranchEdge, len(g.Edges))
	for i, e := range g.Edges {
		w := e.Volume
		if opts.UnitWeights {
			w = 1
		}
		bes[i] = accessgraph.BranchEdge{Src: e.Src, Dst: e.Dst, Weight: w}
	}
	selIdx := accessgraph.MaximumBranching(len(g.Vertices), bes)
	inBranching := make([]bool, len(g.Edges))
	for _, i := range selIdx {
		inBranching[i] = true
		res.Branching = append(res.Branching, g.Edges[i])
	}

	// --- transfer matrices along the branching ---
	n := len(g.Vertices)
	st := make([]vstate, n)
	parentEdge := make([]*accessgraph.Edge, n)
	for _, e := range res.Branching {
		parentEdge[e.Dst] = e
	}
	var resolve func(v int) error
	var resolving = make([]bool, n)
	resolve = func(v int) error {
		if st[v].transfer != nil {
			return nil
		}
		if resolving[v] {
			return fmt.Errorf("alignment: branching contains a cycle at %s", g.Vertices[v].Name)
		}
		resolving[v] = true
		defer func() { resolving[v] = false }()
		pe := parentEdge[v]
		if pe == nil {
			st[v] = vstate{root: v, transfer: ratmat.Identity(g.Vertices[v].Dim)}
			return nil
		}
		if err := resolve(pe.Src); err != nil {
			return err
		}
		st[v] = vstate{
			root:     st[pe.Src].root,
			transfer: ratmat.Mul(st[pe.Src].transfer, pe.W),
		}
		return nil
	}
	for v := 0; v < n; v++ {
		if err := resolve(v); err != nil {
			return nil, err
		}
	}
	for _, e := range res.Branching {
		res.LocalComms[e.CommID] = true
	}

	// --- step (c): augmentation ---
	type deficient struct {
		root   int
		delta  *ratmat.Mat
		commID int
	}
	var deficients []deficient
	if !opts.NoAugmentation {
		rng := &stream{seed: opts.Seed + 1}
		defer rng.release()
		for i, e := range g.Edges {
			if inBranching[i] || res.LocalComms[e.CommID] {
				continue
			}
			pu, pv := st[e.Src].transfer, st[e.Dst].transfer
			lhs := ratmat.Mul(pu, e.W) // constraint: M_root(u)·P_u·W = M_root(v)·P_v
			if st[e.Src].root == st[e.Dst].root {
				if lhs.Equal(pv) {
					// identity cycle / equal parallel path: free to add
					res.LocalComms[e.CommID] = true
				} else {
					deficients = append(deficients, deficient{
						root:   st[e.Src].root,
						delta:  ratmat.Sub(lhs, pv),
						commID: e.CommID,
					})
				}
				continue
			}
			// different components: try to merge by solving X·P_v = P_u·W
			// relative to root(u). Needs the constraint to be expressible
			// exactly (Lemma 2 with F = P_v).
			x := solveMerge(lhs, pv, res.M, rng)
			if x == nil {
				continue
			}
			oldRoot, newRoot := st[e.Dst].root, st[e.Src].root
			for w := 0; w < n; w++ {
				if st[w].root == oldRoot {
					st[w] = vstate{root: newRoot, transfer: ratmat.Mul(x, st[w].transfer)}
				}
			}
			res.LocalComms[e.CommID] = true
		}
	}

	// --- components & roots ---
	rootOf := map[int]int{} // root vertex -> component id
	for v := 0; v < n; v++ {
		r := st[v].root
		if _, ok := rootOf[r]; !ok {
			rootOf[r] = len(res.Roots)
			res.Roots = append(res.Roots, g.Vertices[r].Name)
		}
		res.Component[g.Vertices[v].Name] = rootOf[r]
	}

	// --- step (c)(ii): deficient-rank constraints per component ---
	chosen := map[int]*ratmat.Mat{} // root vertex -> stacked constraint matrix (augmented horizontally)
	if !opts.NoAugmentation && !opts.NoDeficientRank {
		for _, d := range deficients {
			di, _ := d.delta.ScaledInt() // kernel unaffected by positive scaling
			cur := chosen[d.root]
			var cand *intmat.Mat
			if cur == nil {
				cand = di
			} else {
				ci, _ := cur.ScaledInt()
				cand = intmat.Augment(ci, di)
			}
			lk := k.LeftKernelBasis(cand)
			if lk.Rows() >= min(m, g.Vertices[d.root].Dim) {
				chosen[d.root] = ratmat.FromInt(cand)
				res.LocalComms[d.commID] = true
				res.DeficientZeroed++
			}
		}
	}

	// --- instantiate allocation matrices ---
	rng := &stream{seed: opts.Seed + 2}
	defer rng.release()
	byRoot := map[int][]int{}
	for v := 0; v < n; v++ {
		byRoot[st[v].root] = append(byRoot[st[v].root], v)
	}
	// Iterate roots in sorted order: the instantiation retries share
	// one rng stream, so map-order iteration would make the chosen
	// allocation matrices vary from call to call on multi-component
	// programs.
	roots := make([]int, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	for _, r := range roots {
		vs := byRoot[r]
		mr, err := instantiateRoot(k, g, st, r, vs, m, chosen[r], rng)
		if err != nil {
			return nil, err
		}
		// Scale the whole component by the lcm of all denominators so
		// every allocation matrix is integral; left scaling preserves
		// all locality equalities and every rank.
		lam := int64(1)
		for _, v := range vs {
			mv := ratmat.Mul(ratmat.FromInt(mr), st[v].transfer)
			lam = lcm(lam, mv.Den())
		}
		mrS := intmat.Scale(lam, mr)
		for _, v := range vs {
			mv := ratmat.Mul(ratmat.FromInt(mrS), st[v].transfer)
			iv, l := mv.ScaledInt()
			if l != 1 {
				return nil, fmt.Errorf("alignment: internal error: allocation of %s still rational after scaling", g.Vertices[v].Name)
			}
			res.Alloc[g.Vertices[v].Name] = iv
		}
	}

	// --- final locality bookkeeping: verify and complete ---
	for _, c := range g.Comms {
		local := commIsLocal(res, c)
		if res.LocalComms[c.ID] && !local {
			return nil, fmt.Errorf("alignment: internal error: comm %d claimed local but is not", c.ID)
		}
		res.LocalComms[c.ID] = local
	}
	return res, nil
}

func lcm(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	g := gcd(a, b)
	return a / g * b
}

func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// instantiateRoot chooses a full-rank integer root allocation matrix
// honoring the deficient-rank constraints when possible and keeping
// every derived allocation of full rank. The candidates, in order, are
// the first rows of the constraint's left kernel and 40 random
// combinations of its rows (when it has enough), the canonical [Id | 0]
// root, and 60 random matrices; the first whose ranks are right wins.
// Each is drawn only when its turn comes, and after a win rng still
// owes the draws of the candidates not tried, so the next root sees the
// same stream whichever candidate won.
func instantiateRoot(k *intmat.Kernels, g *accessgraph.Graph, st []vstate, r int, vs []int, m int, constraint *ratmat.Mat, rng *stream) (*intmat.Mat, error) {
	dim := g.Vertices[r].Dim
	rows := min(m, dim)

	ranksOK := func(mr *intmat.Mat) bool {
		if mr.Rank() != rows {
			return false
		}
		for _, v := range vs {
			mv := ratmat.Mul(ratmat.FromInt(mr), st[v].transfer)
			mv.Den() // panics like ScaledInt once mv leaves int64
			if mv.Rank() != min(m, g.Vertices[v].Dim) {
				return false
			}
		}
		return true
	}

	const (
		kernelCombos, comboBound = 40, 2 // combinations of kernel rows, coefficients in [−2, 2]
		randomRoots, rootBound   = 60, 3 // random roots, entries in [−3, 3]
	)
	var lk *intmat.Mat
	if constraint != nil {
		ci, _ := constraint.ScaledInt()
		if lk = k.LeftKernelBasis(ci); lk.Rows() < rows {
			lk = nil
		}
	}
	var won *intmat.Mat
	combos, randoms := 0, 0 // random candidates drawn
	if lk != nil {
		if base := lk.SubRows(seq(rows)...); ranksOK(base) {
			won = base
		}
		// randomized combinations of kernel rows
		for ; combos < kernelCombos && won == nil; combos++ {
			if c := intmat.Mul(intmat.RandMat(rng, rows, lk.Rows(), comboBound), lk); ranksOK(c) {
				won = c
			}
		}
	}
	// canonical [Id | 0] root, then random retries
	if won == nil {
		canon := intmat.Zero(rows, dim)
		for i := 0; i < rows; i++ {
			canon.Set(i, i, 1)
		}
		if ranksOK(canon) {
			won = canon
		}
	}
	for ; randoms < randomRoots && won == nil; randoms++ {
		if c := intmat.RandMat(rng, rows, dim, rootBound); ranksOK(c) {
			won = c
		}
	}
	// RandMat draws one Int63n(2·bound+1) per entry.
	if lk != nil {
		rng.skip(2*comboBound+1, (kernelCombos-combos)*rows*lk.Rows())
	}
	rng.skip(2*rootBound+1, (randomRoots-randoms)*rows*dim)
	if won == nil {
		return nil, fmt.Errorf("alignment: cannot find a full-rank allocation for component rooted at %s", g.Vertices[r].Name)
	}
	return won, nil
}

// solveMerge finds a full-rank-friendly X with X·pv = lhs, or nil.
// pv is cleared of denominators first: with pv = N/λ the equation
// X·N = λ·lhs is an instance of Lemma 2 over an integer F.
func solveMerge(lhs, pv *ratmat.Mat, m int, rng *stream) *ratmat.Mat {
	n, lam := pv.ScaledInt()
	sPrime := ratmat.Scale(big.NewRat(lam, 1), lhs)
	x0, proj, ok := ratmat.SolveXF(sPrime, n)
	if !ok {
		return nil
	}
	want := min(min(x0.Rows(), x0.Cols()), m)
	if x0.Rank() >= want {
		return x0
	}
	// perturb within the affine solution space X0 + Y·proj
	for t := 0; t < 30; t++ {
		y := ratmat.FromInt(intmat.RandMat(rng, x0.Rows(), proj.Rows(), 2))
		cand := ratmat.Add(x0, ratmat.Mul(y, proj))
		if cand.Rank() >= want {
			return cand
		}
	}
	return x0
}

// commIsLocal checks M_S = M_x·F exactly on the instantiated integer
// allocations.
func commIsLocal(res *Result, c accessgraph.Comm) bool {
	ms := res.Alloc[c.Stmt.Name]
	mx := res.Alloc[c.Access.Array]
	if ms == nil || mx == nil {
		return false
	}
	return intmat.Mul(mx, c.Access.F).Equal(ms)
}

// RotateComponent left-multiplies the allocation matrices of every
// vertex in the component containing `vertex` by the unimodular
// matrix V. Local communications stay local: each local equation
// M_S = M_x·F turns into V·M_S = V·M_x·F.
func (r *Result) RotateComponent(vertex string, v *intmat.Mat) error {
	if !v.IsUnimodular() {
		return fmt.Errorf("alignment: rotation matrix %v is not unimodular", v)
	}
	comp, ok := r.Component[vertex]
	if !ok {
		return fmt.Errorf("alignment: unknown vertex %q", vertex)
	}
	// In the access graph's vertex order, not map order: when a
	// product overflows, the vertex that fails first names the operands
	// of the panic, and that must be a function of the input.
	for _, vx := range r.Graph.Vertices {
		if id, ok := r.Component[vx.Name]; ok && id == comp {
			r.Alloc[vx.Name] = intmat.Mul(v, r.Alloc[vx.Name])
		}
	}
	return nil
}

// ResidualComms returns the communications that remain non-local.
func (r *Result) ResidualComms() []accessgraph.Comm {
	var out []accessgraph.Comm
	for _, c := range r.Graph.Comms {
		if !r.LocalComms[c.ID] {
			out = append(out, c)
		}
	}
	return out
}

// LocalCount returns the number of local communications.
func (r *Result) LocalCount() int {
	n := 0
	for _, ok := range r.LocalComms {
		if ok {
			n++
		}
	}
	return n
}

// stream is the math/rand stream of one seed, seeded on its first draw
// with a generator from a pool. skip owes draws: they are made just
// before the next real draw, so a stream that is not drawn from again
// never makes them.
type stream struct {
	seed int64
	r    *rand.Rand
	owed []owedDraws
}

// owedDraws is count draws of Int63n(n).
type owedDraws struct {
	n     int64
	count int
}

var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// Int63n draws as rand.New(rand.NewSource(seed)).Int63n would at this
// point of the stream.
func (s *stream) Int63n(n int64) int64 {
	if s.r == nil {
		s.r = rngPool.Get().(*rand.Rand)
		s.r.Seed(s.seed)
	}
	for _, o := range s.owed {
		for i := 0; i < o.count; i++ {
			s.r.Int63n(o.n)
		}
	}
	s.owed = s.owed[:0]
	return s.r.Int63n(n)
}

// skip owes count draws of Int63n(n).
func (s *stream) skip(n int64, count int) {
	if count > 0 {
		s.owed = append(s.owed, owedDraws{n, count})
	}
}

// release returns the generator to the pool.
func (s *stream) release() {
	if s.r != nil {
		rngPool.Put(s.r)
		s.r = nil
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
