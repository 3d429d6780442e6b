package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/affine"
	"repro/internal/api"
	"repro/internal/compiled"
	"repro/internal/engine"
	"repro/internal/scenarios"
)

// latticeGrid is the capacity-planning grid of the lattice workload:
// 16 meshes × 11 payloads.
const (
	latticeGrid   = "mesh{4..32}x{2..16}:bytes=1k..1M"
	latticePoints = 16 * 11
)

// latticeWorkload cycles POST /v1/lattice over the built-in examples.
// Setup sends each example latticeWarmups times: the first pass compiles
// its artifact and builds the pricer's templates, the later ones warm
// the path and must repeat the first pass's rows.
type latticeWorkload struct {
	o     options
	n     int
	names []string
	seq   []int              // example index of each measured op
	ref   [][]api.LatticeRow // setup reply per example
	st    *stack
	wrong []bool // op answered differently from the setup reply

	checked [][]api.LatticeRow // the setup replies the oracle checked
	badEx   []bool             // the oracle's verdict per example
}

const (
	latticeRate    = 60 // nominal ops/s, sizes the fixed op count
	latticeWarmups = 3
)

func newLatticeWorkload(o options) workload {
	w := &latticeWorkload{o: o}
	for _, ex := range affine.AllExamples() {
		w.names = append(w.names, ex.Name)
	}
	// A whole number of cycles in each half of a traced run, so every
	// run, and each half, has the same mix.
	w.n = max(1, latticeRate*o.seconds/passes/(2*len(w.names))) * 2 * len(w.names)
	return w
}

func (w *latticeWorkload) clients() int { return 2 }
func (w *latticeWorkload) ops() int     { return w.n }

func (w *latticeWorkload) request(ex int) api.LatticeRequest {
	return api.LatticeRequest{Example: w.names[ex], Grid: latticeGrid}
}

func (w *latticeWorkload) setup() error {
	w.close()
	// Each cycle visits every example once, in a seeded order.
	rng := rand.New(rand.NewSource(w.o.seed))
	w.seq = w.seq[:0]
	for len(w.seq) < w.n {
		w.seq = append(w.seq, rng.Perm(len(w.names))...)
	}
	var err error
	if w.st, err = startStack("", 2); err != nil {
		return err
	}
	w.wrong = make([]bool, w.n)
	w.ref = make([][]api.LatticeRow, len(w.names))
	for pass := 0; pass < latticeWarmups; pass++ {
		err := warmUp(2, len(w.names), func(ex int) error {
			var rows []api.LatticeRow
			_, err := w.st.cl.Lattice(context.Background(), w.request(ex), func(r api.LatticeRow) error {
				rows = append(rows, r)
				return nil
			})
			if err != nil || pass == 0 {
				w.ref[ex] = rows
				return err
			}
			if !slices.Equal(rows, w.ref[ex]) {
				return fmt.Errorf("%s: setup pass %d differs from the first", w.names[ex], pass+1)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// do sends one sweep and compares every row with the setup reply for
// the same example as it streams in.
func (w *latticeWorkload) do(ctx context.Context, i int) (time.Duration, error) {
	ex := w.seq[i]
	ref := w.ref[ex]
	k, same := 0, true
	t0 := time.Now()
	sum, err := w.st.cl.Lattice(ctx, w.request(ex), func(r api.LatticeRow) error {
		same = same && k < len(ref) && r == ref[k]
		k++
		return nil
	})
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if !same || k != len(ref) || sum.Summary.Points != len(ref) {
		w.wrong[i] = true
	}
	return d, nil
}

// latticeSpots is how many rows per example are re-priced by the
// oracle.
const latticeSpots = 6

// check re-prices seeded sample rows of each example's setup reply with
// an uncompiled engine.Session.Optimize at the same (machine, payload)
// point, the first time it runs; later setups must reply exactly as the
// checked one did. A wrong reference row makes every op of its example
// wrong.
func (w *latticeWorkload) check() (int, error) {
	if w.badEx == nil {
		bad, err := w.oracle()
		if err != nil {
			return 0, err
		}
		w.badEx, w.checked = bad, w.ref
	}
	badEx := slices.Clone(w.badEx)
	for ex := range badEx {
		if !slices.Equal(w.ref[ex], w.checked[ex]) {
			badEx[ex] = true
		}
	}
	bad := 0
	for i := range w.wrong {
		if w.wrong[i] || badEx[w.seq[i]] {
			bad++
		}
	}
	return bad, nil
}

// oracle returns, per example, whether a spot-checked row of its setup
// reply is wrong.
func (w *latticeWorkload) oracle() ([]bool, error) {
	sess := engine.NewSession(engine.Options{})
	defer sess.Close()
	rng := rand.New(rand.NewSource(w.o.seed))
	badEx := make([]bool, len(w.names))
	for ex, rows := range w.ref {
		if len(rows) != latticePoints {
			badEx[ex] = true
			continue
		}
		for s := 0; s < latticeSpots; s++ {
			row := rows[rng.Intn(len(rows))]
			sc := w.scenario(ex)
			var err error
			if sc.Machine, err = scenarios.ParseMachineSpec(row.Machine); err != nil {
				return nil, err
			}
			sc.ElemBytes = row.ElemBytes
			res, err := sess.Optimize(context.Background(), sc)
			if err != nil {
				return nil, fmt.Errorf("oracle %s at %s: %w", sc.Name, row.Machine, err)
			}
			if res.Err != "" || res.Classes != row.Classes || res.ModelTime != row.ModelTimeUs ||
				res.Vectorizable != row.Vectorizable || res.Collectives != row.Collectives {
				badEx[ex] = true
			}
		}
	}
	return badEx, nil
}

func (w *latticeWorkload) close() { w.st.close(); w.st = nil }

// scenario is example ex as the server builds it from a lattice
// request: m = 2, N = 16, Block×Block.
func (w *latticeWorkload) scenario(ex int) *scenarios.Scenario {
	prog := affine.AllExamples()[ex]
	return &scenarios.Scenario{Name: prog.Name, Program: prog, M: 2, Dist: blockBlock, N: 16, ElemBytes: 64}
}

func (w *latticeWorkload) counted(fn func()) (counters, error) { return countedStack(w.st, fn) }

// replay resolves each op's artifact through the session's compiled
// tier and sweeps the grid with the session pricer, as the handler
// does; setup compiles every artifact and warms the pricer first.
func (w *latticeWorkload) replay() (*replayer, error) {
	grid, err := compiled.ParseGrid(latticeGrid)
	if err != nil {
		return nil, err
	}
	sess := engine.NewSession(engine.Options{})
	sweep := func(ctx context.Context, ex int) (time.Duration, error) {
		sc := w.scenario(ex)
		t0 := time.Now()
		art := sess.CompiledArtifact(ctx, sc)
		rows := grid.Sweep(art, sess.Pricer(), sc.Dist, sc.N)
		d := time.Since(t0)
		if art.Err != "" || len(rows) != grid.Points() {
			return d, fmt.Errorf("%s: %d rows, error %q", sc.Name, len(rows), art.Err)
		}
		return d, nil
	}
	for ex := range w.names {
		if _, err := sweep(context.Background(), ex); err != nil {
			sess.Close()
			return nil, err
		}
	}
	return &replayer{
		clients: 2,
		width:   1,
		do:      func(ctx context.Context, i int) (time.Duration, error) { return sweep(ctx, w.seq[i]) },
		busyUs:  func() float64 { return sess.PhaseTotals().TotalUs },
		close:   sess.Close,
	}, nil
}

// layers times, per example: its structural compile (once, as setup
// does), its sweep of the grid through Artifact.Eval with a warmed
// pricer, the mesh simulations at each grid point and the encoding of
// its rows, each counted once per traced op that sent the example.
func (w *latticeWorkload) layers(rec *recorder, lo, hi int) error {
	grid, err := compiled.ParseGrid(latticeGrid)
	if err != nil {
		return err
	}
	count := make([]float64, len(w.names))
	for _, ex := range w.seq[lo:hi] {
		count[ex]++
	}
	pr := compiled.NewPricer()
	for ex := range w.names {
		sc := w.scenario(ex)
		var art *compiled.Artifact
		rec.time("compiled.compile", ex, 0, 1, func() { art = compiled.Compile(sc) })
		grid.Sweep(art, pr, sc.Dist, sc.N) // builds the pricer's templates, as setup does
		rec.time("compiled.eval", ex, 0, count[ex], func() { grid.Sweep(art, pr, sc.Dist, sc.N) })
		for _, row := range w.ref[ex] {
			ms, err := scenarios.ParseMachineSpec(row.Machine)
			if err != nil {
				return err
			}
			price(rec, ex, count[ex], art, ms, sc.Dist, sc.N, row.ElemBytes)
		}
		vals := make([]any, len(w.ref[ex]))
		for i := range w.ref[ex] {
			vals[i] = w.ref[ex][i]
		}
		if err := encode(rec, ex, count[ex], vals...); err != nil {
			return err
		}
	}
	return nil
}
