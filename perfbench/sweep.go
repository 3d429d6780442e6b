package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/api"
	"repro/internal/compiled"
	"repro/internal/engine"
	"repro/internal/scenarios"
	"repro/internal/server"
	"repro/internal/store"
)

// sweepWorkload: one client posts the published big-sweep suite (200
// scenarios) as POST /v1/batch, each round to a fresh server over a
// fresh store, so every round does the same cold work: plan
// computation, the mesh cost layer and store writes. The suite is the
// baseline's own spec whatever the run's seed, so every run does the
// same work and the baseline file is the oracle.
type sweepWorkload struct {
	o      options
	n      int
	spec   api.BatchSpec
	base   *store.Snapshot // baselines/big-sweep.json
	lines  [][]api.BatchLine
	lineAt [][]time.Duration // arrival of each line after its request was sent
	st     *stack
	rounds int // stacks started, names the store directories

	count    *counters // set while a traced run counts
	countErr error
}

const sweepRate = 0.8 // nominal rounds/s, sizes the fixed op count

func newSweepWorkload(o options) workload {
	n := max(1, int(sweepRate*float64(o.seconds)/passes+0.5))
	if o.trace {
		n = max(n, 2) // a traced run splits the rounds in two halves
	}
	return &sweepWorkload{o: o, n: n}
}

func (w *sweepWorkload) clients() int { return 1 }
func (w *sweepWorkload) ops() int     { return w.n }

// setup loads the baseline and runs one round, which also checks the
// serving stack end to end before anything is measured.
func (w *sweepWorkload) setup() error {
	base, err := store.ReadSnapshot(filepath.Join(w.o.root, "baselines", "big-sweep.json"))
	if err != nil {
		return err
	}
	if base.Spec == nil {
		return fmt.Errorf("baseline has no recorded spec")
	}
	w.base = base
	w.spec = *base.Spec
	w.lines = make([][]api.BatchLine, w.n)
	w.lineAt = make([][]time.Duration, w.n)
	_, lines, _, err := w.round(context.Background())
	if err != nil {
		return err
	}
	if len(lines) != 200 {
		return fmt.Errorf("warm-up round streamed %d lines, want 200", len(lines))
	}
	return nil
}

// round posts the suite to a fresh stack and returns the request time,
// the lines and each line's arrival time.
func (w *sweepWorkload) round(ctx context.Context) (time.Duration, []api.BatchLine, []time.Duration, error) {
	w.close()
	dir := filepath.Join(w.o.scratch, fmt.Sprintf("sweep-%03d", w.rounds))
	w.rounds++
	var err error
	if w.st, err = startStack(dir, 1); err != nil {
		return 0, nil, nil, err
	}
	lines := make([]api.BatchLine, 0, 200)
	at := make([]time.Duration, 0, 200)
	t0 := time.Now()
	sum, err := w.st.cl.Batch(ctx, w.spec, func(l api.BatchLine) error {
		at = append(at, time.Since(t0))
		lines = append(lines, l)
		return nil
	})
	d := time.Since(t0)
	if err == nil && (sum.Summary.Errors != 0 || sum.Summary.Cancelled) {
		err = fmt.Errorf("batch summary reports %d errors (cancelled %v)", sum.Summary.Errors, sum.Summary.Cancelled)
	}
	if w.count != nil {
		w.tally(ctx)
	}
	return d, lines, at, err
}

func (w *sweepWorkload) do(ctx context.Context, i int) (time.Duration, error) {
	d, lines, at, err := w.round(ctx)
	w.lines[i], w.lineAt[i] = lines, at
	return d, err
}

// samples are the arrival times of every round's lines: p50 is the
// time until half a suite's results have streamed back.
func (w *sweepWorkload) samples() []time.Duration {
	var out []time.Duration
	for _, at := range w.lineAt {
		out = append(out, at...)
	}
	return out
}

// check compares each round's lines with the published baseline.
func (w *sweepWorkload) check() (int, error) {
	bad := 0
	for _, lines := range w.lines {
		if lines != nil && !sameLines(lines, w.base.Results) {
			bad++
		}
	}
	return bad, nil
}

func sameLines(lines []api.BatchLine, want []engine.Result) bool {
	if len(lines) != len(want) {
		return false
	}
	for i, l := range lines {
		r := want[i]
		if l.Name != r.Name || l.Classes != r.Classes || l.Vectorizable != r.Vectorizable ||
			l.ModelTimeUs != r.ModelTime || l.Collectives != r.Collectives || l.Err != r.Err {
			return false
		}
	}
	return true
}

// close stops the current stack; the stores stay in the run's scratch
// directory, which is removed at exit, so no round pays for deleting
// the previous one.
func (w *sweepWorkload) close() { w.st.close(); w.st = nil }

// counted sums what each round's fresh stack counted, read at the end
// of the round, and the bytes its store holds.
func (w *sweepWorkload) counted(fn func()) (counters, error) {
	w.count = &counters{}
	defer func() { w.count = nil }()
	fn()
	return *w.count, w.countErr
}

// tally adds the finished round's counters to w.count.
func (w *sweepWorkload) tally(ctx context.Context) {
	s, err := w.st.cl.Stats(ctx)
	if err != nil {
		w.countErr = err
		return
	}
	c := countersOf(s)
	for _, t := range w.st.store.TierSizes() {
		c.storeBytes += float64(t.Bytes)
	}
	*w.count = w.count.add(c, 1)
}

// replay runs each round as engine.Session.Run on a fresh session over
// a fresh store.
func (w *sweepWorkload) replay() (*replayer, error) {
	suite := scenarios.Generate(server.SpecConfig(w.spec))
	busy := 0.0
	round := func(ctx context.Context, i int) (time.Duration, error) {
		st, err := store.Open(filepath.Join(w.o.scratch, fmt.Sprintf("replay-%03d", i)))
		if err != nil {
			return 0, err
		}
		sess := engine.NewSession(engine.Options{Store: st})
		defer sess.Close()
		t0 := time.Now()
		b, err := sess.Run(ctx, suite)
		d := time.Since(t0)
		busy += sess.PhaseTotals().TotalUs
		if err == nil && b.Errors != 0 {
			err = fmt.Errorf("%d scenarios failed", b.Errors)
		}
		return d, err
	}
	return &replayer{
		clients: 1,
		width:   runtime.GOMAXPROCS(0),
		do:      round,
		busyUs:  func() float64 { return busy },
		close:   func() {},
	}, nil
}

// layers times one round's layer calls, counted once per traced round
// (every round does the same work): the paper core on each distinct
// nest, the mesh simulations of each scenario, writing each plan the
// last round stored into a fresh store, and encoding its lines.
func (w *sweepWorkload) layers(rec *recorder, lo, hi int) error {
	rounds := float64(hi - lo)
	suite := scenarios.Generate(server.SpecConfig(w.spec))
	last, err := store.Open(filepath.Join(w.o.scratch, fmt.Sprintf("sweep-%03d", w.rounds-1)))
	if err != nil {
		return err
	}
	fresh, err := store.Open(filepath.Join(w.o.scratch, "layers"))
	if err != nil {
		return err
	}
	arts := map[string]*compiled.Artifact{}
	for i := range suite {
		sc := &suite[i]
		key := sc.PlanKey()
		art := arts[key]
		if art == nil {
			if err := corePass(rec, i, rounds, "", sc.Program, sc.M); err != nil {
				return fmt.Errorf("%s: %w", sc.Name, err)
			}
			art = compiled.Compile(sc)
			arts[key] = art
			recs, errMsg, ok := last.GetPlan(key)
			if !ok {
				return fmt.Errorf("%s: plan missing from the round's store", sc.Name)
			}
			rec.time("store.put", i, 0, rounds, func() { fresh.PutPlan(key, recs, errMsg) })
		}
		price(rec, i, rounds, art, sc.Machine, sc.Dist, sc.N, sc.ElemBytes)
	}
	lines := w.lines[hi-1]
	vals := make([]any, len(lines))
	for i := range lines {
		vals[i] = lines[i]
	}
	return encode(rec, 0, rounds, vals...)
}
