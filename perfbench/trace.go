package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/accessgraph"
	"repro/internal/affine"
	"repro/internal/alignment"
	"repro/internal/api"
	"repro/internal/collective"
	"repro/internal/compiled"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/distrib"
	"repro/internal/engine"
	"repro/internal/intmat"
	"repro/internal/machine"
	"repro/internal/macro"
	"repro/internal/nestlang"
	"repro/internal/scenarios"
)

// A traced run (--trace 1) splits the op list in two halves of the same
// mix. The first half runs as in a plain run; the second records a span
// per op, and the gap between the halves' mean op times is the tracing
// overhead. The traced half's ops are then measured at two more
// boundaries: replayed in process through the engine API on a session
// warmed like the server was, and broken down by timing each layer's
// public functions on the same inputs. Counters come from /v1/stats
// around the traced half. Every per-layer figure is per op of the
// traced half, except compiled.compile_ms, which is per setup.

// replayer is an in-process stand-in for the serving stack.
type replayer struct {
	clients int
	do      func(ctx context.Context, i int) (time.Duration, error)
	// width is how many engine workers one op keeps busy: 1 for a
	// single scenario, the pool size for a batch.
	width int
	// busyUs is the engine's own PhaseTotals.TotalUs so far.
	busyUs func() float64
	close  func()
}

// optimizeReplayer replays ops through sess.Optimize: scenario(k) is
// input k as the server builds it, the first warm inputs are sent
// before anything is timed, and op i sends input key(i).
func optimizeReplayer(warm int, scenario func(k int) (*scenarios.Scenario, error), key func(i int) int) (*replayer, error) {
	sess := engine.NewSession(engine.Options{})
	optimize := func(ctx context.Context, k int) (time.Duration, error) {
		sc, err := scenario(k)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		res, err := sess.Optimize(ctx, sc)
		d := time.Since(t0)
		if err == nil && res.Err != "" {
			err = fmt.Errorf("%s: %s", sc.Name, res.Err)
		}
		return d, err
	}
	if err := warmUp(2, warm, func(k int) error {
		_, err := optimize(context.Background(), k)
		return err
	}); err != nil {
		sess.Close()
		return nil, err
	}
	return &replayer{
		clients: 2,
		width:   1,
		do:      func(ctx context.Context, i int) (time.Duration, error) { return optimize(ctx, key(i)) },
		busyUs:  func() float64 { return sess.PhaseTotals().TotalUs },
		close:   sess.Close,
	}, nil
}

// counters are the /v1/stats figures a traced run reads.
type counters struct {
	kernelHits, kernelMisses, kernelDiskHits float64
	planHits, planMisses                     float64
	selectHits, selectMisses                 float64
	tmplHits, tmplMisses, evals              float64
	kernelUs, selectUs, computeUs, costUs    float64
	totalUs                                  float64
	puts, storeBytes                         float64
}

func countersOf(s *api.StatsResponse) counters {
	c := counters{
		kernelHits: float64(s.Cache.KernelHits), kernelMisses: float64(s.Cache.KernelMisses),
		kernelDiskHits: float64(s.Cache.KernelDiskHits),
		planHits:       float64(s.Cache.PlanHits), planMisses: float64(s.Cache.PlanMisses),
		selectHits: float64(s.Cache.SelectHits), selectMisses: float64(s.Cache.SelectMisses),
		tmplHits: float64(s.Cache.CompiledTemplateHits), tmplMisses: float64(s.Cache.CompiledTemplateMisses),
		evals:    float64(s.Cache.CompiledEvals),
		kernelUs: s.Phases.KernelUs, selectUs: s.Phases.SelectUs, computeUs: s.Phases.ComputeUs,
		costUs: s.Phases.CostUs, totalUs: s.Phases.TotalUs,
	}
	if st := s.Store; st != nil {
		c.puts = float64(st.PlanPuts + st.KernelPuts + st.CompiledPuts)
	}
	return c
}

// add returns c + sign·d, field by field.
func (c counters) add(d counters, sign float64) counters {
	return counters{
		c.kernelHits + sign*d.kernelHits, c.kernelMisses + sign*d.kernelMisses, c.kernelDiskHits + sign*d.kernelDiskHits,
		c.planHits + sign*d.planHits, c.planMisses + sign*d.planMisses,
		c.selectHits + sign*d.selectHits, c.selectMisses + sign*d.selectMisses,
		c.tmplHits + sign*d.tmplHits, c.tmplMisses + sign*d.tmplMisses, c.evals + sign*d.evals,
		c.kernelUs + sign*d.kernelUs, c.selectUs + sign*d.selectUs, c.computeUs + sign*d.computeUs,
		c.costUs + sign*d.costUs, c.totalUs + sign*d.totalUs,
		c.puts + sign*d.puts, c.storeBytes + sign*d.storeBytes,
	}
}

// countedStack is counted for the workloads that keep one stack.
func countedStack(st *stack, fn func()) (counters, error) {
	ctx := context.Background()
	before, err := st.cl.Stats(ctx)
	if err != nil {
		return counters{}, err
	}
	fn()
	after, err := st.cl.Stats(ctx)
	if err != nil {
		return counters{}, err
	}
	return countersOf(after).add(countersOf(before), -1), nil
}

// span is one timed call. Weight is how many ops of the traced half the
// call stands for: layer calls run once per distinct input and count
// once per op that sent it.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Parent int     `json:"parent"` // 1-based index of the parent span, 0 for a root
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Self   int64   `json:"self_ns"`
	Weight float64 `json:"weight"`
}

// recorder keeps spans in memory until the run writes them out.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its 1-based id.
func (r *recorder) add(name string, op, parent int, start, end time.Time, weight float64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)), Weight: weight})
	return len(r.spans)
}

// open starts a span whose end close records.
func (r *recorder) open(name string, op int) int {
	return r.add(name, op, 0, time.Now(), time.Now(), 0)
}

func (r *recorder) close(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = int64(time.Since(r.t0))
}

// time runs fn as a span.
func (r *recorder) time(name string, op, parent int, weight float64, fn func()) {
	t0 := time.Now()
	fn()
	r.add(name, op, parent, t0, time.Now(), weight)
}

// finish computes each span's self time: its duration minus the part of
// its interval its children cover.
func (r *recorder) finish() {
	kids := map[int][]int{}
	for i, s := range r.spans {
		if s.Parent > 0 {
			kids[s.Parent-1] = append(kids[s.Parent-1], i)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		cs := kids[i]
		slices.SortFunc(cs, func(a, b int) int { return int(r.spans[a].Start - r.spans[b].Start) })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(r.spans[c].Start, reach), min(r.spans[c].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// perOp returns the weighted self time of the named spans per op, in ms.
func (r *recorder) perOp(name string, ops int) float64 {
	var sum float64
	for _, s := range r.spans {
		if s.Name == name {
			sum += float64(s.Self) * s.Weight
		}
	}
	return sum / 1e6 / float64(ops)
}

// mean returns the mean duration of the named spans, in ms.
func (r *recorder) mean(name string) float64 {
	var sum float64
	n := 0
	for _, s := range r.spans {
		if s.Name == name {
			sum += float64(s.End - s.Start)
			n++
		}
	}
	return sum / 1e6 / float64(max(n, 1))
}

func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traceRun measures the per-layer metrics (see the comment at the top
// of this file) and writes the spans to .bench_build/trace/.
func traceRun(o options, w workload) (*result, error) {
	n := w.ops()
	half := n / 2
	rec := newRecorder()

	runtime.GC()
	plainLat, plainFails, err := drive(w.clients(), 0, half, w.do)
	report(o, plainFails, err)
	var httpFails int
	runtime.GC()
	cnt, err := w.counted(func() {
		var err error
		_, httpFails, err = drive(w.clients(), half, n, func(ctx context.Context, i int) (time.Duration, error) {
			t0 := time.Now()
			d, err := w.do(ctx, i)
			rec.add("http.op", i, 0, t0, t0.Add(d), 1)
			return d, err
		})
		report(o, httpFails, err)
	})
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	wrong, err := w.check()
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	w.close()

	rp, err := w.replay()
	if err != nil {
		return nil, fmt.Errorf("engine replay: %w", err)
	}
	runtime.GC()
	busy0 := rp.busyUs()
	_, engFails, engErr := drive(rp.clients, half, n, func(ctx context.Context, i int) (time.Duration, error) {
		t0 := time.Now()
		d, err := rp.do(ctx, i)
		rec.add("engine.op", i, 0, t0, t0.Add(d), 1)
		return d, err
	})
	replayBusy := (rp.busyUs() - busy0) / 1e3 / float64(n-half)
	rp.close()
	if engFails > 0 {
		return nil, fmt.Errorf("%d engine replay ops failed, the first with %w", engFails, engErr)
	}

	if err := w.layers(rec, half, n); err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}
	rec.finish()
	dir := filepath.Join(o.root, ".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := rec.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(rec.spans), path)

	ops := float64(n - half)
	httpMs, engMs := rec.mean("http.op"), rec.mean("engine.op")
	busy := cnt.totalUs / 1e3 / ops
	m := map[string]metric{}
	for _, l := range []string{"nestlang.parse", "accessgraph.branching", "alignment.align", "macro.detect",
		"decomp.decompose", "core.optimize", "machine.simulate", "collective.permute", "compiled.eval", "store.put", "api.encode"} {
		m[l+"_ms"] = metric{rec.perOp(l, n-half), "ms/op"}
	}
	// Align builds the access graph and its branching itself; report
	// the rest of it.
	m["alignment.align_ms"] = metric{max(0, m["alignment.align_ms"].Value-m["accessgraph.branching_ms"].Value), "ms/op"}
	m["compiled.compile_ms"] = metric{rec.perOp("compiled.compile", 1), "ms"}
	lookups := cnt.kernelHits + cnt.kernelMisses + cnt.kernelDiskHits
	m["intmat.kernel_lookups"] = metric{lookups / ops, "count/op"}
	m["intmat.kernel_hit_ratio"] = metric{ratio(cnt.kernelHits+cnt.kernelDiskHits, lookups), "ratio"}
	m["engine.kernel_ms"] = metric{cnt.kernelUs / 1e3 / ops, "ms/op"}
	m["collective.select_ms"] = metric{cnt.selectUs / 1e3 / ops, "ms/op"}
	m["engine.select_hit_ratio"] = metric{ratio(cnt.selectHits, cnt.selectHits+cnt.selectMisses), "ratio"}
	m["compiled.template_hit_ratio"] = metric{ratio(cnt.tmplHits, cnt.tmplHits+cnt.tmplMisses), "ratio"}
	m["compiled.evals"] = metric{cnt.evals / ops, "count/op"}
	m["store.puts"] = metric{cnt.puts / ops, "count/op"}
	m["store.bytes_written"] = metric{cnt.storeBytes / ops, "B/op"}
	m["engine.plan_hit_ratio"] = metric{ratio(cnt.planHits, cnt.planHits+cnt.planMisses), "ratio"}
	m["engine.busy_ms"] = metric{busy, "ms/op"}
	m["engine.compute_ms"] = metric{cnt.computeUs / 1e3 / ops, "ms/op"}
	m["engine.cost_ms"] = metric{cnt.costUs / 1e3 / ops, "ms/op"}
	m["server.overhead_ms"] = metric{httpMs - engMs, "ms/op"}
	m["engine.unattributed_ms"] = metric{engMs*float64(rp.width) - replayBusy, "ms/op"}
	m["bench.http_ms"] = metric{httpMs, "ms/op"}
	m["bench.engine_ms"] = metric{engMs, "ms/op"}
	m["bench.trace_overhead_pct"] = metric{100 * (httpMs/meanMs(plainLat) - 1), "%"}

	failed := plainFails + httpFails + wrong
	return &result{Correct: failed == 0, Attempted: n, Failed: failed, Metrics: m}, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func meanMs(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / 1e6 / float64(max(len(ds), 1))
}

// corePass times the paper core's public functions on one program, as
// the engine runs them when it computes a plan: parsing (when the
// program came as text), the access graph and its maximum branching,
// alignment, macro detection, the decomposition of each decomposed
// plan's data-flow matrix, and the whole heuristic through
// core.Optimize. The spans hang under one "layers" span per program.
// Kernels are not memoized here, as in a cold engine.
func corePass(rec *recorder, op int, weight float64, text string, p *affine.Program, m int) error {
	root := rec.open("layers", op)
	defer rec.close(root)
	var err error
	if text != "" {
		rec.time("nestlang.parse", op, root, weight, func() { p, err = nestlang.Parse(text) })
		if err != nil {
			return err
		}
	}
	rec.time("accessgraph.branching", op, root, weight, func() {
		var g *accessgraph.Graph
		if g, err = accessgraph.Build(p, m); err == nil {
			g.MaximumBranchingOfGraph()
		}
	})
	if err != nil {
		return err
	}
	var ar *alignment.Result
	rec.time("alignment.align", op, root, weight, func() { ar, err = alignment.Align(p, m, alignment.Options{}) })
	if err != nil {
		return err
	}
	rec.time("macro.detect", op, root, weight, func() { macro.DetectAll(ar) })
	var res *core.Result
	rec.time("core.optimize", op, root, weight, func() { res, err = core.Optimize(p, m, core.Options{}) })
	if err != nil {
		return err
	}
	rec.time("decomp.decompose", op, root, weight, func() {
		for _, pl := range res.Plans {
			if t := pl.Dataflow; pl.Class == core.Decomposed && t != nil && t.Rows() == 2 && t.Det() == 1 {
				decomp.Decompose(t)
			}
		}
	})
	return nil
}

// standInGeneral is the pattern the cost model simulates for a general
// plan without a usable 2×2 data-flow matrix.
var standInGeneral = intmat.New(2, 2, 0, 1, 1, 0)

// price times the work the engine's cost model does at one mesh point
// for a compiled artifact's decomposed and general plans, call by call:
// building each message pattern and simulating it (machine) and
// choosing the permute execution of each decomposition phase
// (collective). Macro plans go through the memoized selection, whose
// time the engine reports itself, and fat trees are priced in closed
// form, so neither is replayed.
func price(rec *recorder, op int, weight float64, art *compiled.Artifact, spec scenarios.MachineSpec, dist distrib.Dist2D, n int, eb int64) {
	if spec.Kind != scenarios.Mesh {
		return
	}
	m := machine.DefaultMesh(spec.P, spec.Q)
	permute := func(t *intmat.Mat, off []int64) {
		var msgs []machine.Message
		rec.time("machine.simulate", op, 0, weight, func() { msgs = machine.AffineComm2D(m, dist, t, off, n, n, eb) })
		rec.time("collective.permute", op, 0, weight, func() { collective.SelectPermute(m, msgs, spec.Algo) })
	}
	for _, pl := range art.Plans {
		switch {
		case pl.Class == core.Decomposed && len(pl.Factors) > 0 && is2x2(pl.Factors[0]):
			for i := len(pl.Factors) - 1; i >= 0; i-- {
				permute(pl.Factors[i], nil)
			}
		case pl.Class == core.Decomposed:
			permute(intmat.Identity(2), []int64{1, 1})
		case pl.Class == core.General:
			t := pl.Dataflow
			if !is2x2(t) {
				t = standInGeneral
			}
			rec.time("machine.simulate", op, 0, weight, func() { m.Time(machine.GeneralComm2D(m, dist, t, nil, n, n, eb)) })
		}
	}
}

func is2x2(m *intmat.Mat) bool { return m != nil && m.Rows() == 2 && m.Cols() == 2 }

// encode times the JSON encoding of one reply's api values.
func encode(rec *recorder, op int, weight float64, vals ...any) error {
	var err error
	rec.time("api.encode", op, 0, weight, func() {
		for _, v := range vals {
			if _, err = json.Marshal(v); err != nil {
				return
			}
		}
	})
	return err
}
