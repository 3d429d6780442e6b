package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/affine"
	"repro/internal/api"
	"repro/internal/compiled"
	"repro/internal/scenarios"
)

// warmMachines, warmSizes and warmPayloads span the optimize-warm
// pool: every built-in example on each machine, at each grid extent
// and each element payload from 64 B to 1 MiB.
var (
	warmMachines = []string{"fattree32", "fattree64", "mesh4x4", "mesh8x8", "mesh16x16", "mesh64x2", "mesh2x64", "mesh2x16"}
	warmSizes    = []int{16, 32}
)

func warmPayloads() []int64 {
	var out []int64
	for b := int64(64); b <= 1<<20; b *= 2 {
		out = append(out, b)
	}
	return out
}

// warmPool lists the optimize-warm requests, 2400 of them.
func warmPool() []api.OptimizeRequest {
	var pool []api.OptimizeRequest
	for _, ex := range affine.AllExamples() {
		for _, m := range warmMachines {
			for _, n := range warmSizes {
				for _, eb := range warmPayloads() {
					pool = append(pool, api.OptimizeRequest{Example: ex.Name, Machine: m, N: n, ElemBytes: eb})
				}
			}
		}
	}
	return pool
}

// warmWorkload: a fixed pool of requests, all answered once during
// setup, so every measured request is a plan-tier and a
// selection-memo hit.
type warmWorkload struct {
	o     options
	n     int
	pool  []api.OptimizeRequest
	ref   []api.OptimizeResponse // setup reply per pool entry, phases stripped
	seq   []int                  // pool index of each measured op
	st    *stack
	wrong atomic.Int64
}

const warmRate = 3000 // nominal ops/s, sizes the fixed op count

func newWarmWorkload(o options) workload {
	return &warmWorkload{o: o, n: warmRate * o.seconds / passes}
}

func (w *warmWorkload) clients() int { return 2 }
func (w *warmWorkload) ops() int     { return w.n }

func (w *warmWorkload) setup() error {
	w.close()
	w.pool = warmPool()
	rng := rand.New(rand.NewSource(w.o.seed))
	w.seq = make([]int, w.n)
	for i := range w.seq {
		w.seq[i] = rng.Intn(len(w.pool))
	}
	var err error
	if w.st, err = startStack("", 2); err != nil {
		return err
	}
	w.ref = make([]api.OptimizeResponse, len(w.pool))
	w.wrong.Store(0)
	return warmUp(2, len(w.pool), func(i int) error {
		resp, err := w.st.cl.Optimize(context.Background(), w.pool[i])
		if err != nil {
			return err
		}
		resp.Phases = nil
		w.ref[i] = *resp
		return nil
	})
}

// do sends one pooled request and compares the reply, minus its
// per-request phase timings, with the setup reply for the same key.
func (w *warmWorkload) do(ctx context.Context, i int) (time.Duration, error) {
	k := w.seq[i]
	t0 := time.Now()
	resp, err := w.st.cl.Optimize(ctx, w.pool[k])
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if resp.Phases == nil || resp.Phases.PlanSource != "memory" {
		return d, fmt.Errorf("%+v: plan not served from memory", w.pool[k])
	}
	resp.Phases = nil
	if *resp != w.ref[k] {
		w.wrong.Add(1)
	}
	return d, nil
}

func (w *warmWorkload) check() (int, error) { return int(w.wrong.Load()), nil }

func (w *warmWorkload) close() { w.st.close(); w.st = nil }

// scenario is pool entry k as the server builds it from the request.
func (w *warmWorkload) scenario(k int) (*scenarios.Scenario, error) {
	req := w.pool[k]
	ms, err := scenarios.ParseMachineSpec(req.Machine)
	if err != nil {
		return nil, err
	}
	prog := exampleNamed(req.Example)
	return &scenarios.Scenario{Name: prog.Name, Program: prog, M: 2, Machine: ms, Dist: blockBlock, N: req.N, ElemBytes: req.ElemBytes}, nil
}

func exampleNamed(name string) *affine.Program {
	for _, p := range affine.AllExamples() {
		if p.Name == name {
			return p
		}
	}
	return nil
}

func (w *warmWorkload) counted(fn func()) (counters, error) { return countedStack(w.st, fn) }

func (w *warmWorkload) replay() (*replayer, error) {
	return optimizeReplayer(len(w.pool), w.scenario, func(i int) int { return w.seq[i] })
}

// layers prices each pool entry the ops sent once, counted as often as
// it was sent.
func (w *warmWorkload) layers(rec *recorder, lo, hi int) error {
	count := map[int]int{}
	for _, k := range w.seq[lo:hi] {
		count[k]++
	}
	arts := map[string]*compiled.Artifact{}
	for k := range w.pool {
		c := count[k]
		if c == 0 {
			continue
		}
		sc, err := w.scenario(k)
		if err != nil {
			return err
		}
		art := arts[sc.Name]
		if art == nil {
			art = compiled.Compile(sc)
			arts[sc.Name] = art
		}
		price(rec, k, float64(c), art, sc.Machine, sc.Dist, sc.N, sc.ElemBytes)
		if err := encode(rec, k, float64(c), w.ref[k]); err != nil {
			return err
		}
	}
	return nil
}
