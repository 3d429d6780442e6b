package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/affine"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/scenarios"
	"repro/internal/validate"
)

// coldNest is one optimize-cold request: a fresh seeded nest and the
// wire text that carries it.
type coldNest struct {
	prog    *affine.Program
	text    string
	m       int
	machine string
}

// coldNests draws n nests from seed: even indices are RandomNest with
// m = 2, odd ones RandomDeepNest with m = 3, on fattree32 and
// fattree64 in turn. Names carry the index, so no two nests of a run
// share a plan key.
func coldNests(seed int64, n int) ([]coldNest, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]coldNest, n)
	for i := range out {
		name := fmt.Sprintf("n%05d", i)
		cn := coldNest{m: 2, machine: "fattree32"}
		if i%2 == 0 {
			cn.prog = scenarios.RandomNest(rng, name)
		} else {
			cn.prog, cn.m = scenarios.RandomDeepNest(rng, name), 3
		}
		if i/2%2 == 1 {
			cn.machine = "fattree64"
		}
		text, err := renderNest(cn.prog)
		if err != nil {
			return nil, err
		}
		cn.text = text
		out[i] = cn
	}
	return out, nil
}

// coldWorkload: every request is a nest the server has never seen, so
// every op computes the paper's heuristic from scratch.
type coldWorkload struct {
	o       options
	n       int
	nests   []coldNest // warm-up nests first, then the measured ones
	st      *stack
	replies []*api.OptimizeResponse
	want    []coldWant // the oracle's answer per measured nest, once computed
}

// coldWant is what a direct core.Optimize says a reply must hold.
type coldWant struct {
	name                                            string
	local, macro, decomposed, general, vectorizable int
	valid                                           bool // the alignment passed validate.Check, or was not sampled
}

const (
	coldRate   = 650 // nominal ops/s, sizes the fixed op count
	coldWarmup = 200 // warm-up requests, distinct from the measured nests
)

func newColdWorkload(o options) workload {
	return &coldWorkload{o: o, n: coldRate * o.seconds / passes}
}

func (w *coldWorkload) clients() int { return 2 }
func (w *coldWorkload) ops() int     { return w.n }

func (w *coldWorkload) setup() error {
	w.close()
	nests, err := coldNests(w.o.seed, coldWarmup+w.n)
	if err != nil {
		return err
	}
	w.nests = nests
	if w.st, err = startStack("", 2); err != nil {
		return err
	}
	w.replies = make([]*api.OptimizeResponse, w.n)
	return warmUp(2, coldWarmup, func(i int) error {
		_, err := w.st.cl.Optimize(context.Background(), w.request(i))
		return err
	})
}

func (w *coldWorkload) request(i int) api.OptimizeRequest {
	cn := &w.nests[i]
	return api.OptimizeRequest{Nest: cn.text, M: cn.m, Machine: cn.machine}
}

func (w *coldWorkload) do(ctx context.Context, i int) (time.Duration, error) {
	t0 := time.Now()
	resp, err := w.st.cl.Optimize(ctx, w.request(coldWarmup+i))
	d := time.Since(t0)
	w.replies[i] = resp
	return d, err
}

// check compares the class counts and vectorizable count of every
// reply with a direct core.Optimize of the same nest (no engine, no
// caches, no wire); every 16th alignment is also put through
// validate.Check's brute-force locality enumeration. The seed gives the
// same nests after every setup, so the oracle runs once per run.
func (w *coldWorkload) check() (int, error) {
	if w.want == nil {
		w.want = make([]coldWant, w.n)
		countFalse(w.n, func(i int) bool {
			cn := &w.nests[coldWarmup+i]
			res, err := core.Optimize(cn.prog, cn.m, core.Options{})
			if err != nil {
				return false
			}
			c := res.Counts()
			want := coldWant{name: cn.prog.Name, local: c[core.Local], macro: c[core.MacroComm],
				decomposed: c[core.Decomposed], general: c[core.General], valid: true}
			for _, pl := range res.Plans {
				if pl.Vectorizable {
					want.vectorizable++
				}
			}
			if i%16 == 0 {
				want.valid = validate.Check(res.Align, 3) == nil
			}
			w.want[i] = want
			return true
		})
	}
	return countFalse(w.n, func(i int) bool {
		resp, want := w.replies[i], &w.want[i]
		if resp == nil {
			return true // already counted as a failed op
		}
		return want.valid && resp.Name == want.name && resp.Local == want.local && resp.Macro == want.macro &&
			resp.Decomposed == want.decomposed && resp.General == want.general && resp.Vectorizable == want.vectorizable
	}), nil
}

func (w *coldWorkload) close() { w.st.close(); w.st = nil }

// countFalse evaluates ok(i) for i in [0, n) on GOMAXPROCS goroutines
// and counts the indices where it is false.
func countFalse(n int, ok func(i int) bool) int {
	var bad atomic.Int64
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < n; i += workers {
				if !ok(i) {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(bad.Load())
}

// blockBlock is the distribution a single-nest request gets.
var blockBlock = distrib.Dist2D{D0: distrib.Block{}, D1: distrib.Block{}}

// scenario is nest k as the server builds it from the request: the
// request defaults N = 16 and 64-byte elements.
func (w *coldWorkload) scenario(k int) (*scenarios.Scenario, error) {
	cn := &w.nests[k]
	ms, err := scenarios.ParseMachineSpec(cn.machine)
	if err != nil {
		return nil, err
	}
	return &scenarios.Scenario{Name: cn.prog.Name, Program: cn.prog, M: cn.m, Machine: ms, Dist: blockBlock, N: 16, ElemBytes: 64}, nil
}

func (w *coldWorkload) counted(fn func()) (counters, error) { return countedStack(w.st, fn) }

func (w *coldWorkload) replay() (*replayer, error) {
	return optimizeReplayer(coldWarmup, w.scenario, func(i int) int { return coldWarmup + i })
}

// coldLayerStride: the layer pass times every fourth op's nest and
// counts it four times.
const coldLayerStride = 4

func (w *coldWorkload) layers(rec *recorder, lo, hi int) error {
	for i := lo; i < hi; i += coldLayerStride {
		weight := float64(min(coldLayerStride, hi-i))
		cn := &w.nests[coldWarmup+i]
		if err := corePass(rec, i, weight, cn.text, nil, cn.m); err != nil {
			return fmt.Errorf("%s: %w", cn.prog.Name, err)
		}
		if err := encode(rec, i, weight, w.replies[i]); err != nil {
			return err
		}
	}
	return nil
}
