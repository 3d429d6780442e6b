// Command perfbench is the end-to-end benchmark of resoptd. One process
// starts an in-process server on a loopback listener, drives it through
// internal/client with a fixed, seeded list of requests, checks every
// reply against an oracle outside the serving path, and prints the
// metrics as one JSON line. See README.md for the workloads, the
// metrics and why every run does a fixed amount of work.
//
// Usage (from the root of the source tree, through run.sh, which
// builds this package first):
//
//	bash perfbench/run.sh --workload optimize-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// options are the command-line settings of one run.
type options struct {
	root     string // source tree root: holds baselines/ and .bench_build/
	workload string
	seed     int64
	seconds  int
	trace    bool
	scratch  string // per-run directory under .bench_build, removed at exit
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	traceFlag := 0
	fs.StringVar(&o.root, "root", ".", "root of the resopt source tree")
	fs.StringVar(&o.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "nominal length of the measured phase; it sizes the fixed op count")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run printing the per-layer metrics instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	newWorkload, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", o.workload, workloadNames())
		return 2
	}
	// GOMAXPROCS = nproc, as a daemon on this box would run.
	runtime.GOMAXPROCS(runtime.NumCPU())
	dir, err := os.MkdirTemp(filepath.Join(o.root, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch directory: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o.scratch = dir

	res, err := execute(o, newWorkload(o))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one traffic mix. A run sets it up several times (each
// call replaces the previous serving stack and is timed) and after each
// setup drives the fixed op list once against the fresh stack with
// closed-loop clients, then checks the replies.
type workload interface {
	// setup generates the inputs and starts a warmed serving stack.
	// The same seed gives the same inputs and op list every time.
	setup() error
	// clients is the number of closed-loop clients.
	clients() int
	// ops is the fixed number of operations in one pass.
	ops() int
	// do performs op i and returns its latency sample.
	do(ctx context.Context, i int) (time.Duration, error)
	// check compares the replies recorded since the last setup with
	// the workload's oracle and returns how many ops answered wrongly.
	check() (int, error)
	// close stops the serving stack.
	close()

	// The rest serve the traced run (trace.go).

	// counted runs fn, which drives ops, and returns what the serving
	// stacks counted meanwhile.
	counted(fn func()) (counters, error)
	// replay prepares an in-process engine session warmed as the
	// server was after setup; its do performs op i through the engine
	// API.
	replay() (*replayer, error)
	// layers times the layer functions on the inputs of ops [lo, hi),
	// recording spans in rec.
	layers(rec *recorder, lo, hi int) error
}

// sampler is implemented by workloads whose latency percentiles are
// taken over finer samples than whole ops (sweep: one per NDJSON line).
// The samples of a pass come in the same order, and as many, in every
// pass.
type sampler interface{ samples() []time.Duration }

var workloads = map[string]func(options) workload{
	"optimize-cold": newColdWorkload,
	"optimize-warm": newWarmWorkload,
	"sweep":         newSweepWorkload,
	"lattice":       newLatticeWorkload,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// passes is how many times a run sets its stack up and sends the op
// list through it. Each time metric is the median over the passes of
// the pass's figure scaled to the reference host (probe.go).
const passes = 10

// execute runs one workload end to end and assembles its result.
func execute(o options, w workload) (*result, error) {
	defer w.close()
	if o.trace {
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		return traceRun(o, w)
	}

	n := w.ops()
	var setups, rates, p50s, p90s, slows []float64
	var alloc uint64
	failed := 0
	// A pass is scaled by the probes before and after it; each probe
	// after a pass is also the one before the next.
	pre := probe()
	for p := 0; p < passes; p++ {
		// Each setup starts as from a fresh process: the previous
		// stack is stopped and collected outside the timed interval.
		w.close()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setup := time.Since(t0)

		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		lat, fails, err := drive(w.clients(), 0, n, w.do)
		runtime.ReadMemStats(&after)
		report(o, fails, err)
		alloc += after.TotalAlloc - before.TotalAlloc
		post := probe()
		wrong, err := w.check()
		if err != nil {
			return nil, fmt.Errorf("check: %w", err)
		}
		failed += fails + wrong

		// slow is how much slower than the reference host this one ran
		// around the pass.
		slow := float64(pre+post) / 2 / float64(probeRef)
		slows = append(slows, slow)
		pre = post
		// Closed-loop clients are always busy, so the pass's
		// throughput is clients ÷ mean latency (Little's law); unlike
		// the pass's wall time it leaves out the stack a sweep round
		// starts before it sends its batch.
		var sum time.Duration
		for _, d := range lat {
			sum += d
		}
		samples := lat
		if s, ok := w.(sampler); ok {
			samples = s.samples()
		}
		setups = append(setups, setup.Seconds()/slow)
		rates = append(rates, float64(w.clients())*float64(n)/sum.Seconds()*slow)
		p50s = append(p50s, quantile(samples, 0.50)/slow)
		p90s = append(p90s, quantile(samples, 0.90)/slow)
	}
	// The serving stack's live heap is what stopping it frees; the
	// benchmark's own inputs and replies stay live across both reads.
	withStack := liveHeap()
	w.close()
	stackHeap := float64(withStack) - float64(liveHeap())
	slow := median(slows)
	fmt.Fprintf(os.Stderr, "perfbench: %s: the host ran %.2f× as long as the reference host; unscaled, about: setup %.4g s, %.4g ops/s, p50 %.4g ms, p90 %.4g ms\n",
		o.workload, slow, median(setups)*slow, median(rates)/slow, median(p50s)*slow, median(p90s)*slow)
	attempted := n * passes
	return &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":         {median(setups), "s"},
			"ops_per_s":       {median(rates), "1/s"},
			"p50_ms":          {median(p50s), "ms"},
			"p90_ms":          {median(p90s), "ms"},
			"heap_live_mb":    {stackHeap / (1 << 20), "MB"},
			"alloc_kb_per_op": {float64(alloc) / 1024 / float64(attempted), "KB"},
		},
	}, nil
}

// liveHeap returns the live heap in bytes. The second GC frees what the
// first left in sync.Pool victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// drive runs ops lo..hi-1 on the given number of closed-loop clients:
// each client takes the next op index and sends its request only after
// the previous reply. Every op in the list runs exactly once whatever
// the timing, so a run's work is fixed. It returns each op's latency,
// indexed from lo, the number of ops that failed and the first error.
func drive(clients, lo, hi int, do func(ctx context.Context, i int) (time.Duration, error)) ([]time.Duration, int, error) {
	lat := make([]time.Duration, hi-lo)
	var next, fails atomic.Int64
	next.Store(int64(lo))
	var first error
	var once sync.Once
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				d, err := do(ctx, i)
				lat[i-lo] = d
				if err != nil {
					fails.Add(1)
					once.Do(func() { first = fmt.Errorf("op %d: %w", i, err) })
				}
			}
		}()
	}
	wg.Wait()
	return lat, int(fails.Load()), first
}

// report prints a failed op count and the first failure to stderr.
func report(o options, fails int, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d ops failed, the first with %v\n", o.workload, fails, err)
	}
}

// warmUp sends requests 0..n-1 on the given number of closed-loop
// clients and returns the first error.
func warmUp(clients, n int, send func(i int) error) error {
	_, _, err := drive(clients, 0, n, func(_ context.Context, i int) (time.Duration, error) { return 0, send(i) })
	return err
}

// quantile returns the q-quantile of the samples in milliseconds,
// interpolating linearly between order statistics.
func quantile(samples []time.Duration, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	v := float64(s[lo]) + (pos-float64(lo))*float64(s[hi]-s[lo])
	return v / 1e6
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
