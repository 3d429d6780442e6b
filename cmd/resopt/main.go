// Command resopt runs the paper's two-step residual-communication
// optimization on an affine loop nest and prints the mapping report:
// allocation matrices, local communications, macro-communications
// (with axis-alignment rotations) and decompositions.
//
//	resopt -example example1          # a built-in example nest
//	resopt -nest mynest.txt           # a nest in the DSL of nestlang
//	resopt -m 2                       # target grid dimension
//	resopt -list                      # list built-in examples
//
// Batch mode runs the concurrent optimization engine over a
// generated scenario suite (built-in examples plus random nests,
// crossed with machine models and distributions) and prints the
// aggregated report:
//
//	resopt -batch                     # default 100-scenario suite
//	resopt -batch -random 40 -seed 3  # bigger suite, different nests
//	resopt -batch -deep 10 -m 3 -skew # deep nests, m=3, skewed grids
//	resopt -batch -workers 1          # sequential baseline
//	resopt -batch -no-cache           # memo-cache ablation
//
// Lattice mode answers the capacity-planning question — how does the
// optimized nest price across machine sizes and payload scales, and
// where does the best collective schedule switch? The nest is
// compiled once (the structural phase); every grid point is then
// priced by cheap template evaluation, so wide sweeps cost
// milliseconds instead of one full optimization per point:
//
//	resopt -lattice "mesh{4..64}x{2..64}:bytes=1k..16M" -example matmul
//	resopt -lattice "fattree{32..256}" -nest mynest.txt
//	resopt -remote http://localhost:8080 -lattice "mesh{4..32}x8:bytes=1k..32M"
//
// Rows stream as NDJSON to stdout (machines in declaration order,
// payloads ascending), switch points flagged in place; the summary
// goes to stderr.
//
// The persistent plan store makes repeated sweeps
// compile-once/reuse-many across processes, and snapshots make them
// diffable across commits and re-runnable by name:
//
//	resopt -batch -store ./plans                  # warm the store
//	resopt -batch -store ./plans                  # ≥90% served from disk
//	resopt -batch -emit json -o after.json        # persist the results
//	resopt -batch -store ./plans -snapshot after  # ... or into the store
//	resopt -batch -store ./plans -from-snapshot after  # re-run + diff it
//	resopt -diff before.json after.json           # exit 1 on regressions
//	resopt -store ./plans -gc -gc-age 720h        # collect stale plans
//
// Remote mode drives a resoptd daemon over its /v1 API with the Go
// client instead of optimizing locally:
//
//	resopt -remote http://localhost:8080 -example matmul
//	resopt -remote http://localhost:8080 -batch -random 20 -o lines.ndjson
//	resopt -remote http://localhost:8080 -batch -snapshot nightly
//	resopt -remote http://localhost:8080 -batch -from-snapshot nightly
//	resopt -remote http://localhost:8080 -snapshots
//	resopt -remote http://localhost:8080 -stats
//	resopt -remote http://localhost:8080 -stats -cluster
//
// -remote also takes a comma-separated endpoint list for a resoptd
// cluster: requests are routed to a consistent endpoint per nest (the
// client-side shard map, so repeat requests hit the same daemon's
// cache) and fail over to the remaining endpoints when it is down.
// Transient failures (429, 502/503/504, connection errors) are
// retried with backoff, bounded by -retries:
//
//	resopt -remote http://hostA:8080,http://hostB:8080 -example matmul
//	resopt -remote http://hostA:8080,http://hostB:8080 -stats
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/affine"
	"repro/internal/api"
	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/nestlang"
	"repro/internal/scenarios"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	example := flag.String("example", "", "built-in example name")
	nestFile := flag.String("nest", "", "path to a nest description file")
	m := flag.Int("m", 2, "dimension of the target virtual processor grid")
	list := flag.Bool("list", false, "list built-in examples")
	noMacro := flag.Bool("no-macro", false, "disable macro-communication detection")
	noDecomp := flag.Bool("no-decomp", false, "disable communication decomposition")
	batch := flag.Bool("batch", false, "run the batch engine over a generated scenario suite")
	lattice := flag.String("lattice", "", `sweep the nest over a capacity-planning grid (e.g. "mesh{4..64}x{2..64}:bytes=1k..16M"): compiled once, every point priced by template evaluation; NDJSON rows to stdout, summary to stderr`)
	random := flag.Int("random", 0, "batch: number of random nests (0: default)")
	deep := flag.Int("deep", 0, "batch: number of deep (depth 4-5) random nests")
	skew := flag.Bool("skew", false, "batch: add skewed machine grids to the suite")
	bigMeshes := flag.Bool("big-meshes", false, "batch: add the 64x2/2x64/16x16 meshes where collective tree shape matters")
	seed := flag.Int64("seed", 0, "batch: scenario generation seed (0: default)")
	workers := flag.Int("workers", 0, "batch: worker pool size (0: GOMAXPROCS)")
	noCache := flag.Bool("no-cache", false, "batch: disable the memo cache")
	cacheCap := flag.Int("cache-cap", 0, "batch: in-memory cache entry cap (0: default, <0: unbounded)")
	storeDir := flag.String("store", "", "directory of the persistent plan store")
	snapshot := flag.String("snapshot", "", "batch: save the results as a named snapshot (in the -store, or remotely)")
	fromSnapshot := flag.String("from-snapshot", "", "batch: re-run the suite recorded under this snapshot name and diff against it")
	emit := flag.String("emit", "", "batch: also emit the results as \"json\" or \"csv\"")
	outFile := flag.String("o", "", "batch: write the -emit output (or remote NDJSON lines) to this file (default stdout)")
	diff := flag.Bool("diff", false, "compare two snapshots (args: paths, or names with -store); exit 1 on regressions")
	remote := flag.String("remote", "", "drive the resoptd daemon at this base URL over /v1 instead of optimizing locally; a comma-separated list shards and fails over across a cluster")
	snapshots := flag.Bool("snapshots", false, "remote: list the daemon's stored snapshots")
	stats := flag.Bool("stats", false, "remote: print the daemon's /v1/stats, including its cluster node view")
	clusterStats := flag.Bool("cluster", false, "remote -stats: print the fleet-wide /v1/cluster/stats aggregation instead (per-member snapshots + rollup)")
	retries := flag.Int("retries", 2, "remote: retry budget for transient failures (429, 502/503/504, connection errors; 0: no retries)")
	gc := flag.Bool("gc", false, "store: sweep the plan tier (needs -store and -gc-age and/or -gc-keep)")
	gcAge := flag.Duration("gc-age", 0, "gc: remove plans unused for longer than this (0: no age limit)")
	gcKeep := flag.Int("gc-keep", 0, "gc: keep at most this many plans, least recently used removed first (0: no count limit)")
	gcDryRun := flag.Bool("gc-dry-run", false, "gc: report what would be removed without removing it")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("resopt"))
		return
	}

	if *diff {
		runDiff(*storeDir, flag.Args())
		return
	}

	if *gc {
		runGC(*storeDir, store.GCOptions{MaxAge: *gcAge, MaxPlans: *gcKeep, DryRun: *gcDryRun})
		return
	}

	if *list {
		for _, p := range affine.AllExamples() {
			fmt.Println(p.Name)
		}
		return
	}

	if *remote != "" {
		runRemote(remoteConfig{
			base:         *remote,
			batch:        *batch,
			lattice:      *lattice,
			snapshots:    *snapshots,
			stats:        *stats,
			clusterStats: *clusterStats,
			retries:      *retries,
			example:      *example,
			nestFile:     *nestFile,
			outFile:      *outFile,
			saveAs:       *snapshot,
			fromSnapshot: *fromSnapshot,
			spec: api.BatchSpec{
				Seed:            *seed,
				Random:          *random,
				Deep:            *deep,
				Skew:            *skew,
				BigMeshes:       *bigMeshes,
				M:               *m,
				NoMacro:         *noMacro,
				NoDecomposition: *noDecomp,
			},
			m: *m,
		})
		return
	}

	if *lattice != "" {
		runLattice(latticeConfig{
			grid:     *lattice,
			example:  *example,
			nestFile: *nestFile,
			m:        *m,
			noMacro:  *noMacro,
			noDecomp: *noDecomp,
			storeDir: *storeDir,
		})
		return
	}

	if *batch {
		runBatch(batchConfig{
			spec: api.BatchSpec{
				Seed:            *seed,
				Random:          *random,
				Deep:            *deep,
				Skew:            *skew,
				BigMeshes:       *bigMeshes,
				M:               *m,
				NoMacro:         *noMacro,
				NoDecomposition: *noDecomp,
			},
			workers:      *workers,
			noCache:      *noCache,
			cacheCap:     *cacheCap,
			storeDir:     *storeDir,
			snapshot:     *snapshot,
			fromSnapshot: *fromSnapshot,
			emit:         *emit,
			outFile:      *outFile,
		})
		return
	}

	var prog *affine.Program
	switch {
	case *nestFile != "":
		src, err := os.ReadFile(*nestFile)
		if err != nil {
			fatal(err)
		}
		prog, err = nestlang.Parse(string(src))
		if err != nil {
			fatal(err)
		}
	case *example != "":
		if prog = affine.ExampleByName(*example); prog == nil {
			fatal(fmt.Errorf("unknown example %q (try -list)", *example))
		}
	default:
		prog = affine.PaperExample1()
	}

	if err := report(os.Stdout, prog, *m, core.Options{NoMacro: *noMacro, NoDecomposition: *noDecomp}); err != nil {
		fatal(err)
	}
}

// report optimizes one nest and writes its mapping report to w. The
// heuristic runs behind the engine's recover boundary, so a nest that
// overflows the paper core is an "internal error: …" like any other
// failure, not a crash.
func report(w io.Writer, prog *affine.Program, m int, opts core.Options) error {
	res, err := engine.Optimize(context.Background(), nil, prog, m, opts)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s", prog, res.Report())
	return err
}

type batchConfig struct {
	spec                   api.BatchSpec
	workers                int
	noCache                bool
	cacheCap               int
	storeDir               string
	snapshot, fromSnapshot string
	emit, outFile          string
}

func runBatch(cfg batchConfig) {
	// Flag validation first: a sweep can take minutes, so a typo must
	// fail before the run, not discard its results after.
	switch cfg.emit {
	case "", "json", "csv":
	default:
		fatal(fmt.Errorf("unknown -emit format %q (want json or csv)", cfg.emit))
	}
	if cfg.snapshot != "" && cfg.storeDir == "" {
		fatal(fmt.Errorf("-snapshot requires -store"))
	}
	if cfg.fromSnapshot != "" && cfg.storeDir == "" {
		fatal(fmt.Errorf("-from-snapshot requires -store (or -remote)"))
	}
	if cfg.outFile != "" && cfg.emit == "" {
		fatal(fmt.Errorf("-o requires -emit json|csv"))
	}
	if cfg.noCache && cfg.storeDir != "" {
		// The disk tier hangs off the memory cache (memory → disk →
		// compute); without the cache nothing would be read or
		// persisted, so fail loudly instead of silently skipping it.
		fatal(fmt.Errorf("-no-cache disables the plan cache the store extends; drop -store or -no-cache"))
	}
	var out *os.File
	if cfg.emit != "" && cfg.outFile != "" {
		f, err := os.Create(cfg.outFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	opts := engine.Options{Workers: cfg.workers, DisableCache: cfg.noCache, CacheCap: cfg.cacheCap}
	var st *store.Store
	if cfg.storeDir != "" {
		var err error
		st, err = store.Open(cfg.storeDir)
		if err != nil {
			fatal(err)
		}
		opts.Store = st
	}

	// Resolve the suite spec: -from-snapshot replays the spec recorded
	// in the store, exactly like the server's snapshot resolver.
	spec := cfg.spec
	var baseline *store.Snapshot
	if cfg.fromSnapshot != "" {
		snap, err := st.LoadSnapshot(cfg.fromSnapshot)
		if err != nil {
			fatal(err)
		}
		if snap.Spec == nil {
			fatal(fmt.Errorf("snapshot %q predates spec recording and cannot be re-run by name", cfg.fromSnapshot))
		}
		baseline = snap
		spec = *snap.Spec
		spec.Snapshot, spec.SaveAs = "", ""
	}
	suite := scenarios.Generate(server.SpecConfig(spec))
	res := engine.Run(suite, opts)
	// When the snapshot itself goes to stdout, the human report moves
	// to stderr so the emitted stream stays machine-parseable.
	report := os.Stdout
	if cfg.emit != "" && cfg.outFile == "" {
		report = os.Stderr
	}
	fmt.Fprint(report, res.Report())

	snap := store.Take(res)
	snap.Spec = &spec
	if cfg.snapshot != "" {
		path, err := st.SaveSnapshot(cfg.snapshot, snap)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(report, "snapshot saved to %s\n", path)
	}
	if cfg.emit != "" {
		var w io.Writer = os.Stdout
		if out != nil {
			w = out
		}
		var err error
		if cfg.emit == "json" {
			err = snap.WriteJSON(w)
		} else {
			err = snap.WriteCSV(w)
		}
		if err != nil {
			fatal(err)
		}
	}
	if baseline != nil {
		d := store.Compare(baseline, snap)
		fmt.Fprint(report, d.Report())
		if d.Regressions > 0 {
			os.Exit(1)
		}
	}
}

// runGC sweeps the plan store.
func runGC(storeDir string, opts store.GCOptions) {
	if storeDir == "" {
		fatal(fmt.Errorf("-gc requires -store"))
	}
	if opts.MaxAge <= 0 && opts.MaxPlans <= 0 {
		fatal(fmt.Errorf("-gc needs -gc-age and/or -gc-keep (it would remove nothing)"))
	}
	st, err := store.Open(storeDir)
	if err != nil {
		fatal(err)
	}
	res, err := st.GC(opts)
	if err != nil {
		fatal(err)
	}
	mode := ""
	if opts.DryRun {
		mode = " (dry run)"
	}
	fmt.Printf("gc%s: scanned %d plans, removed %d (%d aged out, %d over LRU cap, %d stale temp), kept %d, freed %d bytes\n",
		mode, res.Scanned, res.Removed(), res.RemovedAge, res.RemovedLRU, res.RemovedTemp, res.Kept, res.BytesFreed)
	for _, w := range st.Warnings() {
		fmt.Fprintln(os.Stderr, "resopt: gc warning:", w)
	}
}

// runDiff loads two snapshots — file paths, or names inside the
// -store directory — and reports their scenario-by-scenario diff.
func runDiff(storeDir string, args []string) {
	if len(args) != 2 {
		fatal(fmt.Errorf("-diff needs exactly two snapshot arguments, got %d", len(args)))
	}
	var st *store.Store
	if storeDir != "" {
		var err error
		st, err = store.Open(storeDir)
		if err != nil {
			fatal(err)
		}
	}
	load := func(arg string) *store.Snapshot {
		if _, err := os.Stat(arg); err == nil {
			s, err := store.ReadSnapshot(arg)
			if err != nil {
				fatal(err)
			}
			return s
		}
		if st != nil {
			s, err := st.LoadSnapshot(arg)
			if err != nil {
				fatal(err)
			}
			return s
		}
		fatal(fmt.Errorf("snapshot %q: no such file (use -store to resolve names)", arg))
		return nil
	}
	d := store.Compare(load(args[0]), load(args[1]))
	fmt.Print(d.Report())
	if d.Regressions > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	// Remote failures carry the server-side trace ID: print it so the
	// failure can be looked up under /debug/traces/{id} on the daemon's
	// ops listener.
	var ae *api.Error
	if errors.As(err, &ae) && ae.TraceID != "" {
		fmt.Fprintf(os.Stderr, "resopt: %v [trace %s]\n", err, ae.TraceID)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "resopt:", err)
	os.Exit(1)
}
