package main

import (
	"bufio"
	"context"
	"fmt"
	"os"

	"repro/internal/affine"
	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/compiled"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/engine"
	"repro/internal/nestlang"
	"repro/internal/scenarios"
	"repro/internal/store"
)

// latticeConfig is resopt's -lattice mode run locally: one nest,
// compiled once through the engine's plan tier, priced at every point
// of a capacity-planning grid.
type latticeConfig struct {
	grid              string
	example, nestFile string
	m                 int
	noMacro, noDecomp bool
	storeDir          string
}

func runLattice(cfg latticeConfig) {
	grid, err := compiled.ParseGrid(cfg.grid)
	if err != nil {
		fatal(err)
	}
	var prog *affine.Program
	switch {
	case cfg.nestFile != "":
		src, err := os.ReadFile(cfg.nestFile)
		if err != nil {
			fatal(err)
		}
		prog, err = nestlang.Parse(string(src))
		if err != nil {
			fatal(err)
		}
	case cfg.example != "":
		if prog = affine.ExampleByName(cfg.example); prog == nil {
			fatal(fmt.Errorf("unknown example %q (try -list)", cfg.example))
		}
	default:
		prog = affine.PaperExample1()
	}
	sc := &scenarios.Scenario{
		Name:      prog.Name,
		Program:   prog,
		M:         cfg.m,
		Opts:      core.Options{NoMacro: cfg.noMacro, NoDecomposition: cfg.noDecomp},
		Machine:   grid.Machines[0],
		Dist:      distrib.Dist2D{D0: distrib.Block{}, D1: distrib.Block{}},
		N:         16,
		ElemBytes: 64,
	}
	opts := engine.Options{Workers: 1}
	if cfg.storeDir != "" {
		st, err := store.Open(cfg.storeDir)
		if err != nil {
			fatal(err)
		}
		opts.Store = st
	}
	s := engine.NewSession(opts)
	defer s.Close()
	art := s.CompiledArtifact(context.Background(), sc)
	if art.Err != "" {
		fatal(fmt.Errorf("optimization failed: %s", art.Err))
	}
	rows := grid.Sweep(art, s.Pricer(), sc.Dist, sc.N)
	out := &rowWriter{w: bufio.NewWriter(os.Stdout)}
	switches := 0
	for _, row := range rows {
		if row.Switched {
			switches++
		}
		if err := out.write(latticeRowWire(row)); err != nil {
			out.fail(err)
		}
	}
	if err := out.w.Flush(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "lattice: %s over %s: %d points on %d machines, %d switch points\n",
		sc.Name, cfg.grid, len(rows), len(grid.Machines), switches)
}

// latticeRowWire renders a sweep row in the /v1/lattice wire shape, so
// local and remote lattice output are interchangeable downstream.
func latticeRowWire(row compiled.SweepRow) api.LatticeRow {
	return api.LatticeRow{
		Machine:      row.Machine.String(),
		ElemBytes:    row.ElemBytes,
		Classes:      row.Point.Classes,
		Vectorizable: row.Point.Vectorizable,
		ModelTimeUs:  row.Point.ModelTime,
		Collectives:  row.Point.Collectives,
		Switched:     row.Switched,
		SwitchedFrom: row.SwitchedFrom,
	}
}

// rowWriter writes lattice rows as NDJSON through one reused buffer,
// byte for byte what the daemon sends.
type rowWriter struct {
	w   *bufio.Writer
	buf []byte
}

func (o *rowWriter) write(row api.LatticeRow) error {
	var err error
	if o.buf, err = api.AppendLatticeRow(o.buf[:0], &row); err != nil {
		return err
	}
	_, err = o.w.Write(o.buf)
	return err
}

// fail flushes the rows written so far and exits.
func (o *rowWriter) fail(err error) {
	o.w.Flush()
	fatal(err)
}

// remoteLattice streams a lattice sweep from a resoptd daemon: NDJSON
// rows to stdout (buffered, flushed before the summary or a failure),
// the human summary to stderr. Like remoteBatch,
// endpoint failover stops once the first row arrives — a stream that
// dies midway must not restart elsewhere and emit duplicate rows.
func remoteLattice(ctx context.Context, f *remoteFleet, cfg remoteConfig) {
	req := api.LatticeRequest{
		Grid:            cfg.lattice,
		M:               cfg.spec.M,
		NoMacro:         cfg.spec.NoMacro,
		NoDecomposition: cfg.spec.NoDecomposition,
	}
	switch {
	case cfg.example != "":
		req.Example = cfg.example
	case cfg.nestFile != "":
		src, err := os.ReadFile(cfg.nestFile)
		if err != nil {
			fatal(err)
		}
		req.Nest = string(src)
	default:
		req.Example = "example1"
	}
	out := &rowWriter{w: bufio.NewWriter(os.Stdout)}
	var sum *api.LatticeSummary
	streaming := false
	// Shard by nest + grid: a repeat of the same sweep lands on the
	// endpoint whose plan cache is already warm.
	err := f.try(f.order(req.Example+req.Nest+req.Grid), func(c *client.Client) error {
		var err error
		sum, err = c.Lattice(ctx, req, func(row api.LatticeRow) error {
			streaming = true
			return out.write(row)
		})
		if err != nil && streaming {
			out.fail(err)
		}
		return err
	})
	if err != nil {
		out.fail(err)
	}
	if err := out.w.Flush(); err != nil {
		fatal(err)
	}
	s := sum.Summary
	fmt.Fprintf(os.Stderr, "lattice: %s over %s: %d points on %d machines, %d switch points\n",
		s.Name, s.Grid, s.Points, s.Machines, s.Switches)
}
