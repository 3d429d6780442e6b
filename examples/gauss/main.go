// Gauss: map the Gaussian-elimination update nest. The pivot-row and
// pivot-column reads are the classic broadcasts of Section 4.1: the
// example shows their detection, their directions in the processor
// space, and the message-vectorization test of Section 4.5.
package main

import (
	"fmt"
	"log"

	"repro/internal/affine"
	"repro/internal/alignment"
	"repro/internal/core"
	"repro/internal/intmat"
	"repro/internal/macro"
)

func main() {
	prog := affine.Gauss()
	fmt.Print(prog)
	fmt.Println()

	res, err := core.Optimize(prog, 2, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Report())

	// Force the owner-computes mapping M_S = [[0,1,0],[0,0,1]] (the
	// processor owning a(i,j) executes iteration (k,i,j)) and look at
	// the broadcasts explicitly.
	ar, err := alignment.Align(prog, 2, alignment.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ar.Alloc["S"] = intmat.New(2, 3, 0, 1, 0, 0, 0, 1)
	ar.Alloc["a"] = intmat.Identity(2)
	fmt.Println("\nowner-computes mapping: broadcasts in the residual reads")
	for _, c := range ar.Graph.Comms {
		if c.Access.Write {
			continue
		}
		for _, m := range macro.Detect(nil, ar, c) {
			if m.Kind != macro.Broadcast || m.Hidden() {
				continue
			}
			fmt.Printf("  access %d: %s, directions %v, axis-parallel=%v, vectorizable=%v\n",
				c.AccessIdx, m, m.Directions, m.AxisParallel(), macro.Vectorizable(ar, c))
		}
	}
}
