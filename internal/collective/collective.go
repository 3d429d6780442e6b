// Package collective implements software collective-communication
// algorithms over the machine models of package machine, and a
// cost-driven selector that picks the cheapest algorithm for a
// concrete machine instance.
//
// The paper's two-step heuristic trades one general affine
// communication for residual macro-communications — broadcasts,
// reductions and shifts. How expensive that residue really is depends
// entirely on how the runtime schedules it: a root-to-all loop of
// P−1 serialized messages (the 1996 strawman) prices a broadcast at
// Θ(P) startups, while the tree schedules real runtimes of the era
// used (binomial trees on the Paragon, pipelined chains, hardware
// combining on the CM-5) bring it down to Θ(log P) or Θ(P) bytes with
// Θ(1) startups per processor. This package models those schedules
// concretely:
//
//   - every mesh algorithm emits per-round []machine.Message
//     schedules that are priced through Mesh2D.Time, so link
//     contention — the serialization of messages sharing a directed
//     mesh link — is charged exactly as for any other pattern;
//   - the fat tree keeps its hardware combining-network collectives
//     as fixed-cost algorithms the selector can choose, next to
//     software trees over the data network;
//   - Select* evaluates every applicable algorithm against the
//     concrete machine instance and returns the cheapest, with
//     deterministic tie-breaking (first algorithm in registry order
//     wins ties), so repeated selections are byte-identical.
//
// A MachineSpec can pin the selection to one named algorithm (the
// "mesh8x8:flat" spec grammar) for ablations; an algorithm that is
// not applicable to the requested pattern falls back to
// auto-selection.
package collective

import (
	"fmt"

	"repro/internal/machine"
)

// Pattern is the communication shape of a residual collective.
type Pattern int

const (
	// Broadcast moves one payload from a root to every processor.
	Broadcast Pattern = iota
	// Reduction combines one value per processor into a root
	// (scheduled as the exact mirror of a broadcast: reversed rounds
	// with src/dst swapped).
	Reduction
	// Shift is an all-to-all shift (translation): every processor
	// sends its payload to one fixed partner.
	Shift
)

func (p Pattern) String() string {
	switch p {
	case Broadcast:
		return "broadcast"
	case Reduction:
		return "reduction"
	case Shift:
		return "shift"
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// Round is one step of a schedule: the messages posted together.
// Messages within a round may still conflict on links; the mesh cost
// model charges that serialization.
type Round []machine.Message

// Schedule is a concrete message plan for a pattern: rounds of
// machine.Message plus the priced model cost, independent of which
// algorithm or composition built it. Everything the engine charges
// for a collective flows through a Schedule (or, for the fixed-cost
// fat-tree hardware algorithms, a Choice with no software rounds):
// per-line trees, per-plane compositions and machine-spanning totals
// are all just Schedules whose rounds were assembled differently.
type Schedule struct {
	Algorithm string
	Pattern   Pattern
	// Scope names what the schedule spans: "" for a machine-spanning
	// total collective, "axis0"/"axis1" for concurrent per-line trees
	// along one grid dimension, "plane01"/"plane10" for a two-phase
	// per-plane composition (digits give the phase order).
	Scope  string
	Rounds []Round
	// Cost is the model time (µs) of the rounds on the machine the
	// schedule was built for, priced once at construction.
	Cost float64
}

// Choice projects the schedule down to the selector's decision.
func (s *Schedule) Choice() Choice {
	return Choice{Pattern: s.Pattern, Algorithm: s.Algorithm, Scope: s.Scope,
		Cost: s.Cost, Rounds: len(s.Rounds)}
}

// newSchedule assembles and prices a mesh schedule.
func newSchedule(m *machine.Mesh2D, algo string, p Pattern, scope string, rounds []Round) *Schedule {
	return &Schedule{Algorithm: algo, Pattern: p, Scope: scope, Rounds: rounds,
		Cost: MeshCost(m, rounds)}
}

// Choice is the selector's decision for one collective operation.
type Choice struct {
	Pattern   Pattern
	Algorithm string
	// Scope is the schedule scope (see Schedule.Scope; "" for total
	// collectives and the fixed-cost fat-tree algorithms).
	Scope string
	// Cost is the model time (µs) of the chosen schedule.
	Cost float64
	// Rounds is the schedule length (0 for fixed-cost hardware
	// algorithms, which have no software rounds).
	Rounds int
}

// String renders the choice as "pattern=algorithm", or
// "pattern@scope=algorithm" for per-line and per-plane schedules.
func (c Choice) String() string {
	if c.Scope == "" {
		return c.Pattern.String() + "=" + c.Algorithm
	}
	return c.Pattern.String() + "@" + c.Scope + "=" + c.Algorithm
}

// MeshCost prices a schedule on the mesh: each round is one
// contention-scheduled pattern priced by Mesh2D.Time, rounds execute
// back to back.
func MeshCost(m *machine.Mesh2D, rounds []Round) float64 {
	total := 0.0
	for _, r := range rounds {
		total += m.Time(r)
	}
	return total
}

// KnownAlgorithm reports whether name names any algorithm of this
// package (mesh tree, permute or fat-tree), so machine-spec parsing
// can reject typos up front.
func KnownAlgorithm(name string) bool {
	for _, n := range MeshAlgorithms() {
		if n == name {
			return true
		}
	}
	for _, n := range PermuteAlgorithms() {
		if n == name {
			return true
		}
	}
	for _, n := range FatTreeAlgorithms() {
		if n == name {
			return true
		}
	}
	return false
}

// AllAlgorithms returns every algorithm name this package knows, for
// error messages and documentation.
func AllAlgorithms() []string {
	var out []string
	seen := map[string]bool{}
	for _, group := range [][]string{MeshAlgorithms(), PermuteAlgorithms(), FatTreeAlgorithms()} {
		for _, n := range group {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}
