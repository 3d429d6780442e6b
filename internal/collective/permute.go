package collective

import (
	"slices"

	"repro/internal/machine"
)

// Permute algorithms execute an arbitrary aggregated message pattern
// (a residual shift/translation phase: typically one destination per
// sender) on the mesh. "direct" posts every message in one round and
// lets the link-contention model serialize conflicts; "xy-phased"
// store-and-forwards every message at its XY corner, so each phase's
// traffic moves along a single dimension and long crossing paths
// never collide mid-route; "staggered" is the coloring variant for
// high-contention affine phases: messages are 2-colored by source
// diagonal and the colors route through opposite corners (x-first vs
// y-first), so each phase splits its traffic across both dimensions
// instead of funnelling everything through one corner set.
var permuteAlgos = []string{"direct", "xy-phased", "staggered"}

// PermuteAlgorithms lists the shift/translation algorithm names in
// tie-breaking order.
func PermuteAlgorithms() []string { return append([]string(nil), permuteAlgos...) }

// PermuteRounds builds the named permute algorithm's schedule for the
// pattern; unknown names return nil.
func PermuteRounds(m *machine.Mesh2D, msgs []machine.Message, algo string) []Round {
	if !slices.Contains(permuteAlgos, algo) {
		return nil
	}
	var rounds []Round
	for ph := 0; ph < permutePhases(algo); ph++ {
		r := make(Round, 0, len(msgs))
		emitPermutePhase(m, machine.ListStream(msgs), algo, ph, func(msg machine.Message) { r = append(r, msg) })
		if len(r) > 0 || algo == "direct" {
			rounds = append(rounds, r)
		}
	}
	return rounds
}

// permutePhases is the number of schedule rounds the algorithm can
// have: direct posts the pattern as one round, which it keeps even
// when empty; the corner-routing algorithms have two store-and-forward
// phases and drop an empty one.
func permutePhases(algo string) int {
	if algo == "direct" {
		return 1
	}
	return 2
}

// emitPermutePhase streams phase ph of the named permute algorithm
// over the pattern to place. direct posts every message, local ones
// included. xy-phased and staggered both store-and-forward every
// non-local message at a corner: phase 0 carries it to the corner,
// phase 1 on to its destination, and a leg whose ends coincide is
// dropped. xy-phased routes every message x-first through the
// (dx, sy) corner. staggered checkerboard-colors the sources: even
// diagonals (x+y) route x-first, odd ones y-first through the
// (sx, dy) corner, so both phases carry a mix of x- and y-traffic
// from disjoint source sets, which breaks up the single-corner hot
// spots of xy-phased on dense affine patterns.
func emitPermutePhase(m *machine.Mesh2D, pattern machine.Stream, algo string, ph int, place func(machine.Message)) {
	if algo == "direct" {
		pattern(place)
		return
	}
	pattern(func(msg machine.Message) {
		if msg.Src == msg.Dst {
			return
		}
		sx, sy := m.Coords(msg.Src)
		dx, dy := m.Coords(msg.Dst)
		corner := m.Rank(dx, sy)
		if algo == "staggered" && (sx+sy)%2 == 1 {
			corner = m.Rank(sx, dy)
		}
		switch {
		case ph == 0 && corner != msg.Src:
			place(machine.Message{Src: msg.Src, Dst: corner, Bytes: msg.Bytes})
		case ph == 1 && corner != msg.Dst:
			place(machine.Message{Src: corner, Dst: msg.Dst, Bytes: msg.Bytes})
		}
	})
}

// SelectPermute evaluates the permute algorithms on the concrete
// pattern and returns the cheapest (deterministic tie-breaking as in
// SelectMesh). force pins the choice to one named permute algorithm;
// other names (or "") select freely.
func SelectPermute(m *machine.Mesh2D, msgs []machine.Message, force string) Choice {
	best := Choice{Pattern: Shift, Cost: -1}
	for _, name := range permuteAlgos {
		if force != "" && name != force {
			continue
		}
		rounds := PermuteRounds(m, msgs, name)
		cost := MeshCost(m, rounds)
		if best.Cost < 0 || cost < best.Cost {
			best = Choice{Pattern: Shift, Algorithm: name, Cost: cost, Rounds: len(rounds)}
		}
	}
	if best.Cost < 0 {
		return SelectPermute(m, msgs, "")
	}
	return best
}

// PatternTemplate is SelectPermute compiled for one message pattern:
// each permute schedule of the pattern reduced to its contention
// rounds. It is compiled from the pattern at one byte per element —
// every message's Bytes is its element count c — and prices the
// pattern at any element size e, where every message carries c·e
// bytes: the packing reads only paths, so a contention round's largest
// message is maxCount·e, formed as an int64 before the float
// conversion exactly as Mesh2D.Time forms it. Time and SelectPermute
// are therefore bit-identical to Mesh2D.Time and SelectPermute over
// the pattern built at e ≥ 0 on the compiled geometry, allocate
// nothing, and are safe for concurrent use.
type PatternTemplate struct {
	scheds []permuteSched
}

// permuteSched is one permute algorithm's compiled schedule: per
// schedule round, its contention rounds in packing order.
type permuteSched struct {
	name   string
	rounds [][]countRound
}

// countRound is one contention round: its largest element count and
// longest path. int32 holds both: compiling materializes the n×n
// grid's messages, so a count beyond 2^31 never gets this far.
type countRound struct {
	count, hops int32
}

// CompilePattern compiles the pattern's permute schedules at one byte
// per element: all of them for SelectPermute, or only the direct one —
// all Time reads, the pricing of a general communication — when
// direct is set. Each phase is packed as it is streamed, so no
// schedule round is built; the pattern is streamed once per phase.
func CompilePattern(m *machine.Mesh2D, pattern machine.Stream, direct bool) *PatternTemplate {
	algos := permuteAlgos
	if direct {
		algos = algos[:1]
	}
	t := &PatternTemplate{scheds: make([]permuteSched, len(algos))}
	var buf []countRound
	for i, name := range algos {
		s := &t.scheds[i]
		s.name = name
		for ph := 0; ph < permutePhases(name); ph++ {
			buf = buf[:0]
			m.StreamRounds(func(place func(machine.Message)) {
				emitPermutePhase(m, pattern, name, ph, place)
			}, func(maxCount int64, maxHops int) {
				buf = append(buf, countRound{count: int32(maxCount), hops: int32(maxHops)})
			})
			if len(buf) > 0 || name == "direct" {
				s.rounds = append(s.rounds, slices.Clone(buf))
			}
		}
	}
	return t
}

// price folds a schedule at the element size as MeshCost does: each
// schedule round's contention rounds sum to the round's Mesh2D.Time,
// which adds to the running total.
func (s *permuteSched) price(m *machine.Mesh2D, elemBytes int64) float64 {
	total := 0.0
	for _, r := range s.rounds {
		t := 0.0
		for _, c := range r {
			t += m.Startup + float64(int64(c.count)*elemBytes)*m.PerByte + float64(c.hops)*m.HopLatency
		}
		total += t
	}
	return total
}

// Time is m.Time of the pattern at elemBytes per element.
func (t *PatternTemplate) Time(m *machine.Mesh2D, elemBytes int64) float64 {
	return t.scheds[0].price(m, elemBytes)
}

// SelectPermute is SelectPermute over the compiled schedules, with
// the same order, tie-breaking and force fall-back.
func (t *PatternTemplate) SelectPermute(m *machine.Mesh2D, elemBytes int64, force string) Choice {
	best := Choice{Pattern: Shift, Cost: -1}
	for i := range t.scheds {
		s := &t.scheds[i]
		if force != "" && s.name != force {
			continue
		}
		cost := s.price(m, elemBytes)
		if best.Cost < 0 || cost < best.Cost {
			best = Choice{Pattern: Shift, Algorithm: s.name, Cost: cost, Rounds: len(s.rounds)}
		}
	}
	if best.Cost < 0 {
		return t.SelectPermute(m, elemBytes, "")
	}
	return best
}
