package collective

import "repro/internal/machine"

// The mesh algorithms' schedules are byte-symbolic: which messages a
// round carries depends only on the line structure, and every
// message's payload is an integer-arithmetic function of the total
// payload B — the whole payload (coef 1, div 1), a pipeline segment
// (ceil(B/s)), or a scatter chunk multiple (sub·ceil(B/n)). An
// emitter streams a shape's rounds one at a time, in broadcast order,
// into a sink; a round that repeats back to back is emitted once with
// its repeat count (the scatter-allgather ring's n−1 identical steps).
// The template compiler (template.go) packs each round as it arrives,
// so no schedule is ever stored whole and a repeated round compiles
// once; the template then prices any payload by arithmetic, which is
// how every selection is made. A pipelined chain also describes its
// rounds structurally (shapeVariant.segs), so the compiler can price
// them from the line set's hops without streaming them. Only the
// schedule dumps (Schedule*, MacroSchedule) instantiate a shape into
// concrete messages, expanding the repeats.

// shapeMsg is one byte-symbolic message: at payload B it carries
// coef * ceil(B/div) bytes.
type shapeMsg struct {
	src, dst  int
	coef, div int64
}

// bytes evaluates the message size at a concrete payload.
func (s shapeMsg) bytes(b int64) int64 { return s.coef * ((b + s.div - 1) / s.div) }

// shapeRound is one schedule round in symbolic form.
type shapeRound []shapeMsg

// shapeSink consumes a streamed schedule: a round in broadcast order
// and the number of times (≥ 1) it runs back to back. The round's
// backing array is the emitter's round buffer, reused for the next
// round, so a sink copies whatever it keeps.
type shapeSink func(r shapeRound, rep int)

// shapeEmitter streams a schedule into a sink, building every round
// in buf: the buffer is resliced and grown as needed and returned, so
// a caller that keeps it (the template compiler's scratch) emits the
// next schedule without allocating rounds.
type shapeEmitter func(buf shapeRound, sink shapeSink) shapeRound

// shapeVariant is one candidate schedule of an algorithm. Most
// algorithms emit exactly one; the pipelined chain emits one per
// segment count, applicable when the payload reaches minBytes and
// picked by broadcast cost at evaluation time (algoTemplate.pick).
// emit streams the variant's rounds into a sink; it may be called
// more than once. segs > 0 marks a pipelined chain of that many
// segments over lines (emitChainSeg), whose every round is a window of
// the lines' hops.
type shapeVariant struct {
	minBytes int64
	emit     shapeEmitter
	segs     int
	lines    [][]int
}

// oneVariant wraps an emitter as an algorithm's only candidate.
func oneVariant(emit shapeEmitter) []shapeVariant {
	return []shapeVariant{{emit: emit}}
}

// instantiate materializes a symbolic schedule at a concrete payload
// (broadcast orientation), each repeated round expanded into its own
// copies. The emitter grows its own round buffer.
func instantiate(v shapeVariant, bytes int64) []Round {
	var rounds []Round
	v.emit(nil, func(sr shapeRound, rep int) {
		for ; rep > 0; rep-- {
			r := make(Round, len(sr))
			for j, sm := range sr {
				r[j] = machine.Message{Src: sm.src, Dst: sm.dst, Bytes: sm.bytes(bytes)}
			}
			rounds = append(rounds, r)
		}
	})
	return rounds
}

// ---- shape emitters, one per mesh algorithm ----

// wholePayload is the symbolic form of an unsegmented message.
func wholePayload(src, dst int) shapeMsg { return shapeMsg{src: src, dst: dst, coef: 1, div: 1} }

// shapeFlat is the degenerate root-to-all baseline: every non-root
// processor of each line is served by one message from the line root,
// all posted in a single round (the mesh contention model then
// serializes them on the root's few outgoing links — exactly the old
// naive cost for a total collective).
func shapeFlat(m *machine.Mesh2D, ls [][]int) []shapeVariant {
	return oneVariant(func(r shapeRound, sink shapeSink) shapeRound {
		r = r[:0]
		for _, line := range ls {
			for _, dst := range line[1:] {
				r = append(r, wholePayload(line[0], dst))
			}
		}
		if len(r) > 0 {
			sink(r, 1)
		}
		return r
	})
}

// shapeBisection is the recursive-halving (midpoint) tree: each
// holder sends to the midpoint of its line segment, splitting the
// problem in two every round. The segments of one round map to
// disjoint physical intervals, so — unlike binomial doubling, whose
// same-round paths overlap and serialize — bisection rounds are
// conflict-free wherever the grid extents are powers of two, which
// makes it the cheapest tree on every default mesh.
func shapeBisection(m *machine.Mesh2D, ls [][]int) []shapeVariant {
	return oneVariant(func(r shapeRound, sink shapeSink) shapeRound {
		n := maxLineLen(ls)
		top := 1
		for top < n {
			top *= 2
		}
		for d := top / 2; d >= 1; d /= 2 {
			r = r[:0]
			for _, line := range ls {
				for rel := 0; rel+d < len(line); rel += 2 * d {
					r = append(r, wholePayload(line[rel], line[rel+d]))
				}
			}
			if len(r) > 0 {
				sink(r, 1)
			}
		}
		return r
	})
}

// shapeBinomial is the binomial (recursive doubling) tree: in round
// k every processor that already holds the payload forwards it to
// the partner 2^k line positions away, so n processors are covered
// in ⌈log₂ n⌉ rounds. How well the doubling maps onto the physical
// grid — and how much the round's messages conflict — depends on the
// mesh shape and the line orientation.
func shapeBinomial(m *machine.Mesh2D, ls [][]int) []shapeVariant {
	return oneVariant(func(r shapeRound, sink shapeSink) shapeRound {
		n := maxLineLen(ls)
		for dist := 1; dist < n; dist *= 2 {
			r = r[:0]
			for _, line := range ls {
				for rel := 0; rel < dist && rel+dist < len(line); rel++ {
					r = append(r, wholePayload(line[rel], line[rel+dist]))
				}
			}
			if len(r) > 0 {
				sink(r, 1)
			}
		}
		return r
	})
}

// shapeDimTree is the dimension-ordered tree for total collectives:
// a binomial tree down the root's column first (phase 1, all traffic
// in the x dimension), then concurrent binomial trees along every row
// (phase 2, all traffic in the y dimension). Each phase's messages
// are axis-parallel, so cross-dimension link conflicts never arise.
// Rounds are emitted unconditionally (possibly empty), as this
// algorithm always has.
func shapeDimTree(m *machine.Mesh2D, ls [][]int) []shapeVariant {
	return oneVariant(func(r shapeRound, sink shapeSink) shapeRound {
		root := 0
		if len(ls) > 0 && len(ls[0]) > 0 {
			root = ls[0][0]
		}
		rx, ry := m.Coords(root)
		for dist := 1; dist < m.P; dist *= 2 {
			r = r[:0]
			for rel := 0; rel < dist && rel+dist < m.P; rel++ {
				r = append(r, wholePayload(m.Rank((rx+rel)%m.P, ry), m.Rank((rx+rel+dist)%m.P, ry)))
			}
			sink(r, 1)
		}
		for dist := 1; dist < m.Q; dist *= 2 {
			r = r[:0]
			for x := 0; x < m.P; x++ {
				for rel := 0; rel < dist && rel+dist < m.Q; rel++ {
					r = append(r, wholePayload(m.Rank(x, (ry+rel)%m.Q), m.Rank(x, (ry+rel+dist)%m.Q)))
				}
			}
			sink(r, 1)
		}
		return r
	})
}

// shapeChain is the pipelined chain: the payload is cut into s
// segments that stream down each line, so the last processor finishes
// after n−2+s rounds of neighbor messages instead of waiting for the
// whole payload to traverse every hop. One variant per pipeline depth
// in chainSegments, each applicable from minBytes = s (segments below
// one byte make no sense); the cheapest applicable segmentation for
// the concrete machine and payload wins at pricing time.
func shapeChain(m *machine.Mesh2D, ls [][]int) []shapeVariant {
	if maxLineLen(ls) < 2 {
		return oneVariant(func(r shapeRound, _ shapeSink) shapeRound { return r })
	}
	vs := make([]shapeVariant, 0, len(chainSegments))
	for _, s := range chainSegments {
		v := shapeVariant{segs: s, lines: ls,
			emit: func(r shapeRound, sink shapeSink) shapeRound { return emitChainSeg(ls, s, r, sink) }}
		if s > 1 {
			v.minBytes = int64(s)
		}
		vs = append(vs, v)
	}
	return vs
}

// emitChainSeg streams the chain schedule with exactly s segments,
// building its rounds in r; segment j reaches line position i
// (1-based) in round i−1+j.
func emitChainSeg(ls [][]int, s int, r shapeRound, sink shapeSink) shapeRound {
	n := maxLineLen(ls)
	for t := 0; t < n-1+s-1; t++ {
		r = r[:0]
		for _, line := range ls {
			// Positions i with 0 ≤ t−(i−1) < s carry segment t−(i−1).
			for i := max(1, t-s+2); i <= t+1 && i < len(line); i++ {
				r = append(r, shapeMsg{src: line[i-1], dst: line[i], coef: 1, div: int64(s)})
			}
		}
		if len(r) > 0 {
			sink(r, 1)
		}
	}
	return r
}

// shapeScatterAllgather is the large-payload broadcast: a binomial
// scatter distributes 1/n of the payload across each line in
// ⌈log₂ n⌉ rounds of halving sizes (the sender at position rel hands
// the chunks of [rel+dist, rel+2·dist) to its partner), then a ring
// allgather circulates the chunks in n−1 identical rounds of
// concurrent neighbor messages, emitted once with that repeat count.
// Total traffic is ≈2·bytes per link instead of bytes·n, which wins
// once payloads dwarf startups.
func shapeScatterAllgather(m *machine.Mesh2D, ls [][]int) []shapeVariant {
	return oneVariant(func(r shapeRound, sink shapeSink) shapeRound {
		n := maxLineLen(ls)
		if n < 2 {
			return r
		}
		div := int64(n)
		top := 1
		for top < n {
			top *= 2
		}
		for dist := top / 2; dist >= 1; dist /= 2 {
			r = r[:0]
			for _, line := range ls {
				for rel := 0; rel < len(line); rel += 2 * dist {
					if rel+dist >= len(line) {
						continue
					}
					sub := dist
					if len(line)-(rel+dist) < sub {
						sub = len(line) - (rel + dist)
					}
					r = append(r, shapeMsg{src: line[rel], dst: line[rel+dist], coef: int64(sub), div: div})
				}
			}
			if len(r) > 0 {
				sink(r, 1)
			}
		}
		r = r[:0]
		for _, line := range ls {
			for i := range line {
				r = append(r, shapeMsg{src: line[i], dst: line[(i+1)%len(line)], coef: 1, div: div})
			}
		}
		sink(r, n-1)
		return r
	})
}
