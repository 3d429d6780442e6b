package collective

import "repro/internal/machine"

// The mesh algorithms' schedules are byte-symbolic: which messages a
// round carries depends only on the line structure, and every
// message's payload is an integer-arithmetic function of the total
// payload B — the whole payload (coef 1, div 1), a pipeline segment
// (ceil(B/s)), or a scatter chunk multiple (sub·ceil(B/n)). The shape
// is emitted once per (algorithm, line set) and compiled into a
// template (template.go), which prices any payload by arithmetic;
// that is how every selection is made. Only the schedule dumps
// (Schedule*, MacroSchedule) instantiate a shape into concrete
// messages.

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

// shapeVariant is one candidate schedule of an algorithm. Most
// algorithms emit exactly one; the pipelined chain emits one per
// segment count, applicable when the payload reaches minBytes and
// picked by broadcast cost at evaluation time (algoTemplate.pick).
type shapeVariant struct {
	minBytes int64
	rounds   []shapeRound
}

// instantiate materializes a symbolic schedule at a concrete payload
// with exact-size allocations (broadcast orientation).
func instantiate(shapes []shapeRound, bytes int64) []Round {
	if len(shapes) == 0 {
		return nil
	}
	rounds := make([]Round, len(shapes))
	for i, sr := range shapes {
		r := make(Round, len(sr))
		for j, sm := range sr {
			r[j] = machine.Message{Src: sm.src, Dst: sm.dst, Bytes: sm.bytes(bytes)}
		}
		rounds[i] = r
	}
	return rounds
}

// evaluator bundles the reusable compilation scratch for one mesh:
// the flat-state contention evaluator whose byte-independent packing
// partitions each round, plus message and round-assignment buffers
// shared across rounds and templates.
type evaluator struct {
	ev  *machine.CostEval
	buf []machine.Message
	asg []int
}

func newEvaluator(m *machine.Mesh2D) *evaluator {
	return &evaluator{ev: machine.NewCostEval(m)}
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
	n := 0
	for _, line := range ls {
		if len(line) > 1 {
			n += len(line) - 1
		}
	}
	if n == 0 {
		return []shapeVariant{{}}
	}
	r := make(shapeRound, 0, n)
	for _, line := range ls {
		for _, dst := range line[1:] {
			r = append(r, wholePayload(line[0], dst))
		}
	}
	return []shapeVariant{{rounds: []shapeRound{r}}}
}

// shapeBisection is the recursive-halving (midpoint) tree: each
// holder sends to the midpoint of its line segment, splitting the
// problem in two every round. The segments of one round map to
// disjoint physical intervals, so — unlike binomial doubling, whose
// same-round paths overlap and serialize — bisection rounds are
// conflict-free wherever the grid extents are powers of two, which
// makes it the cheapest tree on every default mesh.
func shapeBisection(m *machine.Mesh2D, ls [][]int) []shapeVariant {
	n := maxLineLen(ls)
	top := 1
	for top < n {
		top *= 2
	}
	var rounds []shapeRound
	for d := top / 2; d >= 1; d /= 2 {
		var r shapeRound
		for _, line := range ls {
			for rel := 0; rel+d < len(line); rel += 2 * d {
				r = append(r, wholePayload(line[rel], line[rel+d]))
			}
		}
		if len(r) > 0 {
			rounds = append(rounds, r)
		}
	}
	return []shapeVariant{{rounds: rounds}}
}

// shapeBinomial is the binomial (recursive doubling) tree: in round
// k every processor that already holds the payload forwards it to
// the partner 2^k line positions away, so n processors are covered
// in ⌈log₂ n⌉ rounds. How well the doubling maps onto the physical
// grid — and how much the round's messages conflict — depends on the
// mesh shape and the line orientation.
func shapeBinomial(m *machine.Mesh2D, ls [][]int) []shapeVariant {
	n := maxLineLen(ls)
	var rounds []shapeRound
	for dist := 1; dist < n; dist *= 2 {
		var r shapeRound
		for _, line := range ls {
			for rel := 0; rel < dist && rel+dist < len(line); rel++ {
				r = append(r, wholePayload(line[rel], line[rel+dist]))
			}
		}
		if len(r) > 0 {
			rounds = append(rounds, r)
		}
	}
	return []shapeVariant{{rounds: rounds}}
}

// shapeDimTree is the dimension-ordered tree for total collectives:
// a binomial tree down the root's column first (phase 1, all traffic
// in the x dimension), then concurrent binomial trees along every row
// (phase 2, all traffic in the y dimension). Each phase's messages
// are axis-parallel, so cross-dimension link conflicts never arise.
// Rounds append unconditionally (possibly empty), as this algorithm
// always has.
func shapeDimTree(m *machine.Mesh2D, ls [][]int) []shapeVariant {
	root := 0
	if len(ls) > 0 && len(ls[0]) > 0 {
		root = ls[0][0]
	}
	rx, ry := m.Coords(root)
	var rounds []shapeRound
	for dist := 1; dist < m.P; dist *= 2 {
		var r shapeRound
		for rel := 0; rel < dist && rel+dist < m.P; rel++ {
			r = append(r, wholePayload(m.Rank((rx+rel)%m.P, ry), m.Rank((rx+rel+dist)%m.P, ry)))
		}
		rounds = append(rounds, r)
	}
	for dist := 1; dist < m.Q; dist *= 2 {
		var r shapeRound
		for x := 0; x < m.P; x++ {
			for rel := 0; rel < dist && rel+dist < m.Q; rel++ {
				r = append(r, wholePayload(m.Rank(x, (ry+rel)%m.Q), m.Rank(x, (ry+rel+dist)%m.Q)))
			}
		}
		rounds = append(rounds, r)
	}
	return []shapeVariant{{rounds: rounds}}
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
		return []shapeVariant{{}}
	}
	vs := make([]shapeVariant, 0, len(chainSegments))
	for _, s := range chainSegments {
		v := shapeVariant{rounds: shapeChainSeg(ls, s)}
		if s > 1 {
			v.minBytes = int64(s)
		}
		vs = append(vs, v)
	}
	return vs
}

// shapeChainSeg: the chain schedule with exactly s segments; segment
// j reaches line position i (1-based) in round i−1+j.
func shapeChainSeg(ls [][]int, s int) []shapeRound {
	n := maxLineLen(ls)
	var rounds []shapeRound
	for t := 0; t < n-1+s-1; t++ {
		// Each line carries at most one message per in-flight segment.
		r := make(shapeRound, 0, len(ls)*min(s, n-1))
		for _, line := range ls {
			for i := 1; i < len(line); i++ {
				j := t - (i - 1)
				if j < 0 || j >= s {
					continue
				}
				r = append(r, shapeMsg{src: line[i-1], dst: line[i], coef: 1, div: int64(s)})
			}
		}
		if len(r) > 0 {
			rounds = append(rounds, r)
		}
	}
	return rounds
}

// shapeScatterAllgather is the large-payload broadcast: a binomial
// scatter distributes 1/n of the payload across each line in
// ⌈log₂ n⌉ rounds of halving sizes (the sender at position rel hands
// the chunks of [rel+dist, rel+2·dist) to its partner), then a ring
// allgather circulates the chunks in n−1 rounds of concurrent
// neighbor messages. Total traffic is ≈2·bytes per link instead of
// bytes·n, which wins once payloads dwarf startups.
func shapeScatterAllgather(m *machine.Mesh2D, ls [][]int) []shapeVariant {
	n := maxLineLen(ls)
	if n < 2 {
		return []shapeVariant{{}}
	}
	div := int64(n)
	top := 1
	for top < n {
		top *= 2
	}
	var rounds []shapeRound
	for dist := top / 2; dist >= 1; dist /= 2 {
		var r shapeRound
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
			rounds = append(rounds, r)
		}
	}
	for t := 0; t < n-1; t++ {
		r := make(shapeRound, 0, len(ls)*n)
		for _, line := range ls {
			for i := range line {
				r = append(r, shapeMsg{src: line[i], dst: line[(i+1)%len(line)], coef: 1, div: div})
			}
		}
		rounds = append(rounds, r)
	}
	return []shapeVariant{{rounds: rounds}}
}
