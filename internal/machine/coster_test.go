package machine

import (
	"math/rand"
	"sync"
	"testing"
)

// randPattern builds a random message set over the mesh, including
// occasional local (Src == Dst) messages and duplicate endpoints.
func randPattern(rng *rand.Rand, m *Mesh2D, n int) []Message {
	msgs := make([]Message, n)
	for i := range msgs {
		src := rng.Intn(m.Procs())
		dst := rng.Intn(m.Procs())
		if rng.Intn(8) == 0 {
			dst = src
		}
		msgs[i] = Message{Src: src, Dst: dst, Bytes: int64(rng.Intn(1 << 14))}
	}
	return msgs
}

// referenceTime is the original map-based contention packer, kept
// verbatim as an oracle independent of CostEval's flat link indexing,
// occupancy words and pooling: one map[linkID]bool per round, paths
// from walkXY.
func referenceTime(m *Mesh2D, msgs []Message) float64 {
	type round struct {
		used     map[linkID]bool
		maxBytes int64
		maxHops  int
	}
	var rounds []*round
	for _, msg := range msgs {
		if msg.Src == msg.Dst {
			continue
		}
		var path []linkID
		m.walkXY(msg.Src, msg.Dst, func(l linkID) { path = append(path, l) })
		placed := false
		for _, r := range rounds {
			free := true
			for _, l := range path {
				if r.used[l] {
					free = false
					break
				}
			}
			if free {
				for _, l := range path {
					r.used[l] = true
				}
				if msg.Bytes > r.maxBytes {
					r.maxBytes = msg.Bytes
				}
				if len(path) > r.maxHops {
					r.maxHops = len(path)
				}
				placed = true
				break
			}
		}
		if !placed {
			r := &round{used: map[linkID]bool{}, maxBytes: msg.Bytes, maxHops: len(path)}
			for _, l := range path {
				r.used[l] = true
			}
			rounds = append(rounds, r)
		}
	}
	total := 0.0
	for _, r := range rounds {
		total += m.Startup + float64(r.maxBytes)*m.PerByte + float64(r.maxHops)*m.HopLatency
	}
	return total
}

// costShapes are the mesh geometries the big-sweep suite and the
// lattice grids price on, plus degenerate and odd shapes.
var costShapes = [][2]int{
	{1, 1}, {1, 8}, {8, 1}, {2, 2}, {3, 5},
	{4, 4}, {8, 8}, {16, 16}, {2, 16}, {16, 2}, {64, 2}, {2, 64},
	{4, 2}, {4, 8}, {4, 16}, {8, 2}, {8, 4}, {8, 16}, {16, 4}, {16, 8},
	{32, 2}, {32, 4}, {32, 8}, {32, 16}, {64, 4}, {64, 8}, {64, 16},
}

// TestCostEvalMatchesTime checks Mesh2D.Time (pooled evaluators) and
// a reused CostEval bit for bit against the reference packer over
// seeded random patterns on every geometry. The geometries interleave
// per trial, so pooled evaluators rebind across mesh shapes.
func TestCostEvalMatchesTime(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	meshes := make([]*Mesh2D, len(costShapes))
	evals := make([]*CostEval, len(costShapes))
	for i, sh := range costShapes {
		meshes[i] = DefaultMesh(sh[0], sh[1])
		evals[i] = NewCostEval(meshes[i])
	}
	for trial := 0; trial < 30; trial++ {
		for _, i := range rng.Perm(len(meshes)) {
			m := meshes[i]
			msgs := randPattern(rng, m, rng.Intn(min(2*m.Procs(), 512)+8))
			want := referenceTime(m, msgs)
			if got := m.Time(msgs); got != want {
				t.Fatalf("mesh %dx%d trial %d: Mesh2D.Time = %v, reference %v", m.P, m.Q, trial, got, want)
			}
			if got := evals[i].Time(msgs); got != want {
				t.Fatalf("mesh %dx%d trial %d: CostEval.Time = %v, reference %v", m.P, m.Q, trial, got, want)
			}
		}
	}
}

// TestCostEvalManyRounds: root-to-all and all-to-root patterns
// serialize on the root's links into hundreds of rounds, spanning
// many 64-round occupancy blocks, and must still pack exactly as the
// reference does.
func TestCostEvalManyRounds(t *testing.T) {
	for _, sh := range [][2]int{{16, 16}, {64, 2}, {2, 64}, {32, 32}} {
		m := DefaultMesh(sh[0], sh[1])
		ev := NewCostEval(m)
		for _, root := range []int{0, m.Procs() / 2} {
			var out, in []Message
			for r := 0; r < m.Procs(); r++ {
				out = append(out, Message{Src: root, Dst: r, Bytes: int64(r)})
				in = append(in, Message{Src: r, Dst: root, Bytes: int64(r)})
			}
			for _, msgs := range [][]Message{out, in, append(append([]Message{}, out...), in...)} {
				if got, want := ev.Time(msgs), referenceTime(m, msgs); got != want {
					t.Fatalf("mesh %dx%d root %d: CostEval.Time = %v, reference %v", m.P, m.Q, root, got, want)
				}
			}
			// A corner root has two out-links, so its fan-out opens at
			// least a round per two destinations: 128 and more on the
			// square meshes, past the first 64-round block.
			if nr := ev.Assign(out, nil); root == 0 && nr < m.Procs()/2 {
				t.Fatalf("mesh %dx%d: corner root-to-all packs into %d rounds, want ≥ %d", m.P, m.Q, nr, m.Procs()/2)
			}
		}
	}
}

// TestMeshTimeConcurrent prices from several goroutines at once, so
// the race detector sees the evaluator pool shared across meshes.
func TestMeshTimeConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 40; trial++ {
				sh := costShapes[rng.Intn(len(costShapes))]
				m := DefaultMesh(sh[0], sh[1])
				msgs := randPattern(rng, m, rng.Intn(64))
				if got, want := m.Time(msgs), referenceTime(m, msgs); got != want {
					t.Errorf("mesh %dx%d: Mesh2D.Time = %v, reference %v", m.P, m.Q, got, want)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestMeshTimeAllocs gates the warm pooled path: pricing a 16x16
// transpose allocates nothing once the pool holds an evaluator. The
// gate runs without -race only (see race_test.go).
func TestMeshTimeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	m := DefaultMesh(16, 16)
	var msgs []Message
	for x := 0; x < m.P; x++ {
		for y := 0; y < m.Q; y++ {
			msgs = append(msgs, Message{Src: m.Rank(x, y), Dst: m.Rank(y, x), Bytes: 64})
		}
	}
	m.Time(msgs)
	if a := testing.AllocsPerRun(100, func() { m.Time(msgs) }); a != 0 {
		t.Fatalf("warm Mesh2D.Time on a 16x16 transpose: %v allocs/op, want 0", a)
	}
}

// TestCostEvalAssign checks the exposed packing: round indices are
// dense and in first-use order, locals get -1, the per-round hop
// maxima match a recomputation, and the partition ignores byte sizes.
func TestCostEvalAssign(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := DefaultMesh(4, 4)
	ev := NewCostEval(m)
	for trial := 0; trial < 30; trial++ {
		msgs := randPattern(rng, m, 40)
		assign := make([]int, len(msgs))
		nr := ev.Assign(msgs, assign)

		// Recompute per-round aggregates from the reported partition.
		hops := make([]int, nr)
		bytes := make([]int64, nr)
		var maxRound int = -1
		for i, msg := range msgs {
			if msg.Src == msg.Dst {
				if assign[i] != -1 {
					t.Fatalf("local message %d assigned round %d", i, assign[i])
				}
				continue
			}
			if assign[i] < 0 || assign[i] >= nr {
				t.Fatalf("message %d assigned out-of-range round %d of %d", i, assign[i], nr)
			}
			if assign[i] > maxRound+1 {
				t.Fatalf("round indices not dense: message %d opens round %d after %d", i, assign[i], maxRound)
			}
			if assign[i] > maxRound {
				maxRound = assign[i]
			}
			h := 0
			m.walkXY(msg.Src, msg.Dst, func(linkID) { h++ })
			if h > hops[assign[i]] {
				hops[assign[i]] = h
			}
			if msg.Bytes > bytes[assign[i]] {
				bytes[assign[i]] = msg.Bytes
			}
		}
		if maxRound+1 != nr {
			t.Fatalf("Assign reported %d rounds, partition uses %d", nr, maxRound+1)
		}
		for i := 0; i < nr; i++ {
			if b, h := ev.Round(i); b != bytes[i] || h != hops[i] {
				t.Fatalf("round %d: Round = (%d B, %d hops), recomputed (%d, %d)", i, b, h, bytes[i], hops[i])
			}
		}

		// Bytes must not influence placement: zero them and repack.
		zeroed := make([]Message, len(msgs))
		for i, msg := range msgs {
			zeroed[i] = Message{Src: msg.Src, Dst: msg.Dst}
		}
		assign2 := make([]int, len(zeroed))
		if nr2 := ev.Assign(zeroed, assign2); nr2 != nr {
			t.Fatalf("byte-zeroed pattern packs into %d rounds, original %d", nr2, nr)
		}
		for i := range assign {
			if assign[i] != assign2[i] {
				t.Fatalf("message %d: round %d with bytes, %d without", i, assign[i], assign2[i])
			}
		}
	}
}
