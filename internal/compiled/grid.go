package compiled

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/scenarios"
)

// Grid is a parsed capacity-planning lattice: a set of machine
// configurations crossed with a set of per-element payload sizes.
// Sweeps iterate machines in declaration order (outer) and bytes
// ascending (inner), so switch points along the payload axis are
// adjacent rows.
type Grid struct {
	Machines []scenarios.MachineSpec
	Bytes    []int64
}

// Points returns the lattice size.
func (g *Grid) Points() int { return len(g.Machines) * len(g.Bytes) }

// maxGridPoints bounds a single sweep; a lattice past this is almost
// certainly a typo in a range.
const maxGridPoints = 65536

// ParseGrid parses the lattice grammar:
//
//	mesh{4..64}x{2..64}:bytes=1k..16M
//	mesh8x{2,4,8}
//	fattree{32..256}:bytes=64,4k,1M
//
// A machine extent is a bare value, a {a,b,c} list, or a {a..b}
// doubling range (a, 2a, 4a, … ≤ b). The optional :bytes= suffix
// uses the same value/list/doubling forms without braces, with k/M
// suffixes meaning KiB/MiB; it defaults to the suite default payload
// of 64 bytes per element.
func ParseGrid(s string) (*Grid, error) {
	spec := strings.TrimSpace(s)
	g := &Grid{Bytes: []int64{64}}
	if i := strings.Index(spec, ":bytes="); i >= 0 {
		bytesPart := spec[i+len(":bytes="):]
		spec = spec[:i]
		bs, err := expandSizes(bytesPart)
		if err != nil {
			return nil, fmt.Errorf("compiled: bad bytes range %q: %w", bytesPart, err)
		}
		g.Bytes = bs
	}
	switch {
	case strings.HasPrefix(spec, "mesh"):
		rest := spec[len("mesh"):]
		ptok, rest, err := cutExtent(rest)
		if err != nil {
			return nil, fmt.Errorf("compiled: bad mesh grid %q: %w", s, err)
		}
		if !strings.HasPrefix(rest, "x") {
			return nil, fmt.Errorf("compiled: bad mesh grid %q: want meshPxQ extents", s)
		}
		qtok, rest, err := cutExtent(rest[1:])
		if err != nil {
			return nil, fmt.Errorf("compiled: bad mesh grid %q: %w", s, err)
		}
		if rest != "" {
			return nil, fmt.Errorf("compiled: trailing %q in grid %q", rest, s)
		}
		ps, err := expandInts(ptok)
		if err != nil {
			return nil, fmt.Errorf("compiled: bad mesh extent %q: %w", ptok, err)
		}
		qs, err := expandInts(qtok)
		if err != nil {
			return nil, fmt.Errorf("compiled: bad mesh extent %q: %w", qtok, err)
		}
		if err := checkPoints(s, len(ps), len(qs), len(g.Bytes)); err != nil {
			return nil, err
		}
		g.Machines = make([]scenarios.MachineSpec, 0, len(ps)*len(qs))
		for _, p := range ps {
			for _, q := range qs {
				g.Machines = append(g.Machines, scenarios.MachineSpec{Kind: scenarios.Mesh, P: p, Q: q})
			}
		}
	case strings.HasPrefix(spec, "fattree"):
		ptok, rest, err := cutExtent(spec[len("fattree"):])
		if err != nil {
			return nil, fmt.Errorf("compiled: bad fattree grid %q: %w", s, err)
		}
		if rest != "" {
			return nil, fmt.Errorf("compiled: trailing %q in grid %q", rest, s)
		}
		ps, err := expandInts(ptok)
		if err != nil {
			return nil, fmt.Errorf("compiled: bad fattree extent %q: %w", ptok, err)
		}
		if err := checkPoints(s, len(ps), len(g.Bytes)); err != nil {
			return nil, err
		}
		g.Machines = make([]scenarios.MachineSpec, 0, len(ps))
		for _, p := range ps {
			g.Machines = append(g.Machines, scenarios.MachineSpec{Kind: scenarios.FatTree, P: p})
		}
	default:
		return nil, fmt.Errorf(`compiled: bad grid %q (want "mesh..." or "fattree...")`, s)
	}
	for _, ms := range g.Machines {
		nodes := ms.P
		if ms.Kind == scenarios.Mesh {
			nodes = ms.P * ms.Q
		}
		// A runaway extent (mesh{2..1048576}x…) is rejected even when
		// the lattice's point count is small; extents are int32, so the
		// product cannot wrap.
		if nodes > scenarios.MaxMachineNodes {
			return nil, fmt.Errorf("compiled: machine %s in grid %q has %d nodes (max %d)", ms, s, nodes, scenarios.MaxMachineNodes)
		}
	}
	return g, nil
}

// checkPoints rejects a lattice whose axis lengths multiply past
// maxGridPoints. It runs before the machine list is built, so a long
// extent list costs its own length, never the cross product; the
// running product stays within maxGridPoints², so it cannot wrap.
func checkPoints(s string, axes ...int) error {
	n := 1
	for _, a := range axes {
		if a > maxGridPoints/n {
			return fmt.Errorf("compiled: grid %q expands to more than %d points", s, maxGridPoints)
		}
		n *= a
	}
	return nil
}

// cutExtent splits one machine extent — a {…} group or a bare run of
// digits — off the front of s.
func cutExtent(s string) (tok, rest string, err error) {
	if s == "" {
		return "", "", fmt.Errorf("missing extent")
	}
	if s[0] == '{' {
		i := strings.IndexByte(s, '}')
		if i < 0 {
			return "", "", fmt.Errorf("unclosed brace")
		}
		return s[1:i], s[i+1:], nil
	}
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i == 0 {
		return "", "", fmt.Errorf("missing extent")
	}
	return s[:i], s[i:], nil
}

// expandInts expands one extent token: "a..b" doubling, "a,b,c"
// list, or a single value. All values must be positive.
func expandInts(tok string) ([]int, error) {
	var out []int
	add := func(v int64) { out = append(out, int(v)) }
	if err := expandToken(tok, parseInt, add); err != nil {
		return nil, err
	}
	return out, nil
}

// expandSizes is expandInts over byte sizes with k/M suffixes.
func expandSizes(tok string) ([]int64, error) {
	var out []int64
	if err := expandToken(tok, parseSize, func(v int64) { out = append(out, v) }); err != nil {
		return nil, err
	}
	return out, nil
}

// expandToken drives the shared range grammar over a value parser.
func expandToken(tok string, parse func(string) (int64, error), add func(int64)) error {
	if a, b, ok := strings.Cut(tok, ".."); ok {
		lo, err := parse(a)
		if err != nil {
			return err
		}
		hi, err := parse(b)
		if err != nil {
			return err
		}
		if lo > hi {
			return fmt.Errorf("empty range %s..%s", a, b)
		}
		// Stop before doubling past hi: 2v ≤ hi exactly when v ≤ hi/2,
		// and testing that first keeps v from wrapping near MaxInt64.
		for v := lo; ; v *= 2 {
			add(v)
			if v > hi/2 {
				return nil
			}
		}
	}
	for _, part := range strings.Split(tok, ",") {
		v, err := parse(part)
		if err != nil {
			return err
		}
		add(v)
	}
	return nil
}

func parseInt(s string) (int64, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 32)
	if err != nil || v < 1 {
		return 0, fmt.Errorf("bad value %q", s)
	}
	return v, nil
}

// parseSize parses a byte size with an optional k (KiB) or M (MiB)
// suffix.
func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		mult, s = 1024, s[:len(s)-1]
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, s[:len(s)-1]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 1 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	if v > math.MaxInt64/mult {
		return 0, fmt.Errorf("size %q overflows", s)
	}
	return v * mult, nil
}
