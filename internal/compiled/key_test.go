package compiled

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/machine"
)

// TestTemplateKeyDistinct is the key-collision property test for the
// template cache: any difference in mode, geometry, pattern, dims or
// force must produce a distinct key, or the pricer would serve one
// structure for another.
func TestTemplateKeyDistinct(t *testing.T) {
	type in struct {
		mode  templateMode
		p, q  int
		pat   collective.Pattern
		dims  []int
		force string
	}
	ins := []in{}
	for _, mode := range []templateMode{modeTotal, modeDim, modeMacro} {
		for _, sh := range [][2]int{{4, 4}, {4, 2}, {2, 4}, {16, 16}} {
			for _, pat := range []collective.Pattern{collective.Broadcast, collective.Reduction} {
				for _, dims := range [][]int{nil, {0}, {1}, {0, 0}, {0, 1}, {1, 0}, {0, 2}} {
					for _, force := range []string{"", "flat", "chain"} {
						ins = append(ins, in{mode, sh[0], sh[1], pat, dims, force})
					}
				}
			}
		}
	}
	seen := map[templateKey]in{}
	for _, c := range ins {
		k := newTemplateKey(c.mode, &machine.Mesh2D{P: c.p, Q: c.q}, c.pat, c.dims, c.force)
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision %+v:\n  %+v\n  %+v", k, prev, c)
		}
		seen[k] = c
	}
}
