package intmat

import (
	"strconv"
	"strings"
)

// Key returns a canonical string identity of m: two matrices have the
// same Key iff they have the same shape and entries. It is the cache
// key of the kernel memo (see Kernels); the format is
// "rowsxcols:v00,v01,…" in row-major order.
func (m *Mat) Key() string {
	var b strings.Builder
	b.Grow(8 + 3*len(m.a))
	b.WriteString(strconv.Itoa(m.rows))
	b.WriteByte('x')
	b.WriteString(strconv.Itoa(m.cols))
	b.WriteByte(':')
	for i, v := range m.a {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(v, 10))
	}
	return b.String()
}
