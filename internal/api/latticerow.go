package api

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
)

// The /v1/lattice rows are the one hot NDJSON stream of the API: a
// sweep of a few hundred template evaluations costs less than
// encoding/json's reflection over its rows. AppendLatticeRow and
// DecodeLatticeRow are the hand-written codec for LatticeRow, used by
// every writer and reader of the stream; the wire form is exactly
// encoding/json's, so a peer of any version reads and writes the same
// bytes.

// AppendLatticeRow appends r to dst as one NDJSON line: the bytes
// json.NewEncoder(w).Encode(r) writes, in field order, with omitempty,
// encoding/json's float format, HTML-safe string escaping and the
// trailing newline. A NaN or infinite ModelTimeUs is an error, as it
// is for encoding/json, and leaves dst as it was.
func AppendLatticeRow(dst []byte, r *LatticeRow) ([]byte, error) {
	f := r.ModelTimeUs
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	dst = append(dst, `{"machine":`...)
	dst = appendString(dst, r.Machine)
	dst = append(dst, `,"elem_bytes":`...)
	dst = strconv.AppendInt(dst, r.ElemBytes, 10)
	dst = append(dst, `,"classes":[`...)
	for i, c := range r.Classes {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(c), 10)
	}
	dst = append(dst, `],"vectorizable":`...)
	dst = strconv.AppendInt(dst, int64(r.Vectorizable), 10)
	dst = append(dst, `,"model_time_us":`...)
	dst = appendFloat(dst, f)
	if r.Collectives != "" {
		dst = append(dst, `,"collectives":`...)
		dst = appendString(dst, r.Collectives)
	}
	if r.Switched {
		dst = append(dst, `,"switched":true`...)
	}
	if r.SwitchedFrom != "" {
		dst = append(dst, `,"switched_from":`...)
		dst = appendString(dst, r.SwitchedFrom)
	}
	return append(dst, "}\n"...), nil
}

// appendFloat is encoding/json's float64 format: 'f' unless the
// magnitude is below 1e-6 or at least 1e21, then 'e' with a
// two-digit negative exponent shortened (e-07 → e-7).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendString quotes s. Plain printable ASCII other than the quote,
// the backslash and the HTML-escaped <, > and & is written as is;
// any other string goes through encoding/json's own string encoding.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// DecodeLatticeRow decodes one NDJSON line (without its newline) into
// r as json.Unmarshal would into a zero LatticeRow. A line in the form
// AppendLatticeRow writes is scanned directly; every other line (other
// field orders, whitespace, escapes, unknown fields, non-canonical
// numbers) goes to json.Unmarshal, so a peer of another version still
// decodes. A decoded string equal to one r already holds reuses it,
// so a reader that decodes a stream into one row allocates only the
// strings that change from row to row.
func DecodeLatticeRow(line []byte, r *LatticeRow) error {
	if decodeCanonical(line, r) {
		return nil
	}
	*r = LatticeRow{}
	return json.Unmarshal(line, r)
}

// decodeCanonical scans the AppendLatticeRow form into r, reporting
// false, with r untouched, at the first byte outside it.
func decodeCanonical(line []byte, r *LatticeRow) bool {
	c := scanner{b: line, ok: true}
	var row LatticeRow
	c.expect(`{"machine":`)
	row.Machine = c.str(r)
	c.expect(`,"elem_bytes":`)
	row.ElemBytes = c.int(64)
	c.expect(`,"classes":[`)
	for i := range row.Classes {
		if i > 0 {
			c.expect(",")
		}
		row.Classes[i] = int(c.int(strconv.IntSize))
	}
	c.expect(`],"vectorizable":`)
	row.Vectorizable = int(c.int(strconv.IntSize))
	c.expect(`,"model_time_us":`)
	row.ModelTimeUs = c.float()
	if c.lit(`,"collectives":`) {
		row.Collectives = c.str(r)
	}
	row.Switched = c.lit(`,"switched":true`)
	if c.lit(`,"switched_from":`) {
		row.SwitchedFrom = c.str(r)
	}
	c.expect("}")
	if !c.ok || len(c.b) > 0 {
		return false
	}
	*r = row
	return true
}

// scanner is a cursor over a canonical line; ok turns false at the
// first mismatch, and every later step is then a no-op.
type scanner struct {
	b  []byte
	ok bool
}

// lit consumes s if the line continues with it.
func (c *scanner) lit(s string) bool {
	if c.ok && len(c.b) >= len(s) && string(c.b[:len(s)]) == s {
		c.b = c.b[len(s):]
		return true
	}
	return false
}

func (c *scanner) expect(s string) {
	if !c.lit(s) {
		c.ok = false
	}
}

// str consumes a quoted string of plain printable ASCII without
// escapes, reusing an equal string of prev.
func (c *scanner) str(prev *LatticeRow) string {
	if !c.ok || len(c.b) == 0 || c.b[0] != '"' {
		c.ok = false
		return ""
	}
	for i := 1; i < len(c.b); i++ {
		switch ch := c.b[i]; {
		case ch == '"':
			v := c.b[1:i]
			c.b = c.b[i+1:]
			for _, s := range [...]string{prev.Machine, prev.Collectives, prev.SwitchedFrom} {
				if string(v) == s {
					return s
				}
			}
			return string(v)
		case ch < 0x20 || ch > 0x7e || ch == '\\':
			c.ok = false
			return ""
		}
	}
	c.ok = false
	return ""
}

// number consumes a number in JSON's grammar, reporting whether it
// has neither fraction nor exponent.
func (c *scanner) number() (v []byte, integer bool) {
	b, i := c.b, 0
	digits := func() int {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i - j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if digits() == 0 {
		c.ok = false
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		integer = false
		if digits() == 0 {
			c.ok = false
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		integer = false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			c.ok = false
			return nil, false
		}
	}
	v, c.b = b[:i], b[i:]
	return v, integer
}

// int consumes an integer that fits bits; anything else (a fraction,
// an exponent, an overflow) leaves the line to encoding/json.
func (c *scanner) int(bits int) int64 {
	if !c.ok {
		return 0
	}
	v, integer := c.number()
	if !c.ok || !integer {
		c.ok = false
		return 0
	}
	n, err := strconv.ParseInt(string(v), 10, bits)
	if err != nil {
		c.ok = false
	}
	return n
}

// float consumes a number as encoding/json parses a float64.
func (c *scanner) float() float64 {
	if !c.ok {
		return 0
	}
	v, _ := c.number()
	if !c.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(v), 64)
	if err != nil {
		c.ok = false
	}
	return f
}
