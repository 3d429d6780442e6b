package api

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// encoderLine is the reference: what json.Encoder writes for r.
func encoderLine(r *LatticeRow) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(r)
	return buf.Bytes(), err
}

// codecRows are rows on both sides of every branch of the appender:
// omitted and present optional fields, both float formats and their
// boundaries, and strings inside and outside the plain-ASCII path.
var codecRows = []LatticeRow{
	{Machine: "mesh4x8", ElemBytes: 1024, Classes: [4]int{1, 0, 2, 0}, Vectorizable: 1, ModelTimeUs: 1234.5678901234567, Collectives: "broadcast@row=chain"},
	{Machine: "mesh32x8", ElemBytes: 1 << 25, Classes: [4]int{0, 3, 0, 1}, ModelTimeUs: 2.5e6, Collectives: "broadcast@row=scatter-allgather", Switched: true, SwitchedFrom: "broadcast@row=chain"},
	{Machine: "fattree64", ElemBytes: 1, ModelTimeUs: 0},
	{ModelTimeUs: math.Copysign(0, -1)},
	{ModelTimeUs: 1e-6},
	{ModelTimeUs: 9.99e-7},
	{ModelTimeUs: 1e-7},
	{ModelTimeUs: -1.5e-10},
	{ModelTimeUs: 1e-100},
	{ModelTimeUs: 5e-324},
	{ModelTimeUs: 1e21},
	{ModelTimeUs: 999999999999999900000},
	{ModelTimeUs: -1.7976931348623157e308},
	{ElemBytes: math.MinInt64, Classes: [4]int{math.MaxInt, math.MinInt, -1, 0}, Vectorizable: -7},
	{Machine: `a"b\c`, Collectives: "<script>&amp;</script>", SwitchedFrom: "tab\there\nnl"},
	{Machine: "ünïcode", Collectives: "\u2028\u2029", SwitchedFrom: "\x7f"},
	{Machine: "bad\xffutf8\xc3", Collectives: "\x00\x01\x1f"},
	{Switched: true},
}

// TestAppendLatticeRowMatchesEncoder: the appender writes exactly the
// encoder's bytes, and errors exactly where it does.
func TestAppendLatticeRowMatchesEncoder(t *testing.T) {
	rows := append(codecRows,
		LatticeRow{ModelTimeUs: math.NaN()},
		LatticeRow{ModelTimeUs: math.Inf(1)},
		LatticeRow{ModelTimeUs: math.Inf(-1)},
	)
	prefix := []byte("kept")
	for _, r := range rows {
		want, werr := encoderLine(&r)
		got, err := AppendLatticeRow(prefix, &r)
		if (err != nil) != (werr != nil) {
			t.Fatalf("%+v: error %v, encoding/json %v", r, err, werr)
		}
		if !bytes.HasPrefix(got, prefix) {
			t.Fatalf("%+v: prefix clobbered: %q", r, got)
		}
		if err != nil {
			if string(got) != string(prefix) || err.Error() != werr.Error() {
				t.Errorf("%+v: got %q, %v; want %q, %v", r, got, err, prefix, werr)
			}
			continue
		}
		if got := got[len(prefix):]; !bytes.Equal(got, want) {
			t.Errorf("%+v:\n got %s\nwant %s", r, got, want)
		}
	}
}

// checkDecode fails unless DecodeLatticeRow errors exactly when
// json.Unmarshal into a zero row does, and otherwise decodes the same
// row bit for bit. The row decoded into starts out holding prev, so
// left-over fields and reused strings are checked too.
func checkDecode(t *testing.T, line []byte, prev LatticeRow) {
	t.Helper()
	var want LatticeRow
	werr := json.Unmarshal(line, &want)
	got := prev
	err := DecodeLatticeRow(line, &got)
	if (err != nil) != (werr != nil) {
		t.Fatalf("%q: error %v, json.Unmarshal %v", line, err, werr)
	}
	if werr == nil && (got != want || math.Float64bits(got.ModelTimeUs) != math.Float64bits(want.ModelTimeUs)) {
		t.Fatalf("%q:\n got %+v\nwant %+v", line, got, want)
	}
}

// hostileLines are valid and invalid lines outside the canonical form:
// each must decode as json.Unmarshal decodes it.
var hostileLines = []string{
	`{"elem_bytes":2,"machine":"mesh4x4","classes":[1,2,3,4],"vectorizable":1,"model_time_us":3}`,
	` {"machine":"m","elem_bytes":1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1} `,
	`{"machine" : "m","elem_bytes":1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1}`,
	`{"machine":"m\u0041\n","elem_bytes":1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1}`,
	`{"machine":"m","elem_bytes":1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1,"extra":[1,{"a":null}]}`,
	`{"machine":"m","elem_bytes":01,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1}`,
	`{"machine":"m","elem_bytes":+1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1}`,
	`{"machine":"m","elem_bytes":1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":.5}`,
	`{"machine":"m","elem_bytes":1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1.}`,
	`{"machine":"m","elem_bytes":1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":0x1p-2}`,
	`{"machine":"m","elem_bytes":9223372036854775808,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1}`,
	`{"machine":"m","elem_bytes":-9223372036854775809,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1}`,
	`{"machine":"m","elem_bytes":1,"classes":[99999999999999999999,0,0,0],"vectorizable":0,"model_time_us":1}`,
	`{"machine":"m","elem_bytes":1e3,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1}`,
	`{"machine":"m","elem_bytes":1.0,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1}`,
	`{"machine":"m","elem_bytes":1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1e400}`,
	`{"machine":"m","elem_bytes":1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1e-400}`,
	`{"machine":"m","elem_bytes":1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":-0}`,
	`{"machine":"m","elem_bytes":1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1E+2}`,
	`{"machine":"m","elem_bytes":1,"classes":[0,0,0],"vectorizable":0,"model_time_us":1}`,
	`{"machine":"m","elem_bytes":1,"classes":[0,0,0,0,5],"vectorizable":0,"model_time_us":1}`,
	`{"machine":"m","elem_bytes":1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1,"switched":false}`,
	`{"machine":"m","elem_bytes":1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1,"switched":true,"switched":false}`,
	`{"machine":"m","elem_bytes":1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1,"collectives":""}`,
	`{"MACHINE":"m","elem_bytes":1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1}`,
	`{"machine":null,"elem_bytes":null,"classes":null,"vectorizable":0,"model_time_us":1}`,
	`{"machine":"m","elem_bytes":1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1}{}`,
	`{"machine":"m","elem_bytes":1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1`,
	`{"machine":"m","elem_bytes":1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":-}`,
	`{"machine":"m","elem_bytes":1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1e}`,
	`{"machine":"m` + "\xff" + `","elem_bytes":1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1}`,
	`{"machine":"m` + "\t" + `","elem_bytes":1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1}`,
	`{"machine":"<&>","elem_bytes":1,"classes":[0,0,0,0],"vectorizable":0,"model_time_us":1}`,
	`{}`,
	`[]`,
	`null`,
	``,
}

// TestDecodeLatticeRow: canonical lines (every codec row, appended)
// take the fast path and hostile ones fall back, both decoding as
// json.Unmarshal does.
func TestDecodeLatticeRow(t *testing.T) {
	prev := LatticeRow{Machine: "m", Collectives: "left over", Switched: true, SwitchedFrom: "x", ModelTimeUs: 7}
	for _, r := range codecRows {
		line, err := AppendLatticeRow(nil, &r)
		if err != nil {
			t.Fatal(err)
		}
		line = bytes.TrimSuffix(line, []byte("\n"))
		// Every line without an escape is in the scanned form.
		if fast := decodeCanonical(line, &LatticeRow{}); fast == bytes.Contains(line, []byte(`\`)) {
			t.Errorf("%s: fast path %v", line, fast)
		}
		checkDecode(t, line, LatticeRow{})
		checkDecode(t, line, prev)
	}
	for _, s := range hostileLines {
		checkDecode(t, []byte(s), LatticeRow{})
		checkDecode(t, []byte(s), prev)
	}
}

// TestDecodeLatticeRowAllocs: a canonical row allocates only its
// strings, and none of the strings the row decoded into already holds.
func TestDecodeLatticeRowAllocs(t *testing.T) {
	r := codecRows[1]
	line, _ := AppendLatticeRow(nil, &r)
	line = bytes.TrimSuffix(line, []byte("\n"))
	if !decodeCanonical(line, &LatticeRow{}) {
		t.Fatalf("%s: not canonical", line)
	}
	var got LatticeRow
	fresh := testing.AllocsPerRun(100, func() {
		got = LatticeRow{}
		DecodeLatticeRow(line, &got)
	})
	if fresh > 3 {
		t.Errorf("fresh row: %.0f allocs, want ≤ 3 (its strings)", fresh)
	}
	reused := testing.AllocsPerRun(100, func() { DecodeLatticeRow(line, &got) })
	if reused != 0 {
		t.Errorf("reused row: %.0f allocs, want 0", reused)
	}
}

// FuzzLatticeRow checks the codec against encoding/json, which it
// shares no code with on the fast paths:
//   - the row built from the fuzzed fields appends as json.Marshal
//     plus a newline, or both error;
//   - the fuzzed line, and the appended one, decode as json.Unmarshal
//     decodes them, or both error.
//
// The seed corpus (testdata/fuzz/FuzzLatticeRow) holds real rows of
// CI's lattice grid, e-notation and non-finite times, hostile strings
// and hostile lines.
//
//	go test -run '^$' -fuzz FuzzLatticeRow -fuzztime 60s ./internal/api
func FuzzLatticeRow(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte, machine string, elemBytes int64, c0, c1, c2, c3, vectorizable int,
		modelTime float64, collectives string, switched bool, switchedFrom string) {
		r := LatticeRow{
			Machine: machine, ElemBytes: elemBytes, Classes: [4]int{c0, c1, c2, c3},
			Vectorizable: vectorizable, ModelTimeUs: modelTime,
			Collectives: collectives, Switched: switched, SwitchedFrom: switchedFrom,
		}
		got, err := AppendLatticeRow(nil, &r)
		want, werr := json.Marshal(&r)
		if (err != nil) != (werr != nil) {
			t.Fatalf("%+v: error %v, json.Marshal %v", r, err, werr)
		}
		if err == nil {
			if !bytes.Equal(got, append(want, '\n')) {
				t.Fatalf("%+v:\n got %s\nwant %s", r, got, want)
			}
			checkDecode(t, want, r)
		}
		checkDecode(t, line, LatticeRow{})
		checkDecode(t, line, r)
	})
}
