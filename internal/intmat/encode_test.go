package intmat

import (
	"encoding/json"
	"testing"
)

// TestRecRoundTrip: Mat → Rec → JSON → Rec → Mat is the identity.
func TestRecRoundTrip(t *testing.T) {
	m := New(2, 3, 1, -2, 3, 0, 5, -6)
	data, err := json.Marshal(m.Rec())
	if err != nil {
		t.Fatal(err)
	}
	var r Rec
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	got, err := FromRec(r)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatalf("round-trip %v ≠ %v", got, m)
	}
}

// TestFromRecValidation: malformed records error instead of panicking
// or producing a broken matrix.
func TestFromRecValidation(t *testing.T) {
	for name, r := range map[string]Rec{
		"zero rows":  {R: 0, C: 2, V: []int64{}},
		"neg cols":   {R: 2, C: -1, V: []int64{}},
		"too few":    {R: 2, C: 2, V: []int64{1, 2, 3}},
		"too many":   {R: 1, C: 1, V: []int64{1, 2}},
		"nil values": {R: 1, C: 1},
		// R·C wraps to 0 on 64-bit ints, matching the empty V.
		"wrapping dims": {R: 1 << 32, C: 1 << 32, V: []int64{}},
	} {
		if _, err := FromRec(r); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestKernelValueRoundTrip: kernel memo values — single matrices,
// pairs, and empty (trivial-kernel) bases — survive serialization.
func TestKernelValueRoundTrip(t *testing.T) {
	single := New(2, 3, 1, 2, 3, 4, 5, 6)
	rec, ok := EncodeKernelValue(single)
	if !ok {
		t.Fatal("single matrix not encodable")
	}
	v, err := DecodeKernelValue(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(*Mat); !got.Equal(single) {
		t.Errorf("single round trip: %v", got)
	}

	pair := matPair{a: Identity(2), b: New(2, 2, 0, 1, 1, 0)}
	rec, ok = EncodeKernelValue(pair)
	if !ok {
		t.Fatal("pair not encodable")
	}
	v, err = DecodeKernelValue(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(matPair); !got.a.Equal(pair.a) || !got.b.Equal(pair.b) {
		t.Errorf("pair round trip: %+v", got)
	}

	empty := New(3, 0)
	rec, ok = EncodeKernelValue(empty)
	if !ok {
		t.Fatal("empty kernel basis not encodable")
	}
	v, err = DecodeKernelValue(rec)
	if err != nil {
		t.Fatalf("empty kernel basis: %v", err)
	}
	if got := v.(*Mat); got.Rows() != 3 || got.Cols() != 0 {
		t.Errorf("empty round trip: %dx%d", got.Rows(), got.Cols())
	}

	if _, ok := EncodeKernelValue("junk"); ok {
		t.Error("foreign value encoded")
	}
	if _, err := DecodeKernelValue(KernelRec{A: Rec{R: 2, C: 2, V: []int64{1}}}); err == nil {
		t.Error("mismatched record decoded")
	}
}
