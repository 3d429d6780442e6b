package experiments

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// paperGolden pins the exact values of the paper's Table 1, Table 2
// and Figure 8 reproductions, at the parameters cmd/paperfigs
// publishes. The shape tests above check only orderings and ratio
// bounds; this one fails on any change to a single bit of a model
// time, so a refactor of the machine models or the contention
// simulator cannot shift the reproduction silently.
//
// testdata/paper_golden.json was recorded by JSON-encoding this
// struct (encoding/json writes float64 in shortest round-trip form,
// so decoding restores every bit). Re-record it only for a deliberate
// change to the models, and say so in the change log.
type paperGolden struct {
	Table1  []Table1Row
	Table2  Table2Result
	Figure8 []Fig8Point
}

func TestPaperValuesGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/paper_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want paperGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := paperGolden{
		Table1:  Table1(32, 512),
		Table2:  Table2(8, 8, 64, 64),
		Figure8: Figure8(8, 8, 64, []int{2, 4, 8}),
	}
	if !reflect.DeepEqual(got.Table1, want.Table1) {
		t.Errorf("Table 1 moved:\n got %+v\nwant %+v", got.Table1, want.Table1)
	}
	if got.Table2 != want.Table2 {
		t.Errorf("Table 2 moved:\n got %+v\nwant %+v", got.Table2, want.Table2)
	}
	if len(got.Figure8) != len(want.Figure8) {
		t.Fatalf("Figure 8: %d points, golden has %d", len(got.Figure8), len(want.Figure8))
	}
	for i := range got.Figure8 {
		if got.Figure8[i] != want.Figure8[i] {
			t.Errorf("Figure 8 point %d moved:\n got %+v\nwant %+v", i, got.Figure8[i], want.Figure8[i])
		}
	}
}
