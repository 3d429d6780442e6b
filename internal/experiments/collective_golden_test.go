package experiments

import (
	"encoding/json"
	"os"
	"testing"
)

// collectiveGolden pins the collective-selection table (the
// paperfigs -collectives experiment) at its two published payloads:
// which algorithm wins on every default mesh, scope and pattern, and
// the exact model times of the winner and the flat baseline. It is
// recorded like paper_golden.json (shortest round-trip float64s), so
// any change to a single bit of a selected cost fails the test.
type collectiveGolden struct {
	Bytes1K []CollectiveRow
	Bytes1M []CollectiveRow
}

func TestCollectiveSelectionGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/collective_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want collectiveGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		bytes int64
		want  []CollectiveRow
	}{{1024, want.Bytes1K}, {1 << 20, want.Bytes1M}} {
		got := CollectiveSelection(c.bytes)
		if len(got) != len(c.want) {
			t.Fatalf("%d bytes: %d rows, golden has %d", c.bytes, len(got), len(c.want))
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%d bytes row %d moved:\n got %+v\nwant %+v", c.bytes, i, got[i], c.want[i])
			}
		}
	}
}
