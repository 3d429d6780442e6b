package api

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
)

// TestErrorEnvelopeRoundTrip: the error envelope survives a marshal
// round trip and implements error usefully.
func TestErrorEnvelopeRoundTrip(t *testing.T) {
	e := Errorf(http.StatusTooManyRequests, CodeRateLimited, "slow down, %s", "client")
	data, err := json.Marshal(ErrorEnvelope{Error: e})
	if err != nil {
		t.Fatal(err)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(env.Error, e) {
		t.Errorf("round trip: %+v ≠ %+v", env.Error, e)
	}
	if env.Error.Error() == "" || env.Error.Status != http.StatusTooManyRequests {
		t.Errorf("bad error: %v", env.Error)
	}
}

// TestBatchSpecWireCompat: the spec's generation fields keep the
// pre-/v1 /batch JSON names, so specs written for that endpoint still
// decode into the same type.
func TestBatchSpecWireCompat(t *testing.T) {
	legacy := []byte(`{"seed":3,"random":7,"deep":2,"skew":true,"no_examples":true,"m":3,"no_macro":true,"no_decomposition":true}`)
	var spec BatchSpec
	if err := json.Unmarshal(legacy, &spec); err != nil {
		t.Fatal(err)
	}
	want := BatchSpec{Seed: 3, Random: 7, Deep: 2, Skew: true, NoExamples: true, M: 3, NoMacro: true, NoDecomposition: true}
	if spec != want {
		t.Errorf("decoded %+v, want %+v", spec, want)
	}
}

// TestJobStatusFinished: only terminal states report finished.
func TestJobStatusFinished(t *testing.T) {
	for s, want := range map[JobStatus]bool{
		JobQueued: false, JobRunning: false, JobDone: true, JobCancelled: true,
	} {
		if s.Finished() != want {
			t.Errorf("%s.Finished() = %v, want %v", s, !want, want)
		}
	}
}

// TestBatchSummaryOmitsEmptyExtensions: a plain summary marshals
// without the optional snapshot/diff/cancelled extensions, keeping
// the legacy stream shape.
func TestBatchSummaryOmitsEmptyExtensions(t *testing.T) {
	data, err := json.Marshal(BatchSummary{Summary: BatchSummaryBody{Scenarios: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"cancelled", "snapshot", "diff"} {
		if _, ok := m["summary"][k]; ok {
			t.Errorf("empty summary leaked optional key %q: %s", k, data)
		}
	}
}

// TestBatchSpecBigMeshes: the new machine-axis field round-trips and
// stays omitted when unset (specs embedded in old snapshots must
// decode unchanged).
func TestBatchSpecBigMeshes(t *testing.T) {
	var spec BatchSpec
	if err := json.Unmarshal([]byte(`{"random":2,"big_meshes":true}`), &spec); err != nil {
		t.Fatal(err)
	}
	if !spec.BigMeshes || spec.Random != 2 {
		t.Errorf("decoded %+v", spec)
	}
	data, err := json.Marshal(BatchSpec{Random: 2})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["big_meshes"]; ok {
		t.Errorf("unset big_meshes leaked into %s", data)
	}
}

// TestBatchLineCollectivesOmitEmpty: lines without collective choices
// keep the legacy shape.
func TestBatchLineCollectivesOmitEmpty(t *testing.T) {
	data, err := json.Marshal(BatchLine{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["collectives"]; ok {
		t.Errorf("empty collectives leaked into %s", data)
	}
	var line BatchLine
	if err := json.Unmarshal([]byte(`{"name":"y","collectives":"broadcast=bisection"}`), &line); err != nil {
		t.Fatal(err)
	}
	if line.Collectives != "broadcast=bisection" {
		t.Errorf("decoded %+v", line)
	}
}
