package store

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"

	"repro/internal/api"
	"repro/internal/engine"
)

// Snapshot is the persistable projection of an engine.BatchResult:
// the per-scenario results plus the deterministic aggregates, and
// nothing run-dependent (worker count, cache statistics). Two runs of
// the same suite — cold or warm, sequential or parallel — therefore
// serialize to byte-identical snapshots, which is what makes
// snapshots diffable across commits.
type Snapshot struct {
	Scenarios      int             `json:"scenarios"`
	ClassTotals    [4]int          `json:"class_totals"`
	TotalModelTime float64         `json:"total_model_time_us"`
	Errors         int             `json:"errors"`
	Results        []engine.Result `json:"results"`
	// Spec is the wire-level suite specification the snapshot was
	// generated from, when known. Suite generation is deterministic in
	// the spec, so a recorded spec makes the snapshot re-runnable by
	// name (api.BatchSpec.Snapshot): the server resolves the name back
	// to this spec, regenerates the identical suite, and diffs the
	// fresh results against Results.
	Spec *api.BatchSpec `json:"spec,omitempty"`
}

// Take projects a batch result down to its snapshot.
func Take(b *engine.BatchResult) *Snapshot {
	return &Snapshot{
		Scenarios:      len(b.Results),
		ClassTotals:    b.ClassTotals,
		TotalModelTime: b.TotalModelTime,
		Errors:         b.Errors,
		Results:        b.Results,
	}
}

// WriteJSON emits the snapshot as indented JSON (the -emit json
// format, and the on-disk snapshot format).
func (s *Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteCSV emits one row per scenario (the -emit csv format). The
// trailing phase columns carry the per-scenario cost attribution of
// the run that produced the snapshot; they are empty for snapshots
// loaded back from disk, where the attribution is not persisted.
func (s *Snapshot) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"name", "local", "macro", "decomposed", "general", "vectorizable", "model_time_us", "collectives", "err",
		"plan_source", "align_us", "kernel_us", "store_us", "total_us"}); err != nil {
		return err
	}
	us := func(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }
	for _, r := range s.Results {
		row := []string{
			r.Name,
			strconv.Itoa(r.Classes[0]), strconv.Itoa(r.Classes[1]),
			strconv.Itoa(r.Classes[2]), strconv.Itoa(r.Classes[3]),
			strconv.Itoa(r.Vectorizable),
			strconv.FormatFloat(r.ModelTime, 'f', -1, 64),
			r.Collectives,
			r.Err,
			"", "", "", "", "",
		}
		if ph := r.Phases; ph != nil {
			row[9] = ph.PlanSource
			row[10], row[11] = us(ph.AlignUs), us(ph.KernelUs)
			row[12], row[13] = us(ph.StoreUs), us(ph.TotalUs)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadSnapshot loads a snapshot from an arbitrary JSON file (e.g. one
// written with -emit json -o).
func ReadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("store: snapshot %s: %w", path, err)
	}
	return &s, nil
}

// snapshotName restricts snapshot names to a safe filename alphabet.
var snapshotName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// ValidSnapshotName reports whether name is acceptable to
// SaveSnapshot/LoadSnapshot, so callers can reject bad names up front
// (e.g. before streaming a batch whose results should be recorded).
func ValidSnapshotName(name string) bool { return snapshotName.MatchString(name) }

func (s *Store) snapshotPath(name string) (string, error) {
	if !snapshotName.MatchString(name) {
		return "", fmt.Errorf("store: bad snapshot name %q", name)
	}
	return filepath.Join(s.root, "snapshots", name+".json"), nil
}

// SaveSnapshot persists snap under name inside the store and returns
// its path. Write failures are returned and also recorded as store
// warnings, so callers that tolerate a lost recording (the daemon's
// save_as path answers 200 either way) still leave a trace in
// Warnings() and the stats counters.
func (s *Store) SaveSnapshot(name string, snap *Snapshot) (string, error) {
	path, err := s.snapshotPath(name)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		return "", err
	}
	if err := s.writeAtomic(path, buf.Bytes()); err != nil {
		s.warnf("writing snapshot %s: %v", path, err)
		return "", err
	}
	return path, nil
}

// LoadSnapshot loads a named snapshot from the store.
func (s *Store) LoadSnapshot(name string) (*Snapshot, error) {
	path, err := s.snapshotPath(name)
	if err != nil {
		return nil, err
	}
	return ReadSnapshot(path)
}

// ListSnapshots returns the stored snapshot names, sorted.
func (s *Store) ListSnapshots() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(s.root, "snapshots"))
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if n := e.Name(); filepath.Ext(n) == ".json" {
			names = append(names, n[:len(n)-len(".json")])
		}
	}
	sort.Strings(names)
	return names, nil
}
