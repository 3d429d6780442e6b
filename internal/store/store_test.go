package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/intmat"
	"repro/internal/scenarios"
)

// stripPhases clears the run-dependent phase attribution from result
// copies, so determinism comparisons see only the plan content
// (mirrors the engine package's test helper; Phases never serialize,
// so loaded snapshots carry nil).
func stripPhases(rs []engine.Result) []engine.Result {
	out := make([]engine.Result, len(rs))
	for i, r := range rs {
		r.Phases = nil
		out[i] = r
	}
	return out
}

// stripSnap is stripPhases lifted to a snapshot copy.
func stripSnap(s *Snapshot) *Snapshot {
	c := *s
	c.Results = stripPhases(s.Results)
	return &c
}

// quiet silences the stderr warning log; warnings stay inspectable
// via Warnings().
func quiet(s *Store) *Store {
	s.logf = nil
	return s
}

func openTemp(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return quiet(s)
}

// TestWarmStartByteIdentical is the acceptance scenario: a second
// identical batch run against a warm store serves every plan-tier
// memory miss from disk and emits a byte-identical results file, and
// the diff of the two snapshots reports zero regressions.
func TestWarmStartByteIdentical(t *testing.T) {
	st := openTemp(t)
	suite := scenarios.Generate(scenarios.Config{Seed: 7})
	cold := engine.Run(suite, engine.Options{Workers: 4, Store: st})
	warm := engine.Run(suite, engine.Options{Workers: 4, Store: st})

	if !reflect.DeepEqual(stripPhases(cold.Results), stripPhases(warm.Results)) {
		t.Fatal("warm results differ from cold results")
	}
	total := warm.Cache.DiskHits + warm.Cache.DiskMisses
	if total == 0 || float64(warm.Cache.DiskHits) < 0.9*float64(total) {
		t.Fatalf("warm run served %d/%d plan loads from disk, want ≥ 90%%",
			warm.Cache.DiskHits, total)
	}

	var a, b bytes.Buffer
	if err := Take(cold).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := Take(warm).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("cold and warm snapshots serialize differently")
	}

	d := Compare(Take(cold), Take(warm))
	if d.Regressions != 0 || len(d.Changed) != 0 {
		t.Fatalf("diff of identical runs: %d regressions, %d changed", d.Regressions, len(d.Changed))
	}
	if len(st.Warnings()) != 0 {
		t.Errorf("clean round-trip produced warnings: %v", st.Warnings())
	}
}

// TestPlanRoundTrip: PutPlan/GetPlan round-trips records and the
// error string exactly.
func TestPlanRoundTrip(t *testing.T) {
	st := openTemp(t)
	recs := []engine.PlanRecord{{Class: 1, Vectorizable: true, MacroReduction: true}}
	st.PutPlan("some key", recs, "")
	got, errMsg, ok := st.GetPlan("some key")
	if !ok || errMsg != "" || !reflect.DeepEqual(got, recs) {
		t.Fatalf("round-trip: ok=%v err=%q got=%+v", ok, errMsg, got)
	}
	st.PutPlan("failing key", nil, "boom")
	_, errMsg, ok = st.GetPlan("failing key")
	if !ok || errMsg != "boom" {
		t.Fatalf("error round-trip: ok=%v err=%q", ok, errMsg)
	}
	if _, _, ok := st.GetPlan("absent key"); ok {
		t.Fatal("absent key reported present")
	}
	s := st.Stats()
	if s.PlanPuts != 2 || s.PlanGetHits != 2 || s.PlanGetMisses != 1 {
		t.Errorf("stats %+v, want 2 puts / 2 hits / 1 miss", s)
	}
}

// TestCorruptFilesSkipped: truncated or garbage plan files are
// skipped with a warning — never a panic, never wrong data — and the
// engine recomputes and heals them.
func TestCorruptFilesSkipped(t *testing.T) {
	st := openTemp(t)
	st.PutPlan("key A", []engine.PlanRecord{{Class: 2}}, "")
	path := st.planPath("key A")

	for name, corrupt := range map[string][]byte{
		"truncated": []byte(`{"key":"key A","plans":[{"cla`),
		"garbage":   []byte("\x00\x01not json"),
		"empty":     nil,
	} {
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := st.GetPlan("key A"); ok {
			t.Errorf("%s file reported a hit", name)
		}
	}
	if len(st.Warnings()) < 3 {
		t.Errorf("3 corrupt reads produced %d warnings", len(st.Warnings()))
	}

	// A key-mismatched file (e.g. moved between stores) is a miss too.
	st.PutPlan("key B", []engine.PlanRecord{{Class: 3}}, "")
	data, err := os.ReadFile(st.planPath("key B"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.GetPlan("key A"); ok {
		t.Error("key-mismatched file reported a hit")
	}

	// The engine heals the corrupt entry on its next run.
	suite := scenarios.Generate(scenarios.Config{Seed: 3, Random: 1, NoExamples: true})
	clean := engine.Run(suite, engine.Options{})
	dirty := quiet(mustOpen(t, filepath.Dir(st.Dir())))
	healed := engine.Run(suite, engine.Options{Store: dirty})
	if !reflect.DeepEqual(stripPhases(clean.Results), stripPhases(healed.Results)) {
		t.Fatal("corrupt store changed engine results")
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSnapshots: save/load/list round-trip inside the store, and
// name validation.
func TestSnapshots(t *testing.T) {
	st := openTemp(t)
	suite := scenarios.Generate(scenarios.Config{Seed: 2, Random: 1, NoExamples: true})
	snap := Take(engine.Run(suite, engine.Options{}))
	if _, err := st.SaveSnapshot("before", snap); err != nil {
		t.Fatal(err)
	}
	got, err := st.LoadSnapshot("before")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripSnap(snap), got) {
		t.Fatal("snapshot load ≠ save")
	}
	if _, err := st.SaveSnapshot("../escape", snap); err == nil {
		t.Error("path-traversal snapshot name accepted")
	}
	if _, err := st.SaveSnapshot("after.run-2", snap); err != nil {
		t.Fatal(err)
	}
	names, err := st.ListSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"after.run-2", "before"}) {
		t.Errorf("ListSnapshots = %v", names)
	}
}

// TestEmitters: WriteJSON round-trips through ReadSnapshot; WriteCSV
// has one row per scenario plus a header.
func TestEmitters(t *testing.T) {
	suite := scenarios.Generate(scenarios.Config{Seed: 2, Random: 1, NoExamples: true})
	snap := Take(engine.Run(suite, engine.Options{}))

	path := filepath.Join(t.TempDir(), "results.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripSnap(snap), got) {
		t.Fatal("JSON emit did not round-trip")
	}

	var csv bytes.Buffer
	if err := snap.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != len(snap.Results)+1 {
		t.Errorf("CSV has %d lines, want %d", len(lines), len(snap.Results)+1)
	}
	if !strings.HasPrefix(lines[0], "name,local,macro,") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

// TestCompare: regressions (new failures, worse classes, slower
// model time) are flagged; improvements and additions are not.
func TestCompare(t *testing.T) {
	base := &Snapshot{Results: []engine.Result{
		{Name: "a", Classes: [4]int{3, 1, 0, 0}, ModelTime: 100, Vectorizable: 2},
		{Name: "b", Classes: [4]int{2, 0, 1, 1}, ModelTime: 200},
		{Name: "c", Classes: [4]int{1, 0, 0, 0}, ModelTime: 0},
		{Name: "gone", Classes: [4]int{1, 0, 0, 0}},
	}}
	next := &Snapshot{Results: []engine.Result{
		// a: regressed — lost a local comm, gained a general, slower.
		{Name: "a", Classes: [4]int{2, 1, 0, 1}, ModelTime: 150, Vectorizable: 2},
		// b: improved — faster, fewer generals.
		{Name: "b", Classes: [4]int{2, 0, 2, 0}, ModelTime: 120},
		// c: now fails.
		{Name: "c", Err: "boom"},
		// new scenario.
		{Name: "fresh", Classes: [4]int{1, 0, 0, 0}},
	}}
	d := Compare(base, next)
	if d.Regressions != 2 {
		t.Errorf("regressions = %d, want 2 (a, c)", d.Regressions)
	}
	if len(d.Changed) != 3 {
		t.Errorf("changed = %d, want 3", len(d.Changed))
	}
	if !reflect.DeepEqual(d.Added, []string{"fresh"}) || !reflect.DeepEqual(d.Removed, []string{"gone"}) {
		t.Errorf("added %v / removed %v", d.Added, d.Removed)
	}
	rep := d.Report()
	for _, want := range []string{"2 regressions", "! a", "! c", "~ b", "+ fresh", "- gone", "now fails"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}

	same := Compare(base, base)
	if same.Regressions != 0 || len(same.Changed) != 0 || same.Unchanged != 4 {
		t.Errorf("self-diff: %+v", same)
	}
}

// TestKernelRoundTrip: kernel records persist and reload under their
// op:key, with key verification and corrupt-file tolerance.
func TestKernelRoundTrip(t *testing.T) {
	s := openTemp(t)
	rec := intmat.KernelRec{A: intmat.Rec{R: 2, C: 2, V: []int64{1, 2, 3, 4}}}
	s.PutKernel("hermiteL:2x2:1,2,3,4", rec)
	got, ok := s.GetKernel("hermiteL:2x2:1,2,3,4")
	if !ok || !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip: got %+v ok=%v", got, ok)
	}
	if _, ok := s.GetKernel("hermiteL:absent"); ok {
		t.Error("absent kernel key reported present")
	}
	// A moved/colliding file (stored key ≠ requested) is a miss.
	src := s.kernelPath("hermiteL:2x2:1,2,3,4")
	dst := s.kernelPath("kernel:other")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetKernel("kernel:other"); ok {
		t.Error("key-mismatched kernel file served")
	}
	// Corrupt JSON is a miss with a warning, never a panic.
	if err := os.WriteFile(dst, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetKernel("kernel:other"); ok {
		t.Error("corrupt kernel file served")
	}
	if len(s.Warnings()) == 0 {
		t.Error("no warnings recorded for bad kernel files")
	}
	st := s.Stats()
	if st.KernelPuts != 1 || st.KernelGetHits != 1 || st.KernelGetMisses < 2 {
		t.Errorf("kernel stats %+v", st)
	}
}

// TestKernelTierWarmStart: after the plan tier is wiped (GC, version
// bump, new scenarios), a warm store still serves the expensive
// linear-algebra kernels from disk — and the results are identical.
func TestKernelTierWarmStart(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	suite := scenarios.Generate(scenarios.Config{Seed: 5, Random: 3, NoExamples: true})
	cold := engine.Run(suite, engine.Options{Workers: 2, Store: quiet(s1)})
	if s1.Stats().KernelPuts == 0 {
		t.Fatal("cold run persisted no kernels")
	}
	if cold.Cache.KernelDiskHits != 0 {
		t.Errorf("cold run had %d kernel disk hits", cold.Cache.KernelDiskHits)
	}

	// Wipe the plan tier so the warm run has to rebuild plans — but
	// the kernels it needs are all on disk.
	if err := os.RemoveAll(filepath.Join(s1.Dir(), "plans")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := engine.Run(suite, engine.Options{Workers: 2, Store: quiet(s2)})
	if !reflect.DeepEqual(stripPhases(cold.Results), stripPhases(warm.Results)) {
		t.Fatal("kernel-warm results differ from cold results")
	}
	if warm.Cache.KernelDiskHits == 0 {
		t.Error("plan-wiped warm run served no kernels from disk")
	}
	if warm.Cache.KernelMisses != 0 {
		t.Errorf("plan-wiped warm run recomputed %d kernels", warm.Cache.KernelMisses)
	}
}

// TestGCSweepsKernels: the age criterion collects kernel files like
// plan files.
func TestGCSweepsKernels(t *testing.T) {
	s := openTemp(t)
	for i, key := range []string{"k:a", "k:b", "k:c"} {
		s.PutKernel(key, intmat.KernelRec{A: intmat.Rec{R: 1, C: 1, V: []int64{int64(i)}}})
	}
	old := time.Now().Add(-48 * time.Hour)
	for _, key := range []string{"k:a", "k:b"} {
		if err := os.Chtimes(s.kernelPath(key), old, old); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.GC(GCOptions{MaxAge: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedAge != 2 || res.Kept != 1 {
		t.Fatalf("gc removed %d aged, kept %d; want 2/1 (%+v)", res.RemovedAge, res.Kept, res)
	}
	if _, ok := s.GetKernel("k:c"); !ok {
		t.Error("survivor kernel unreadable after gc")
	}
}

// TestJobRoundTrip: the jobs tier persists finished jobs and refuses
// unfinished ones and bad ids.
func TestJobRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	done := time.Now().UTC().Truncate(time.Second)
	rec := &JobRecord{
		Job: api.Job{ID: "job-000007", Status: api.JobDone, Created: done, Finished: &done,
			Progress: api.JobProgress{Done: 1, Total: 1}},
		Results: []api.BatchLine{{Name: "x", ModelTimeUs: 42}},
		Summary: api.BatchSummaryBody{Scenarios: 1, TotalModelTime: 42},
	}
	if err := s.SaveJob(rec); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadJob("job-000007")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip:\n got  %+v\n want %+v", got, rec)
	}
	ids, err := s.ListJobs()
	if err != nil || !reflect.DeepEqual(ids, []string{"job-000007"}) {
		t.Fatalf("ListJobs = %v (err %v)", ids, err)
	}
	if err := s.SaveJob(&JobRecord{Job: api.Job{ID: "job-000008", Status: api.JobRunning}}); err == nil {
		t.Error("running job accepted by SaveJob")
	}
	if err := s.SaveJob(&JobRecord{Job: api.Job{ID: "../escape", Status: api.JobDone}}); err == nil {
		t.Error("path-escaping job id accepted")
	}
	if err := s.DeleteJob("job-000007"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteJob("job-000007"); err != nil {
		t.Errorf("deleting an absent job should be a no-op, got %v", err)
	}
	if ids, _ := s.ListJobs(); len(ids) != 0 {
		t.Errorf("jobs remain after delete: %v", ids)
	}
}
