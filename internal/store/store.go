// Package store is the disk-backed, content-addressed persistence
// layer behind the optimization engine. It durably stores these kinds
// of artifacts under a versioned directory layout:
//
//   - heuristic plans, keyed by the engine's canonical plan keys
//     (scenarios.Scenario.PlanKey): one JSON file per key, named by
//     the SHA-256 of the key, under plans/<hh>/<hash>.json. The
//     engine consults this tier between its in-memory memo cache and
//     a fresh computation, so repeated CLI sweeps and daemon restarts
//     are compile-once/reuse-many across processes. It is also the
//     only persisted form of a compiled lattice artifact, which is a
//     view of a plan entry (engine.Session.CompiledArtifact);
//   - kernel memo values (Hermite forms, unimodular inverses, kernel
//     bases), keyed by intmat.Kernels' op:key scheme, under
//     kernels/<hh>/<hash>.json, so cold starts skip the exact linear
//     algebra too — a suite of fresh nests on a warm store recomputes
//     nothing it has ever factored before;
//   - batch-result snapshots (see Snapshot), under snapshots/, which
//     Compare diffs scenario-by-scenario for cross-commit regression
//     tracking;
//   - finished async jobs (see JobRecord), under jobs/, in the same
//     JSON shape the /v1/jobs results endpoint serves, so a daemon
//     restart does not lose completed work — the server reloads them
//     at startup and applies its ttl/keep retention policy.
//
// The store is safe for concurrent use; writes are atomic
// (temp-file + rename). Bad data never panics: a corrupt, truncated
// or key-mismatched plan file is skipped with a warning and the
// engine recomputes (and overwrites) it.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/intmat"
)

// Version is the on-disk layout version; bumping it orphans (but does
// not delete) artifacts written by older layouts. v3: plan records
// carry the full set of macro-communication axes (the collective cost
// model schedules one-axis macros per line and multi-axis ones per
// plane; v2 recorded a single axis), and finished async jobs persist
// under jobs/ so they survive daemon restarts.
const Version = "v3"

// Store is a disk-backed plan and snapshot store rooted at one
// directory. It implements engine.PlanStore.
type Store struct {
	root string // <dir>/<Version>
	logf func(format string, args ...any)

	mu       sync.Mutex
	warnings []string

	puts, getHits, getMisses, corrupt          atomic.Uint64
	kernelPuts, kernelGetHits, kernelGetMisses atomic.Uint64

	// Cumulative GC work through this handle (dry runs excluded);
	// see GCTotals.
	gcSweeps, gcRemovedAge, gcRemovedLRU, gcRemovedTemp atomic.Uint64
	gcBytesFreed                                        atomic.Int64
}

var (
	_ engine.PlanStore   = (*Store)(nil)
	_ engine.KernelStore = (*Store)(nil)
)

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	root := filepath.Join(dir, Version)
	for _, d := range []string{
		filepath.Join(root, "plans"),
		filepath.Join(root, "kernels"),
		filepath.Join(root, "snapshots"),
		filepath.Join(root, "jobs"),
	} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	return &Store{root: root, logf: log.New(os.Stderr, "store: ", 0).Printf}, nil
}

// Dir returns the versioned root directory of the store.
func (s *Store) Dir() string { return s.root }

// planPath is the content address of key: plans/<hh>/<sha256>.json.
func (s *Store) planPath(key string) string {
	h := sha256.Sum256([]byte(key))
	hx := hex.EncodeToString(h[:])
	return filepath.Join(s.root, "plans", hx[:2], hx+".json")
}

// planFile is the on-disk plan format. The full key is stored for
// verification, so a hash collision or a file moved between stores is
// detected and treated as a miss instead of returning wrong plans.
type planFile struct {
	Key   string              `json:"key"`
	Err   string              `json:"err,omitempty"`
	Plans []engine.PlanRecord `json:"plans"`
}

// GetPlan implements engine.PlanStore: load the plans persisted for
// key, or ok == false when absent or unreadable.
func (s *Store) GetPlan(key string) ([]engine.PlanRecord, string, bool) {
	path := s.planPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.warnf("skipping unreadable plan file %s: %v", path, err)
		}
		s.getMisses.Add(1)
		return nil, "", false
	}
	var f planFile
	if err := json.Unmarshal(data, &f); err != nil {
		s.warnf("skipping corrupt plan file %s: %v", path, err)
		s.getMisses.Add(1)
		return nil, "", false
	}
	if f.Key != key {
		s.warnf("skipping plan file %s: stored key does not match request", path)
		s.getMisses.Add(1)
		return nil, "", false
	}
	s.getHits.Add(1)
	// Touch the file so its mtime approximates recency-of-use and the
	// LRU half of GC keeps hot plans. Best-effort: a read-only store
	// still serves hits, it just ages like an unused one.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return f.Plans, f.Err, true
}

// PutPlan implements engine.PlanStore: persist the plans for key.
// Failures are recorded as warnings, never returned — a store that
// cannot write degrades to compute-every-time.
func (s *Store) PutPlan(key string, plans []engine.PlanRecord, errMsg string) {
	path := s.planPath(key)
	data, err := json.Marshal(planFile{Key: key, Err: errMsg, Plans: plans})
	if err != nil {
		s.warnf("encoding plan for %s: %v", path, err)
		return
	}
	if err := s.writeAtomic(path, data); err != nil {
		s.warnf("writing plan file %s: %v", path, err)
		return
	}
	s.puts.Add(1)
}

// kernelPath is the content address of a kernel key:
// kernels/<hh>/<sha256>.json.
func (s *Store) kernelPath(key string) string {
	h := sha256.Sum256([]byte(key))
	hx := hex.EncodeToString(h[:])
	return filepath.Join(s.root, "kernels", hx[:2], hx+".json")
}

// kernelFile is the on-disk kernel format; the full op:key is stored
// for verification, like planFile.
type kernelFile struct {
	Key string           `json:"key"`
	Val intmat.KernelRec `json:"val"`
}

// GetKernel implements engine.KernelStore: load the kernel value
// persisted for key (an op-prefixed canonical matrix key), or
// ok == false when absent or unreadable.
func (s *Store) GetKernel(key string) (intmat.KernelRec, bool) {
	path := s.kernelPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.warnf("skipping unreadable kernel file %s: %v", path, err)
		}
		s.kernelGetMisses.Add(1)
		return intmat.KernelRec{}, false
	}
	var f kernelFile
	if err := json.Unmarshal(data, &f); err != nil {
		s.warnf("skipping corrupt kernel file %s: %v", path, err)
		s.kernelGetMisses.Add(1)
		return intmat.KernelRec{}, false
	}
	if f.Key != key {
		s.warnf("skipping kernel file %s: stored key does not match request", path)
		s.kernelGetMisses.Add(1)
		return intmat.KernelRec{}, false
	}
	s.kernelGetHits.Add(1)
	now := time.Now()
	_ = os.Chtimes(path, now, now) // recency for the GC LRU, like GetPlan
	return f.Val, true
}

// PutKernel implements engine.KernelStore: persist the kernel value
// for key. Failures degrade to recompute-next-time, like PutPlan.
func (s *Store) PutKernel(key string, rec intmat.KernelRec) {
	path := s.kernelPath(key)
	data, err := json.Marshal(kernelFile{Key: key, Val: rec})
	if err != nil {
		s.warnf("encoding kernel for %s: %v", path, err)
		return
	}
	if err := s.writeAtomic(path, data); err != nil {
		s.warnf("writing kernel file %s: %v", path, err)
		return
	}
	s.kernelPuts.Add(1)
}

// writeAtomic writes data to path via a temp file in the same
// directory plus rename, so concurrent readers never observe a
// truncated file.
func (s *Store) writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// warnf records (and logs) a non-fatal store problem.
func (s *Store) warnf(format string, args ...any) {
	s.corrupt.Add(1)
	msg := fmt.Sprintf(format, args...)
	s.mu.Lock()
	s.warnings = append(s.warnings, msg)
	s.mu.Unlock()
	if s.logf != nil {
		s.logf("%s", msg)
	}
}

// Warnings returns every non-fatal problem seen so far (corrupt
// files skipped, failed writes).
func (s *Store) Warnings() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.warnings...)
}

// Stats is a snapshot of store traffic.
type Stats struct {
	PlanPuts        uint64 `json:"plan_puts"`
	PlanGetHits     uint64 `json:"plan_get_hits"`
	PlanGetMisses   uint64 `json:"plan_get_misses"`
	KernelPuts      uint64 `json:"kernel_puts"`
	KernelGetHits   uint64 `json:"kernel_get_hits"`
	KernelGetMisses uint64 `json:"kernel_get_misses"`
	Warnings        uint64 `json:"warnings"`
}

// TierSize is the on-disk footprint of one store tier.
type TierSize struct {
	// Files counts stored objects (stale temp files excluded).
	Files int `json:"files"`
	// Bytes sums their sizes.
	Bytes int64 `json:"bytes"`
}

// Tiers lists the store's tier directories, in layout order.
func Tiers() []string { return []string{"plans", "kernels", "snapshots", "jobs"} }

// TierSizes walks every tier and reports its object count and byte
// footprint. It reads the filesystem on each call — cheap for the
// file counts a GC-bounded store holds, but meant for scrape-rate
// polling (the /metrics collect hook), not per-request paths.
func (s *Store) TierSizes() map[string]TierSize {
	tiers := Tiers()
	out := make(map[string]TierSize, len(tiers))
	for _, tier := range tiers {
		var ts TierSize
		filepath.WalkDir(filepath.Join(s.root, tier), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || strings.HasPrefix(d.Name(), ".tmp-") {
				return nil // a tier that vanished mid-walk just reads as empty
			}
			if info, err := d.Info(); err == nil {
				ts.Files++
				ts.Bytes += info.Size()
			}
			return nil
		})
		out[tier] = ts
	}
	return out
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	return Stats{
		PlanPuts:        s.puts.Load(),
		PlanGetHits:     s.getHits.Load(),
		PlanGetMisses:   s.getMisses.Load(),
		KernelPuts:      s.kernelPuts.Load(),
		KernelGetHits:   s.kernelGetHits.Load(),
		KernelGetMisses: s.kernelGetMisses.Load(),
		Warnings:        s.corrupt.Load(),
	}
}
