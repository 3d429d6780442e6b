package store

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// GCOptions select what the sweep removes. The zero value removes
// nothing but stale temp files; set MaxAge and/or MaxPlans to enable
// the age and LRU criteria.
type GCOptions struct {
	// MaxAge removes plan and kernel files not used (mtime; GetPlan
	// and GetKernel touch hits) for longer than this. 0 disables the
	// age criterion.
	MaxAge time.Duration
	// MaxPlans bounds the surviving file count of each tier (plans
	// and kernels independently): after the age sweep, the least
	// recently used files beyond this many are removed. 0 disables
	// the count criterion.
	MaxPlans int
	// DryRun reports what would be removed without removing it.
	DryRun bool
}

// GCResult summarizes a sweep.
type GCResult struct {
	// Scanned is the number of plan and kernel files examined.
	Scanned int `json:"scanned"`
	// RemovedAge / RemovedLRU count removals per criterion; stale
	// temp files from interrupted writes are counted separately.
	RemovedAge  int `json:"removed_age"`
	RemovedLRU  int `json:"removed_lru"`
	RemovedTemp int `json:"removed_temp"`
	// Kept is the number of plan and kernel files surviving the sweep.
	Kept int `json:"kept"`
	// BytesFreed sums the sizes of removed files.
	BytesFreed int64 `json:"bytes_freed"`
}

// Removed is the total number of files removed by the sweep.
func (r GCResult) Removed() int { return r.RemovedAge + r.RemovedLRU + r.RemovedTemp }

// staleTempAge is how old an orphaned temp file (from an interrupted
// writeAtomic) must be before GC reclaims it; young ones may still be
// mid-write in another process.
const staleTempAge = time.Hour

// GC sweeps the plan and kernel tiers: age-expired files first, then
// the least recently used files beyond MaxPlans (mtime is the
// recency signal — GetPlan and GetKernel touch files they serve; the
// cap applies to each tier independently). Snapshots are never
// collected; they are few, named, and referenced by re-run specs.
// Removing a live plan or kernel is always safe — the engine
// recomputes and rewrites it — so GC can run concurrently with
// serving traffic. Unremovable files are recorded as store warnings
// and kept in the Kept count. The sweep is counted in GCTotals when it
// starts and each removal as it happens, so a file already gone from
// disk is always in the totals, even mid-sweep.
func (s *Store) GC(opts GCOptions) (GCResult, error) {
	var res GCResult
	now := time.Now()
	if !opts.DryRun {
		s.gcSweeps.Add(1)
	}
	for _, tier := range []string{"plans", "kernels"} {
		if err := s.gcTier(filepath.Join(s.root, tier), now, opts, &res); err != nil {
			return res, err
		}
	}
	// writeAtomic also stages temps under snapshots/ and jobs/;
	// reclaim stale ones there too. Snapshots and jobs themselves are
	// never collected here (jobs are retired by the server's ttl/keep
	// retention policy instead).
	for _, tier := range []string{"snapshots", "jobs"} {
		ents, err := os.ReadDir(filepath.Join(s.root, tier))
		if err != nil {
			continue
		}
		for _, e := range ents {
			if e.IsDir() || !strings.HasPrefix(e.Name(), ".tmp-") {
				continue
			}
			if info, err := e.Info(); err == nil && now.Sub(info.ModTime()) > staleTempAge {
				s.gcRemove(filepath.Join(s.root, tier, e.Name()), 0, gcTemp, opts.DryRun, &res)
			}
		}
	}
	return res, nil
}

// GCTotals is the cumulative work of every (non-dry-run) GC sweep
// performed through this Store handle — what the daemon's background
// sweeper and the /metrics GC counters report.
type GCTotals struct {
	Sweeps      uint64 `json:"sweeps"`
	RemovedAge  uint64 `json:"removed_age"`
	RemovedLRU  uint64 `json:"removed_lru"`
	RemovedTemp uint64 `json:"removed_temp"`
	BytesFreed  int64  `json:"bytes_freed"`
}

// Removed is the total number of files removed across all sweeps.
func (t GCTotals) Removed() uint64 { return t.RemovedAge + t.RemovedLRU + t.RemovedTemp }

// GCTotals snapshots the cumulative GC counters.
func (s *Store) GCTotals() GCTotals {
	return GCTotals{
		Sweeps:      s.gcSweeps.Load(),
		RemovedAge:  s.gcRemovedAge.Load(),
		RemovedLRU:  s.gcRemovedLRU.Load(),
		RemovedTemp: s.gcRemovedTemp.Load(),
		BytesFreed:  s.gcBytesFreed.Load(),
	}
}

// gcTier sweeps one content-addressed tier directory (plans or
// kernels) with the age and LRU criteria.
func (s *Store) gcTier(dir string, now time.Time, opts GCOptions, res *GCResult) error {
	type gcFileInfo struct {
		path  string
		mtime time.Time
		size  int64
	}
	var files []gcFileInfo
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return nil // raced with a concurrent removal
		}
		if strings.HasPrefix(d.Name(), ".tmp-") {
			if now.Sub(info.ModTime()) > staleTempAge {
				s.gcRemove(path, 0, gcTemp, opts.DryRun, res)
			}
			return nil
		}
		res.Scanned++
		files = append(files, gcFileInfo{path: path, mtime: info.ModTime(), size: info.Size()})
		return nil
	})
	if err != nil {
		return err
	}

	// Age sweep.
	if opts.MaxAge > 0 {
		kept := files[:0]
		for _, f := range files {
			if now.Sub(f.mtime) > opts.MaxAge && s.gcRemove(f.path, f.size, gcAge, opts.DryRun, res) {
				continue
			}
			kept = append(kept, f)
		}
		files = kept
	}

	// LRU sweep: oldest mtime first beyond the cap.
	if opts.MaxPlans > 0 && len(files) > opts.MaxPlans {
		sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
		excess := files[:len(files)-opts.MaxPlans]
		kept := files[len(files)-opts.MaxPlans:]
		for _, f := range excess {
			if !s.gcRemove(f.path, f.size, gcLRU, opts.DryRun, res) {
				kept = append(kept, f)
			}
		}
		files = kept
	}
	res.Kept += len(files)

	if !opts.DryRun {
		s.pruneEmptyShards(dir)
	}
	return nil
}

// gcReason names the criterion a GC removal counts under.
type gcReason int

const (
	gcAge gcReason = iota
	gcLRU
	gcTemp
)

// gcRemove deletes one file of size bytes (or pretends to, under
// DryRun), counts it under why in res, and reports success; failures
// become store warnings. A real removal is counted in GCTotals before
// the file goes and taken back if it stays, so no reader sees the
// file gone but uncounted.
func (s *Store) gcRemove(path string, size int64, why gcReason, dryRun bool, res *GCResult) bool {
	var n *int
	var total *atomic.Uint64
	switch why {
	case gcAge:
		n, total = &res.RemovedAge, &s.gcRemovedAge
	case gcLRU:
		n, total = &res.RemovedLRU, &s.gcRemovedLRU
	default:
		n, total = &res.RemovedTemp, &s.gcRemovedTemp
	}
	if !dryRun {
		total.Add(1)
		s.gcBytesFreed.Add(size)
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			total.Add(^uint64(0))
			s.gcBytesFreed.Add(-size)
			s.warnf("gc: removing %s: %v", path, err)
			return false
		}
	}
	*n++
	res.BytesFreed += size
	return true
}

// pruneEmptyShards drops now-empty <hh>/ shard directories so a
// heavily collected store does not keep 256 empty dirs around.
func (s *Store) pruneEmptyShards(plansDir string) {
	ents, err := os.ReadDir(plansDir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		// Remove fails on non-empty directories, which is exactly the
		// check we want.
		os.Remove(filepath.Join(plansDir, e.Name()))
	}
}
