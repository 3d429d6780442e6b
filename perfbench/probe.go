package main

import (
	"encoding/json"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"
)

// On a shared cloud VM, how fast the same code runs drifts by tens of
// percent over minutes, with the process's CPU time tracking its wall
// time: the cores run slower, the process is not descheduled. A run
// therefore measures the host as well as the program. Around every pass
// it times a fixed probe that uses only the standard library, and
// scales the pass's times to a reference host on which the probe takes
// probeRef. The probe does the kinds of work a request does
// (allocation, JSON, maps, sorting) on every CPU, and no repository
// code, so a change to the program leaves it as it was.

// probeRef is the probe time of the reference host the end-to-end
// times are scaled to; it is about what a 2-vCPU cloud VM takes.
const probeRef = 10 * time.Millisecond

// probeReps is how many times one probe runs the work; it reports the
// median.
const probeReps = 21

// probeRec is the record the probe encodes and decodes.
type probeRec struct {
	Name  string            `json:"name"`
	Vals  []float64         `json:"vals"`
	Attrs map[string]int    `json:"attrs"`
	Tags  map[string]string `json:"tags"`
}

var probeSink int

// probeWork is one goroutine's share of the probe.
func probeWork() {
	recs := make([]probeRec, 0, 400)
	for i := 0; i < 400; i++ {
		recs = append(recs, probeRec{Name: "r" + strconv.Itoa(i), Vals: []float64{float64(i), 0.5, 1.5},
			Attrs: map[string]int{"a": i, "b": i * 2}, Tags: map[string]string{"k": strconv.Itoa(i % 7)}})
	}
	b, _ := json.Marshal(recs)
	var back []probeRec
	_ = json.Unmarshal(b, &back)
	keys := make([]int, 0, 20000)
	m := map[int]int{}
	for i := 0; i < 20000; i++ {
		k := (i * 7919) % 10007
		m[k] += i
		keys = append(keys, k)
	}
	slices.Sort(keys)
	probeSink += len(back) + len(m) + keys[0]
}

// probe returns the median time of probeReps runs of the probe work on
// GOMAXPROCS goroutines, the collector included: the collector's pacing
// makes its cost per allocated byte about the same whatever the live
// heap, so the caches the serving stack keeps barely move the probe.
func probe() time.Duration {
	runtime.GC()
	ds := make([]time.Duration, probeReps)
	for r := range ds {
		t0 := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < runtime.GOMAXPROCS(0); g++ {
			wg.Add(1)
			go func() { defer wg.Done(); probeWork() }()
		}
		wg.Wait()
		ds[r] = time.Since(t0)
	}
	slices.Sort(ds)
	return ds[probeReps/2]
}
