package engine

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/collective"
	"repro/internal/compiled"
	"repro/internal/scenarios"
	"repro/internal/trace"
)

// selKey is the selection-memo identity of one collective choice: the
// machine spec (including any pinned algorithm), the pattern, the
// macro's grid axes and the payload. Everything the selector reads is
// in the key, so a memo hit returns exactly what cold selection would.
func selKey(spec scenarios.MachineSpec, p collective.Pattern, dims []int, bytes int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sel:%s|%s|", spec, p)
	for i, d := range dims {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", d)
	}
	fmt.Fprintf(&b, "|%d", bytes)
	return b.String()
}

// selector is the scenario's compiled.Selector: it runs each
// collective selection of the cost dispatch memoized in the session
// cache per (machine, pattern, dims, bytes). Selection is a pure
// function of the key, so memoized and cold selections are
// byte-identical; with a nil cache it always selects cold (the
// -no-cache ablation). Each call feeds the scenario's selection
// accumulator and — under an active trace — records a
// "collective.select" span annotated with the memo outcome.
func selector(ctx context.Context, cache *Cache, acc *selAcc, spec scenarios.MachineSpec) compiled.Selector {
	return func(p collective.Pattern, dims []int, bytes int64, sel func() collective.Choice) collective.Choice {
		t0 := time.Now()
		_, sp := trace.StartSpan(ctx, "collective.select")
		memo := "off"
		var ch collective.Choice
		if cache == nil {
			ch = sel()
		} else {
			key := selKey(spec, p, dims, bytes)
			if v, ok := cache.lookup(key); ok {
				cache.selectHits.Add(1)
				memo = "hit"
				ch = v.(collective.Choice)
			} else {
				cache.selectMisses.Add(1)
				memo = "miss"
				ch = sel()
				cache.store(key, ch)
			}
		}
		acc.observe(time.Since(t0), memo == "hit")
		sp.Set("memo", memo).Set("pattern", fmt.Sprint(p)).Set("choice", ch.String()).End()
		return ch
	}
}
