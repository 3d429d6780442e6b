#!/bin/sh
# scripts/bench.sh — record one point of the perf trajectory.
#
# Runs the paper-core (root bench_test.go: Edmonds, Hermite, the full
# pipeline, Figure 8, the big sweep), collective-selection, engine and
# server (the warm /v1/optimize pool through the handler) benchmarks
# with -benchmem at a pinned -benchtime and -count, and
# writes BENCH_<n>.json (n = the next free index) in the output
# directory: per benchmark the median ns/op over the count samples
# with its min and max, and the median B/op and allocs/op, plus run
# metadata (benchtime, count).
#
# When BENCH_<n-1>.json exists in the output directory and was
# recorded at the same benchtime and count, the new file also carries
# a delta section — per-benchmark ratios of median ns/op against the
# previous record (ratio < 1 means faster now) — and the same ratios
# are printed to stderr. A previous record taken at another benchtime
# or count (or before count was recorded) gets no delta: its numbers
# are not like for like. CI runs this from the bench smoke so the
# trajectory accumulates; locally, run it after a perf-sensitive
# change and read the delta section of the new file.
#
# Usage: scripts/bench.sh [output-dir]
#   BENCHTIME=100x scripts/bench.sh   # another iteration count (no delta
#                                     # against records at the default)

set -eu

cd "$(dirname "$0")/.."
out_dir="${1:-.}"
benchtime="${BENCHTIME:-5x}"
count=5
pkgs=". ./internal/collective ./internal/engine ./internal/server"

n=1
while [ -e "$out_dir/BENCH_$n.json" ]; do
  n=$((n + 1))
done
out="$out_dir/BENCH_$n.json"
prev=""
if [ "$n" -gt 1 ]; then
  prev="$out_dir/BENCH_$((n - 1)).json"
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
# shellcheck disable=SC2086
go test -run='^$' -bench=. -benchtime="$benchtime" -count="$count" -benchmem $pkgs | tee "$raw" >&2

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gover="$(go env GOVERSION)" \
    -v benchtime="$benchtime" -v count="$count" -v prev="$prev" -v prevname="${prev##*/}" '
  # median/min/max of the space-separated samples in s.
  function stats(s,    v, k, i, j, t) {
    k = split(s, v, " ")
    for (i = 2; i <= k; i++) {
      t = v[i]
      for (j = i - 1; j >= 1 && v[j] + 0 > t + 0; j--) v[j + 1] = v[j]
      v[j + 1] = t
    }
    st_min = v[1]; st_max = v[k]
    st_med = (k % 2) ? v[(k + 1) / 2] : (v[k / 2] + v[k / 2 + 1]) / 2
  }
  BEGIN {
    nb = 0
    # Pre-load the previous record. This script writes one field or one
    # benchmark object per line, so a per-line field match is enough to
    # recover the settings and the name -> ns/op mapping without a JSON
    # parser.
    prev_bt = ""; prev_count = "1"
    if (prev != "") {
      while ((getline pl < prev) > 0) {
        if (pl ~ /^  "benchtime": "/) { split(pl, f, "\""); prev_bt = f[4] }
        if (pl ~ /^  "count": [0-9]/) { split(pl, f, /[:,] */); prev_count = f[2] + 0 }
        if (pl !~ /"name": "/ || pl !~ /"ns_per_op": [0-9]/) continue
        match(pl, /"name": "[^"]+"/)
        nm = substr(pl, RSTART + 9, RLENGTH - 10)
        match(pl, /"ns_per_op": [0-9.e+]+/)
        if (!(nm in prev_ns)) prev_ns[nm] = substr(pl, RSTART + 13, RLENGTH - 13)
      }
      close(prev)
    }
  }
  /^pkg:/ { pkg = $2 }
  /^cpu:/ { sub(/^cpu: /, ""); cpu = $0 }
  /^Benchmark/ {
    # Strip any -GOMAXPROCS suffix so names stay comparable across
    # machines and against older records.
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in pkgof)) {
      order[nb++] = name
      pkgof[name] = pkg
      iters[name] = $2
    }
    for (i = 3; i < NF; i++) {
      if ($(i + 1) == "ns/op") ns[name] = ns[name] " " $i
      if ($(i + 1) == "B/op") bytes[name] = bytes[name] " " $i
      if ($(i + 1) == "allocs/op") allocs[name] = allocs[name] " " $i
    }
  }
  END {
    if (nb == 0) {
      print "bench.sh: no benchmark lines parsed" > "/dev/stderr"
      exit 1
    }
    lines = ""
    for (b = 0; b < nb; b++) {
      name = order[b]
      med = "null"; lo = "null"; hi = "null"; samples = 0
      if (name in ns) {
        samples = split(ns[name], tmp, " ")
        stats(ns[name]); med = st_med; lo = st_min; hi = st_max
      }
      bm = "null"; am = "null"
      if (name in bytes) { stats(bytes[name]); bm = st_med }
      if (name in allocs) { stats(allocs[name]); am = st_med }
      nsv[name] = med
      line = sprintf("    {\"name\": \"%s\", \"package\": \"%s\", \"iterations\": %s, \"samples\": %d, \"ns_per_op\": %s, \"ns_min\": %s, \"ns_max\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
                     name, pkgof[name], iters[name], samples, med, lo, hi, bm, am)
      lines = lines (lines == "" ? "" : ",\n") line
    }
    delta = ""
    if (prev != "" && (prev_bt != benchtime || prev_count != count)) {
      printf "bench.sh: no delta: %s ran at benchtime %s count %s, this run at benchtime %s count %s\n",
             prevname, prev_bt, prev_count, benchtime, count > "/dev/stderr"
    } else if (prev != "") {
      dl = ""
      for (b = 0; b < nb; b++) {
        name = order[b]
        if (!(name in prev_ns) || nsv[name] == "null" || prev_ns[name] + 0 == 0) continue
        ratio = sprintf("%.4f", nsv[name] / prev_ns[name])
        printf "bench.sh: delta %-44s %12s -> %12s ns/op  (x%s)\n",
               name, prev_ns[name], nsv[name], ratio > "/dev/stderr"
        dline = sprintf("    {\"name\": \"%s\", \"prev_ns_per_op\": %s, \"ns_per_op\": %s, \"ratio\": %s}",
                        name, prev_ns[name], nsv[name], ratio)
        dl = dl (dl == "" ? "" : ",\n") dline
      }
      if (dl != "")
        delta = sprintf(",\n  \"delta_vs\": \"%s\",\n  \"deltas\": [\n%s\n  ]", prevname, dl)
    }
    printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"cpu\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"count\": %d,\n  \"benchmarks\": [\n%s\n  ]%s\n}\n",
           date, gover, cpu, benchtime, count, lines, delta
  }
' "$raw" > "$out"

echo "bench.sh: wrote $out" >&2
