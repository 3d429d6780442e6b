#!/bin/sh
# scripts/bench.sh — record one point of the perf trajectory.
#
# Runs the paper-core (root bench_test.go: Edmonds, Hermite, the full
# pipeline, Figure 8, the big sweep), collective-selection, engine and
# server (the warm /v1/optimize pool through the handler) benchmarks
# with -benchmem, each sample at a fixed time budget (-benchtime 200ms)
# and 10 samples, and writes BENCH_<n>.json (n = the next free
# index) in the output directory: per benchmark the median ns/op over
# the samples with its interquartile range (ns_q1..ns_q3, the medians
# of the lower and upper half of the sorted samples), and the median
# B/op and allocs/op, plus run metadata (benchtime, count).
#
# When BENCH_<n-1>.json exists in the output directory and was
# recorded at the same benchtime and count, the new file also carries
# a delta section: per benchmark the ratio of median ns/op against the
# previous record (ratio < 1 means faster now), marked "changed" only
# when the two records' interquartile ranges do not overlap, since a
# ratio inside the samples' spread is noise. The same ratios are
# printed to stderr, changed ones flagged with '*'. A previous record
# taken at another benchtime or count gets no delta: its numbers are
# not like for like, and the new record starts a series. CI runs this
# from the bench smoke at a short BENCHTIME so the recorder is
# exercised; locally, run it after a perf-sensitive change and read the
# delta section of the new file. A full record takes several minutes.
#
# Usage: scripts/bench.sh [output-dir]
#   BENCHTIME=1x scripts/bench.sh   # another per-sample budget (no delta
#                                   # against records at the default)

set -eu

cd "$(dirname "$0")/.."
out_dir="${1:-.}"
benchtime="${BENCHTIME:-200ms}"
count=10
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
# The samples are count passes over the whole suite rather than count
# runs of each benchmark in a row: the host's speed drifts over minutes,
# and interleaving spreads every benchmark's samples over the same
# window, so the drift widens the interquartile range instead of moving
# one benchmark's median.
i=0
while [ "$i" -lt "$count" ]; do
  # shellcheck disable=SC2086
  go test -run='^$' -bench=. -benchtime="$benchtime" -count=1 -benchmem $pkgs
  i=$((i + 1))
done | tee "$raw" >&2

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gover="$(go env GOVERSION)" \
    -v benchtime="$benchtime" -v count="$count" -v prev="$prev" -v prevname="${prev##*/}" '
  # median of the sorted v[lo..hi].
  function med(v, lo, hi,    k) {
    k = hi - lo + 1
    return (k % 2) ? v[lo + (k - 1) / 2] : (v[lo + k / 2 - 1] + v[lo + k / 2]) / 2
  }
  # median and quartiles of the space-separated samples in s: Q1 and
  # Q3 are the medians of the lower and upper half (the middle sample
  # of an odd count in neither).
  function stats(s,    v, k, i, j, t, h) {
    k = split(s, v, " ")
    for (i = 2; i <= k; i++) {
      t = v[i]
      for (j = i - 1; j >= 1 && v[j] + 0 > t + 0; j--) v[j + 1] = v[j]
      v[j + 1] = t
    }
    st_med = med(v, 1, k)
    h = int(k / 2)
    st_q1 = h ? med(v, 1, h) : v[1]
    st_q3 = h ? med(v, k - h + 1, k) : v[k]
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
        if (pl !~ /"name": "/ || pl !~ /"ns_per_op": [0-9]/ || pl !~ /"ns_q1": [0-9]/) continue
        match(pl, /"name": "[^"]+"/)
        nm = substr(pl, RSTART + 9, RLENGTH - 10)
        if (nm in prev_ns) continue
        match(pl, /"ns_per_op": [0-9.e+]+/)
        prev_ns[nm] = substr(pl, RSTART + 13, RLENGTH - 13)
        match(pl, /"ns_q1": [0-9.e+]+/)
        prev_q1[nm] = substr(pl, RSTART + 9, RLENGTH - 9)
        match(pl, /"ns_q3": [0-9.e+]+/)
        prev_q3[nm] = substr(pl, RSTART + 9, RLENGTH - 9)
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
      m = "null"; q1 = "null"; q3 = "null"; samples = 0
      if (name in ns) {
        samples = split(ns[name], tmp, " ")
        stats(ns[name]); m = st_med; q1 = st_q1; q3 = st_q3
      }
      bm = "null"; am = "null"
      if (name in bytes) { stats(bytes[name]); bm = st_med }
      if (name in allocs) { stats(allocs[name]); am = st_med }
      nsv[name] = m; nq1[name] = q1; nq3[name] = q3
      line = sprintf("    {\"name\": \"%s\", \"package\": \"%s\", \"iterations\": %s, \"samples\": %d, \"ns_per_op\": %s, \"ns_q1\": %s, \"ns_q3\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
                     name, pkgof[name], iters[name], samples, m, q1, q3, bm, am)
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
        # Changed only when the interquartile ranges do not overlap.
        changed = (nq3[name] + 0 < prev_q1[name] + 0 || nq1[name] + 0 > prev_q3[name] + 0) ? "true" : "false"
        printf "bench.sh: delta %s %-44s %12s -> %12s ns/op  (x%s)\n",
               (changed == "true" ? "*" : " "), name, prev_ns[name], nsv[name], ratio > "/dev/stderr"
        dline = sprintf("    {\"name\": \"%s\", \"prev_ns_per_op\": %s, \"ns_per_op\": %s, \"ratio\": %s, \"changed\": %s}",
                        name, prev_ns[name], nsv[name], ratio, changed)
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
