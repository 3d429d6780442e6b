#!/bin/sh
# scripts/bench.sh — record one point of the perf trajectory.
#
# Runs the paper-core (root bench_test.go: Edmonds, Hermite, the full
# pipeline, Figure 8), collective-selection and engine benchmarks with
# -benchmem and writes BENCH_<n>.json (n = the next free index) in the
# repo root: per-benchmark ns/op, B/op and allocs/op plus run metadata.
# When BENCH_<n-1>.json exists in the output directory, the new file
# also carries a delta section — per-benchmark ns/op ratios against
# the previous record (ratio < 1 means faster now) — and the same
# ratios are printed to stderr. CI runs this from the bench smoke so
# the trajectory accumulates; locally, run it after a perf-sensitive
# change and read the delta section of the new file.
#
# Usage: scripts/bench.sh [output-dir]
#   BENCHTIME=100x scripts/bench.sh   # more iterations per benchmark

set -eu

cd "$(dirname "$0")/.."
out_dir="${1:-.}"
benchtime="${BENCHTIME:-1x}"
pkgs=". ./internal/collective ./internal/engine"

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
go test -run='^$' -bench=. -benchtime="$benchtime" -benchmem $pkgs | tee "$raw" >&2

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gover="$(go env GOVERSION)" \
    -v benchtime="$benchtime" -v prev="$prev" -v prevname="${prev##*/}" '
  BEGIN {
    count = 0
    # Pre-load the previous record. This script writes one benchmark
    # object per line, so a per-line field match is enough to recover
    # the name -> ns/op mapping without a JSON parser.
    if (prev != "") {
      while ((getline pl < prev) > 0) {
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
    ns = "null"; bytes = "null"; allocs = "null"
    for (i = 3; i < NF; i++) {
      if ($(i + 1) == "ns/op") ns = $i
      if ($(i + 1) == "B/op") bytes = $i
      if ($(i + 1) == "allocs/op") allocs = $i
    }
    line = sprintf("    {\"name\": \"%s\", \"package\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
                   name, pkg, $2, ns, bytes, allocs)
    lines = lines (lines == "" ? "" : ",\n") line
    names[count] = name
    nsv[count] = ns
    count++
  }
  END {
    if (count == 0) {
      print "bench.sh: no benchmark lines parsed" > "/dev/stderr"
      exit 1
    }
    delta = ""
    if (prev != "") {
      dl = ""
      for (i = 0; i < count; i++) {
        if (!(names[i] in prev_ns) || nsv[i] == "null") continue
        ratio = sprintf("%.4f", nsv[i] / prev_ns[names[i]])
        printf "bench.sh: delta %-44s %12s -> %12s ns/op  (x%s)\n",
               names[i], prev_ns[names[i]], nsv[i], ratio > "/dev/stderr"
        dline = sprintf("    {\"name\": \"%s\", \"prev_ns_per_op\": %s, \"ns_per_op\": %s, \"ratio\": %s}",
                        names[i], prev_ns[names[i]], nsv[i], ratio)
        dl = dl (dl == "" ? "" : ",\n") dline
      }
      if (dl != "")
        delta = sprintf(",\n  \"delta_vs\": \"%s\",\n  \"deltas\": [\n%s\n  ]", prevname, dl)
    }
    printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"cpu\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [\n%s\n  ]%s\n}\n",
           date, gover, cpu, benchtime, lines, delta
  }
' "$raw" > "$out"

echo "bench.sh: wrote $out" >&2
