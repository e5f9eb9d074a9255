#!/usr/bin/env bash
# Determinism table for the tracked result grids.
#
# Each row runs one grid binary at --jobs 1 and at --jobs $(nproc), then
# requires every output but the wall-clock timing file (JSON, stdout,
# traces) to be byte-identical across the two runs, the JSON to equal
# results/<grid>.json and, where the row says so, stdout to equal
# results/<grid>.txt. The schema and attribution checks on those tracked
# files run under `cargo test` (crates/bench/tests/tracked_results.rs),
# so together the two pin every fresh run.
#
# Usage, from the repository root after `cargo build --release`:
#
#   ci/grids.sh [OUT_DIR]        # default target/grids
#
# Row i writes to OUT_DIR/i/serial and OUT_DIR/i/jobs.
set -euo pipefail

bin=target/release
out=${1:-target/grids}
jobs=$(nproc)

# grid | flags | stdout tracked | follow-up commands that must exit 0.
# "@" stands for the run's directory.
rows=(
  "fig12_main_eval        | --quick                             | no  |"
  "fig12_main_eval        | --quick --trace @/fig12.trace.jsonl | no  | \$bin/trace_summary @/fig12.trace.jsonl"
  "disc07_fault_tolerance | --quick                             | no  |"
  "disc08_durability      | --quick                             | yes |"
  "disc09_tail_blame      |                                     | yes |"
  "disc10_memory_anatomy  |                                     | yes | \$bin/mem_query results/disc10_memory_anatomy.json --top 5; \$bin/mem_query results/disc10_memory_anatomy.json --flow"
)

for i in "${!rows[@]}"; do
  IFS='|' read -r grid flags tracked follow <<< "${rows[$i]}"
  grid=${grid// /} tracked=${tracked// /}
  a=$out/$i/serial b=$out/$i/jobs
  rm -rf "${out:?}/$i"
  mkdir -p "$a" "$b"
  "$bin/$grid" ${flags//@/$a} --jobs 1 --out "$a" > "$a/stdout.txt"
  "$bin/$grid" ${flags//@/$b} --jobs "$jobs" --out "$b" > "$b/stdout.txt"
  for f in "$a"/*; do
    [[ $f == *.timing.json ]] || cmp "$f" "$b/${f##*/}"
  done
  cmp "$b/$grid.json" "results/$grid.json"
  [[ $tracked == no ]] || cmp "$b/stdout.txt" "results/$grid.txt"
  eval "${follow//@/$b}" > "$b/follow-up.txt"
  echo "ok: $grid" $flags
done
