#!/usr/bin/env bash
# Runs every workload once per seed and collects the runs in
# benchmark/out/<set>.json, the input of `bfbench -compare`:
#
#   benchmark/repeat.sh a          # ten seeds, trace 0
#   benchmark/repeat.sh b
#   benchmark/out/bfbench -compare benchmark/out/a.json benchmark/out/b.json
#
# TRACE=1 collects traced runs instead; SEEDS="1 2 3" overrides the seeds.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
set_name="${1:?usage: repeat.sh <set-name>}"
file="$here/out/$set_name.json"
rm -f "$file"
failed=0
for seed in ${SEEDS:-1 2 3 4 5 6 7 8 9 10}; do
  for workload in small_local bulk_remote bulk_local shared_board; do
    bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds 20 --trace "${TRACE:-0}" \
      --append "$file" | tail -1 | cut -c1-120 || failed=1
  done
done
exit "$failed"
