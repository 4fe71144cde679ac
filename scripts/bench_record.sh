#!/usr/bin/env bash
# Record one qfbench run of every BENCHMARK.json workload into
# BENCH_qfbench.json at the repository root; commit the file with the
# change it measured, so `git log -p BENCH_qfbench.json` reads as the
# benchmark's trajectory across commits.
#
#   scripts/bench_record.sh
#
# Each workload runs as
#   python3 qfbench/run.py --workload W --seed 1 --seconds 32 --trace 0
# (the first run builds qfbench under .bench_build/); every point of the
# trajectory uses the same seed and length. Fails, leaving the old file in
# place, if any run fails.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

WORKLOADS="$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

RUNS="$(mktemp)"
trap 'rm -f "$RUNS" "$RUNS.json"' EXIT
for W in $WORKLOADS; do
  echo "bench_record: $W" >&2
  # Standard output is the metadata JSON line, "#" summary lines, then the
  # result JSON line.
  python3 qfbench/run.py --workload "$W" --seed 1 --seconds 32 --trace 0 |
      grep -v '^#' | tail -n 2 >> "$RUNS"
done

python3 - "$RUNS" > "$RUNS.json" <<'EOF'
import json
import sys

lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
runs = [{"meta": m["meta"], "result": r}
        for m, r in zip(lines[0::2], lines[1::2])]
json.dump({"runs": runs}, sys.stdout, indent=1)
print()
EOF
mv "$RUNS.json" BENCH_qfbench.json
echo "bench_record: wrote BENCH_qfbench.json" >&2
