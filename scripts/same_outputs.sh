#!/usr/bin/env bash
# Byte-compare the ksbcfd command's outputs at a git ref and in the working tree.
#
#   scripts/same_outputs.sh <git-ref>
#
# Runs the benchmark's three workload configurations (bench/workloads.py,
# seed 1) through `python3 -m ksbcfd` at one BLAS thread: once on the ref's
# committed src/ and once on the working tree's, each with its own output
# tree, then compares the two trees with `diff -r`.  Each run's exit code is
# written beside its files and compared with them.  The ref's src/ comes
# from `git archive`, so nothing is registered in the repository, and every
# file the script makes lives in a temporary directory that it removes; it
# reads bench/ and writes nothing there.
#
# It first prints the total line count of src/ksbcfd/*.py at the ref and in
# the working tree.  When the outputs differ, it prints the head of the diff
# and, for each differing diagnostics.csv and convergence.csv, the largest
# relative difference in each numeric column, |a - b| / max(|a|, |b|) over
# the rows both files have, so a reader can see whether only the last bits
# moved.
#
# Exits 0 when the output trees are byte-identical, 1 when they differ and
# 2 on a usage error.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <git-ref>" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
if ! ref=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}"); then
    echo "error: $1 is not a commit" >&2
    exit 2
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# the working tree's runs print nothing to stderr; PYTHONWARNINGS=ignore stays
# to quiet an older ref, whose runs may warn, and a warning changes no file
export OPENBLAS_NUM_THREADS=1 PYTHONDONTWRITEBYTECODE=1 PYTHONWARNINGS=ignore

# one "<workload> <command>" line each, and the configuration documents,
# from the working tree's bench/workloads.py
mkdir "$tmp/configs"
python3 - "$root/bench" "$tmp/configs" > "$tmp/workloads" <<'PY'
import json
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
from workloads import WORKLOADS

for name, workload in WORKLOADS.items():
    Path(sys.argv[2], f"{name}.json").write_text(json.dumps(workload.config(1)))
    print(name, workload.command)
PY

mkdir "$tmp/ref"
git -C "$root" archive "$ref" src | tar -x -C "$tmp/ref"
echo "src/ksbcfd/*.py: $(cat "$tmp/ref/src/ksbcfd/"*.py | wc -l) lines at ${ref:0:12}," \
    "$(cat "$root/src/ksbcfd/"*.py | wc -l) in the working tree"

run_all() {  # <src directory> <output root>
    local name command status
    while read -r name command; do
        status=0
        PYTHONPATH="$1" python3 -m ksbcfd "$command" --config "$tmp/configs/$name.json" \
            --out-dir "$2/$name" --quiet || status=$?
        echo "$status" > "$2/$name/exit_code"
    done < "$tmp/workloads"
}

run_all "$tmp/ref/src" "$tmp/out_ref"
run_all "$root/src" "$tmp/out_work"
if diff -r "$tmp/out_ref" "$tmp/out_work" > "$tmp/diff"; then
    echo "identical: $(find "$tmp/out_ref" -type f | wc -l) files of $(wc -l < "$tmp/workloads") workloads at ${ref:0:12} and in the working tree"
    exit 0
fi
head -n 40 "$tmp/diff"
python3 - "$tmp/out_ref" "$tmp/out_work" <<'PY'
import csv
import math
import sys
from pathlib import Path

ref_root, work_root = map(Path, sys.argv[1:])


def number(text):
    try:
        return float(text)
    except ValueError:
        return None


for ref in sorted(ref_root.rglob("*.csv")):
    work = work_root / ref.relative_to(ref_root)
    if ref.name not in ("diagnostics.csv", "convergence.csv") or not work.is_file() \
            or ref.read_bytes() == work.read_bytes():
        continue
    (header, *a), (_, *b) = (list(csv.reader(f.open())) for f in (ref, work))
    print(f"{ref.relative_to(ref_root)}: {len(a)} and {len(b)} rows; "
          "largest relative difference per column:")
    for c, name in enumerate(header):
        worst = 0.0
        for x, y in zip((number(row[c]) for row in a), (number(row[c]) for row in b)):
            if x is None or y is None or x == y:
                continue
            scale = max(abs(x), abs(y))
            worst = max(worst, abs(x - y) / scale if math.isfinite(scale) else math.inf)
        print(f"  {name:>14} {worst:.3e}")
PY
echo "outputs differ between ${ref:0:12} and the working tree" >&2
exit 1
