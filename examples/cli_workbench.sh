#!/usr/bin/env bash
# The `python -m repro` workbench, end to end, in one script.
#
# Runs from the repository root (PYTHONPATH=src) and writes everything
# under ./runs/workbench-demo. Each step is a standalone one-liner; every
# run leaves a manifest.json making it replayable byte for byte.
#
#   bash examples/cli_workbench.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
OUT=runs/workbench-demo
REPRO="python -m repro"

# 1. What workloads exist? (also: --markdown for the README table)
$REPRO datasets

# 2. Export a suite graph to a plain edge-list file.
$REPRO datasets --export barbell --out "$OUT/barbell.tsv"

# 3. NCP candidate ensembles for all three canonical dynamics on the
#    Figure 1 workload, sharded over 2 worker processes with an on-disk
#    chunk cache. Rerun it: every chunk is a cache hit.
$REPRO ncp --graph atp --dynamics ppr,hk,walk --num-seeds 16 \
    --workers 2 --cache-dir "$OUT/.ncp-cache" --out "$OUT/atp-ncp"

# 4. The same pipeline on an *external* graph file — your own workload
#    goes through the identical code path.
$REPRO ncp --graph "$OUT/barbell.tsv" --dynamics "ppr:alpha=0.05/0.15,eps=1e-4" \
    --num-seeds 8 --out "$OUT/external-ncp"

# 5. A seeded strongly local cluster with an explicit spec string.
$REPRO cluster --graph atp --seeds 5 --dynamics "hk:t=5,eps=1e-4" \
    --out "$OUT/cluster"

echo
echo "Artifacts under $OUT (each directory has a manifest.json):"
find "$OUT" -type f | sort
