#!/usr/bin/env bash
# Print the sha256 of every CSV artifact that the moeeqi CLI writes for a
# fixed set of seeded configs. Two source trees produce the same listing
# exactly when their same-seed artifacts are byte-identical.
#
# usage: tools/artifact_digests.sh <src-dir>
#   <src-dir> is the directory holding the moeeqi package, e.g. src.
#
# The configs: run on toy(a=0.5) for seeds 1-3, once with a mixed mode
# schedule and once with a constraint; run with fixed_coords; run with the
# moeei comparator and refit_hyperparameters false; a 2-replicate study;
# and oracle. The JSON files (wall times) are not listed.
set -euo pipefail

if [ $# -ne 1 ] || [ ! -d "$1/moeeqi" ]; then
    echo "usage: $0 <src-dir holding the moeeqi package>" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cli() {
    env -u MOEEQI_SEED PYTHONPATH="$src" OPENBLAS_NUM_THREADS=1 \
        python3 -m moeeqi.cli "$@" >/dev/null
}

cat >"$work/toy.json" <<'JSON'
{"problem": "toy", "a": 0.5}
JSON
cat >"$work/toy_constrained.json" <<'JSON'
{"problem": "toy", "a": 0.5, "constraints": {"upper_bounds": [1.1, null]}}
JSON
cat >"$work/mixed.json" <<'JSON'
{"beta": 0.7, "n_mc": 10, "n_iter": 8, "grid_resolution": 40, "initial_design_size": 5,
 "mode_schedule": [["aggressive", 4], ["non_aggressive", 4]]}
JSON
cat >"$work/plain.json" <<'JSON'
{"beta": 0.7, "n_mc": 10, "n_iter": 6, "grid_resolution": 40, "initial_design_size": 5}
JSON
cat >"$work/fixed.json" <<'JSON'
{"beta": 0.7, "n_mc": 10, "n_iter": 6, "grid_resolution": 40, "initial_design_size": 5,
 "seed": 1, "fixed_coords": {"1": 0.0}}
JSON
cat >"$work/moeei.json" <<'JSON'
{"beta": 0.7, "n_mc": 10, "n_iter": 6, "grid_resolution": 40, "initial_design_size": 5,
 "seed": 2, "comparator": "moeei", "refit_hyperparameters": false}
JSON
cat >"$work/study.json" <<'JSON'
{"beta": 0.7, "n_mc": 10, "n_iter": 4, "grid_resolution": 30, "initial_design_size": 5,
 "seed": 3, "truth_resolution": 200}
JSON

out="$work/out"
for seed in 1 2 3; do
    cli run --problem "$work/toy.json" --config "$work/mixed.json" \
        --seed "$seed" --out "$out/run_mixed_s$seed"
    cli run --problem "$work/toy_constrained.json" --config "$work/plain.json" \
        --seed "$seed" --out "$out/run_constrained_s$seed"
done
cli run --problem "$work/toy.json" --config "$work/fixed.json" --out "$out/run_fixed"
cli run --problem "$work/toy.json" --config "$work/moeei.json" --out "$out/run_moeei"
cli study --problem "$work/toy.json" --config "$work/study.json" --replicates 2 \
    --out "$out/study"
cli oracle --problem "$work/toy.json" --resolution 200 --out "$out/oracle/front.csv"

cd "$out"
find . -name '*.csv' | LC_ALL=C sort | xargs sha256sum
