#!/usr/bin/env bash
# Print the sha256 of every CSV artifact that the moeeqi CLI writes for a
# fixed set of seeded configs. Two source trees produce the same listing
# exactly when their same-seed artifacts are byte-identical.
#
# usage: tools/artifact_digests.sh <src-dir | git-revision>
#   <src-dir> is the directory holding the moeeqi package, e.g. src; a git
#   revision, e.g. HEAD, stands for the src/ of that revision, so that
#   diff <(tools/artifact_digests.sh HEAD) <(tools/artifact_digests.sh src)
#   checks the working tree against the last commit.
#
# The configs: run on toy(a=0.5) for seeds 1-3, once with a mixed mode
# schedule and once with a constraint; a constrained run with the literal
# (variance) constraint formula; run with fixed_coords, once pinning x1 at
# its box edge and once pinning it at 0.9 on the constrained toy, where the
# constraint filter drops members of the design front; run with x0 pinned
# at 0.8, so that the lattice posterior's leading axis is the pinned one;
# run on a toy whose
# q1 bound 0.7 cuts through the middle of the front, so that the filter
# drops about a third of the candidates at every selection and design rows
# at every design front; run with the moeei
# comparator and refit_hyperparameters false; run with a config that leans
# on defaults and normalization (a whole float n_mc, null seed and
# min_score, a list-form mode_schedule, no --seed); run on a toy problem
# whose control_bounds are a sub-box of the default one, once from the file
# and once with the same document passed inline as --problem text (the two
# must list the same digests); run on an 80x80 grid
# (6,400 candidates, more than one row block of the posterior and the
# score bound); a 2-replicate study; and
# oracle at resolution 200 and at 500, the study default. The JSON files
# (wall times) are not listed. Exits 1 without a listing unless some run's
# observations.csv has a row with replications > 1.
set -euo pipefail

usage() {
    echo "usage: $0 <src-dir holding the moeeqi package | git revision>" >&2
    exit 2
}
[ $# -eq 1 ] || usage
repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
if [ -d "$1/moeeqi" ]; then
    src=$(cd "$1" && pwd)
elif git -C "$repo" rev-parse --verify --quiet "$1^{commit}" >/dev/null; then
    mkdir "$work/rev"
    git -C "$repo" archive "$1" src | tar -x -C "$work/rev"
    src="$work/rev/src"
    [ -d "$src/moeeqi" ] || usage
else
    usage
fi

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
cat >"$work/toy_midcut.json" <<'JSON'
{"problem": "toy", "a": 0.5, "constraints": {"upper_bounds": [0.7, null]}}
JSON
cat >"$work/toy_subbox.json" <<'JSON'
{"problem": "toy", "a": 0.5, "control_bounds": [[0.2, 1.4], [0.0, 0.8]]}
JSON
cat >"$work/mixed.json" <<'JSON'
{"beta": 0.7, "n_mc": 10, "n_iter": 8, "grid_resolution": 40, "initial_design_size": 5,
 "mode_schedule": [["aggressive", 4], ["non_aggressive", 4]]}
JSON
cat >"$work/plain.json" <<'JSON'
{"beta": 0.7, "n_mc": 10, "n_iter": 6, "grid_resolution": 40, "initial_design_size": 5}
JSON
cat >"$work/literal.json" <<'JSON'
{"beta": 0.7, "n_mc": 10, "n_iter": 6, "grid_resolution": 40, "initial_design_size": 5,
 "seed": 4, "literal_constraint_formula": true}
JSON
cat >"$work/fixed.json" <<'JSON'
{"beta": 0.7, "n_mc": 10, "n_iter": 6, "grid_resolution": 40, "initial_design_size": 5,
 "seed": 1, "fixed_coords": {"1": 0.0}}
JSON
cat >"$work/pinned.json" <<'JSON'
{"beta": 0.7, "n_mc": 10, "n_iter": 6, "grid_resolution": 40, "initial_design_size": 5,
 "seed": 3, "fixed_coords": {"1": 0.9}}
JSON
cat >"$work/pinned_x0.json" <<'JSON'
{"beta": 0.7, "n_mc": 10, "n_iter": 6, "grid_resolution": 40, "initial_design_size": 5,
 "seed": 2, "fixed_coords": {"0": 0.8}}
JSON
cat >"$work/moeei.json" <<'JSON'
{"beta": 0.7, "n_mc": 10, "n_iter": 6, "grid_resolution": 40, "initial_design_size": 5,
 "seed": 2, "comparator": "moeei", "refit_hyperparameters": false}
JSON
cat >"$work/defaults.json" <<'JSON'
{"beta": 0.7, "n_mc": 10.0, "n_iter": 5, "grid_resolution": 40, "initial_design_size": 5,
 "seed": null, "min_score": null, "mode_schedule": [["non_aggressive", 2], ["aggressive", 3]]}
JSON
cat >"$work/grid80.json" <<'JSON'
{"beta": 0.7, "n_mc": 10, "n_iter": 4, "grid_resolution": 80, "initial_design_size": 5,
 "seed": 6}
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
cli run --problem "$work/toy_constrained.json" --config "$work/literal.json" \
    --out "$out/run_literal"
cli run --problem "$work/toy.json" --config "$work/fixed.json" --out "$out/run_fixed"
cli run --problem "$work/toy_constrained.json" --config "$work/pinned.json" \
    --out "$out/run_pinned_constrained"
cli run --problem "$work/toy.json" --config "$work/pinned_x0.json" --out "$out/run_pinned_x0"
cli run --problem "$work/toy_midcut.json" --config "$work/plain.json" --seed 5 \
    --out "$out/run_midcut_constrained"
cli run --problem "$work/toy.json" --config "$work/moeei.json" --out "$out/run_moeei"
cli run --problem "$work/toy.json" --config "$work/defaults.json" --out "$out/run_defaults"
cli run --problem "$work/toy_subbox.json" --config "$work/plain.json" --seed 5 \
    --out "$out/run_subbox"
cli run --problem "$(cat "$work/toy_subbox.json")" --config "$work/plain.json" --seed 5 \
    --out "$out/run_subbox_inline"
cli run --problem "$work/toy.json" --config "$work/grid80.json" --out "$out/run_grid80"
cli study --problem "$work/toy.json" --config "$work/study.json" --replicates 2 \
    --out "$out/study"
cli oracle --problem "$work/toy.json" --resolution 200 --out "$out/oracle/front.csv"
cli oracle --problem "$work/toy.json" --resolution 500 --out "$out/oracle/front_500.csv"

cd "$out"
# Guard: some run must pool a repeated batch into an existing design point,
# or the listing says nothing about the loop's replicate path.
if ! awk -F, 'FNR == 1 { for (i = 1; i <= NF; i++) if ($i == "replications") col = i; next }
              col && $col > 1 { found = 1 } END { exit !found }' ./*/observations.csv; then
    echo "$0: no run has an observation with replications > 1" >&2
    exit 1
fi
find . -name '*.csv' | LC_ALL=C sort | xargs sha256sum
