#!/usr/bin/env bash
# Run the models of the CI `reports` job with the obscheck source under ROOT
# and keep what each run leaves in OUTDIR: MODEL.json (the report),
# MODEL.csv (--plot), MODEL.stdout, MODEL.stderr, MODEL.exit and the
# sample-set cache cache-MODEL/.  It also runs `obscheck samples` twice and
# keeps SET.csv, SET.stdout, SET.stderr and SET.exit of each in
# OUTDIR/samples/.  Run it once per side of a change, into two directories,
# and compare them as the job does, with `diff -r OUTDIR_BASE OUTDIR_HEAD`:
# the one line of each stdout that names a path is masked, so the trees match
# file for file.  After each model run it also renders MODEL.json with
# `obscheck report` from ROOT's source, and exits 1, naming the model, when
# that text differs from the run's stdout without its last line.
#
#     scripts/run_reports.sh ROOT OUTDIR
#
# OUTDIR must be missing or empty: a run into a used one would start on warm
# caches, place nothing and print no placement warnings, so the script exits 2
# before it writes anything.  The models that are not bundled are written to
# OUTDIR/models; a report names a model file by its stem, so the directory
# does not show in the outputs.
set -eo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 ROOT OUTDIR" >&2
  exit 2
fi
root=$1 dir=$2
if [ -d "$dir" ] && [ -n "$(ls -A "$dir")" ]; then
  echo "$0: OUTDIR $dir is not empty" >&2
  exit 2
fi
# the 8 bundled models, then the written ones
OBSERVABLE="unknown_variance mean_and_variance ratio_mean_scale_sqrt_a ratio_mean_scale_sqrt_ab"
OTHERS="additive_mean_pair product_mean ratio_mean_scale_sqrt_ratio reciprocal_mean"
INFEASIBLE="neg2l_not_finite scale_cube_underflows observations_overflow scale_fourth_power_underflows"
OPERATORS="power_scale log_exp_scale power_mean precedence_mix abs_neg_call"
CAPPED="ratio_ab_no_maximum"
# two observable models run with --random-baseline, so the baseline's
# records, whose checks come from the same fit as the others, are compared
# too
BASELINE="mean_and_variance ratio_mean_scale_sqrt_ab"
models=$dir/models

mkdir -p "$models"
(
  cd "$models"
  # No bundled model starts infeasible anywhere, so these three do,
  # everywhere, as in test_infeasible_start_everywhere_exit_three: their
  # reports hold the failure reasons of the posterior's feasibility rule.
  echo '{"parameters": [{"name": "b", "true_value": 1e200}], "mean": "0", "scale": "b"}' \
    > neg2l_not_finite.json
  echo '{"parameters": [{"name": "b", "true_value": 1e-120}], "mean": "0", "scale": "b"}' \
    > scale_cube_underflows.json
  echo '{"parameters": [{"name": "b", "true_value": 1e308}], "mean": "0", "scale": "b * 1.6"}' \
    > observations_overflow.json
  # No bundled maximum has an infeasible Hessian either, so this one fits to
  # a scale whose fourth power underflows: its checks carry the reason that
  # only the Hessian's test gives.
  echo '{"parameters": [{"name": "b", "true_value": 1e-90}], "mean": "0", "scale": "b"}' \
    > scale_fourth_power_underflows.json
  # No bundled model uses ^, log or exp, so the first three here do.  The
  # fourth mixes every precedence level with unary minus: its report prints
  # the parsed expressions, so equal reports show the parse trees unchanged
  # end to end.  No bundled model calls abs or neg(...), so the fifth does.
  parameters='[{"name": "a", "true_value": 0.6}, {"name": "b", "true_value": 0.4}]'
  echo "{\"parameters\": $parameters, \"mean\": \"a / b\", \"scale\": \"a ^ 0.5\"}" \
    > power_scale.json
  echo "{\"parameters\": $parameters, \"mean\": \"a\", \"scale\": \"exp(0.5 * log(b))\", \"log_prior\": \"-log(b)\"}" \
    > log_exp_scale.json
  echo "{\"parameters\": $parameters, \"mean\": \"(a - 1) ^ 3 + a ^ b\", \"scale\": \"b ^ 2\"}" \
    > power_mean.json
  echo "{\"parameters\": $parameters, \"mean\": \"-a ^ 2 * b - -a / b + a - b - 1\", \"scale\": \"(2 ^ b) ^ 0.5 / (1 + a * a)\", \"log_prior\": \"-(a - 0.5) ^ 2 * 2 - b / 2\"}" \
    > precedence_mix.json
  echo "{\"parameters\": $parameters, \"mean\": \"abs(a - 1) * b + neg(a) / 3\", \"scale\": \"sqrt(abs(b))\", \"log_prior\": \"-abs(a)\"}" \
    > abs_neg_call.json
  # Every bundled fit converges, so this one, ratio_mean_scale_sqrt_ab at
  # other true values, has three rows of eight whose posterior has no
  # maximum: their fits run to the iteration cap, so the reports cover the
  # cap path end to end.
  echo '{"parameters": [{"name": "a", "true_value": 1.438}, {"name": "b", "true_value": 3.0}], "mean": "a / b", "scale": "sqrt(a * b)"}' \
    > ratio_ab_no_maximum.json
)

for model in $OBSERVABLE $OTHERS $INFEASIBLE $OPERATORS $CAPPED; do
  source=$model horizons=4 count=200
  case " $OBSERVABLE $OPERATORS " in *" $model "*) horizons=4,20 ;; esac
  case " $INFEASIBLE $CAPPED " in *" $model "*) source=$models/$model.json count=8 ;; esac
  case " $OPERATORS " in *" $model "*) source=$models/$model.json ;; esac
  baseline=
  case " $BASELINE " in *" $model "*) baseline=--random-baseline ;; esac
  code=0
  PYTHONPATH=$root/src python -m obscheck run --model "$source" --T "$horizons" \
    --K "$count" --placement-iters 150 $baseline \
    --cache-dir "$dir/cache-$model" --out "$dir/$model.json" \
    --plot "$dir/$model.csv" > "$dir/$model.stdout" 2> "$dir/$model.stderr" || code=$?
  echo "$code" > "$dir/$model.exit"
  # the path differs between the sides
  sed -i 's|^report written to .*|report written to OUT|' "$dir/$model.stdout"
  # exit 3 is the verdict NOT_OBSERVABLE, not a failure
  case $code in 0|3) ;; *) echo "$root $model exited $code"; exit 1 ;; esac
  # the report renders to what its run printed, but for the last line,
  # which names the report's path
  if ! diff <(head -n -1 "$dir/$model.stdout") \
      <(PYTHONPATH=$root/src python -m obscheck report "$dir/$model.json"); then
    echo "$root $model: obscheck report differs from its run's output"
    exit 1
  fi
done

# two sets of `obscheck samples`, one of odd M, which pins a point at the
# origin, and one of even M; each run prints its set's lcd_distance, which
# the reference kernel samples._distance_impl computes
mkdir -p "$dir/samples"
for dim_count in 2:5 3:8; do
  dim=${dim_count%:*} count=${dim_count#*:}
  out=$dir/samples/d${dim}_M$count
  code=0
  PYTHONPATH=$root/src python -m obscheck samples --dim "$dim" --count "$count" \
    --out "$out.csv" > "$out.stdout" 2> "$out.stderr" || code=$?
  echo "$code" > "$out.exit"
  # the path differs between the sides
  sed -i 's|^\(wrote .* points to \).*|\1OUT|' "$out.stdout"
  case $code in 0) ;; *) echo "$root samples d${dim}_M$count exited $code"; exit 1 ;; esac
done
