"""The benchmark's metric table.

BENCHMARK.json at the repository root is the one source of the workloads,
the run length, and every gated metric's name, unit, direction and bound.
This module reads it and adds only what that file cannot hold: the metrics
printed but not gated, and for each per-layer metric the end-to-end metric
and workload it should move.
"""

import json
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
RUN_SECONDS = BENCHMARK["run_seconds"]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

# Printed and written to the run record but not gated. A stage exists only on
# some workloads (large_n has no CV, so its select_s is one chain read of
# ~0.05 s), and on this class of shared 2-core machine one stage of a few
# seconds or less reads up to 50% apart between identical runs, more than
# any allowed bound; every stage time adds into run_s, which is gated.
# failed_frac (printed with the failures by cause) is 0 on a healthy run:
# its gated form is the result's `attempted` and `failed`.
REPORTED_ONLY = {
    "simulate_s": "s",  # replication only
    "sample_s": "s",  # replication, large_n
    "select_s": "s",  # replication, chain_reuse; on large_n only `inclusion`
    "fit_s": "s",
    "predict_s": "s",
}

LAYERS = ("cli", "data", "design", "kernel", "model", "sampler", "predict", "select")

KERNEL_MOVES = "sample_s and fit_s on large_n; predict_s on chain_reuse"

# per-layer metric -> the end-to-end metric and workload it should move;
# a layer a workload never runs reads 0 there
SHOULD_MOVE = {
    "design.maximin_lhd.s": "simulate_s on replication; 0 elsewhere",
    "design.maximin_lhd.calls": "simulate_s on replication",
    "data.ingest.s": "run_s on chain_reuse",
    "data.ingest.calls": "run_s on chain_reuse",
    "sampler.save_chain.s": "sample_s on replication",
    "sampler.save_chain.mb": "sample_s on replication",
    "sampler.load_chain.s": "select_s, predict_s and peak_rss_mb on chain_reuse",
    "sampler.load_chain.calls": "select_s and predict_s on chain_reuse",
    "sampler.propose.us": "sample_s on replication",
    "sampler.propose.s": "sample_s on replication",
    "sampler.run_chain.self_s": "sample_s on replication",
    "sampler.accept_ratio": "sample_s on replication",
    "sampler.singular_rejects": "sample_s on replication",
    "model.log_prior.s": "sample_s on replication",
    "model.log_prior.calls": "sample_s on replication",
    "model.transforms.s": "sample_s on replication",
    "kernel.log_likelihood.us": KERNEL_MOVES,
    "kernel.log_likelihood.calls": KERNEL_MOVES,
    "kernel.corr.s": KERNEL_MOVES,
    "kernel.cholesky.s": KERNEL_MOVES,
    "kernel.cholesky.calls": KERNEL_MOVES,
    "kernel.cholesky.jittered": KERNEL_MOVES,
    "kernel.cholesky.singular": KERNEL_MOVES,
    "kernel.cholesky.gflop_computed": KERNEL_MOVES,
    "predict.fit_mle.s": "select_s on chain_reuse; fit_s on large_n",
    "predict.fit_mle.calls": "select_s on chain_reuse",
    "predict.fit_mle.nfev": "select_s on chain_reuse; fit_s on large_n",
    "predict.predict_mle.s": "predict_s on chain_reuse",
    "predict.model_average.s": "predict_s on chain_reuse",
    "predict.model_average.distinct_share": "predict_s on chain_reuse",
    "select.cross_validate.s": "select_s on chain_reuse and replication",
    "select.cv.fold_fits": "select_s on chain_reuse and replication",
    "select.cv.fold_failures": "failed_frac",
    "select.inclusion_probabilities.s": "select_s on chain_reuse",
    "select.candidate_ladder.len": "select_s on chain_reuse and replication",
    **{f"{layer}.self_s": "run_s on the workloads that run the layer" for layer in LAYERS},
    "trace.unattributed_s": "none; keeps the trace honest",
    "trace.overhead_s": "none; traced run_s minus untraced run_s",
}
