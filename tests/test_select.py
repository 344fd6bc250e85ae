import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import gpselect

from gpselect import (
    Dataset,
    ModelIndicator,
    PriorConfig,
    SamplerConfig,
    ValidationError,
    candidate_ladder,
    cross_validate,
    fit_mle,
    inclusion_probabilities,
    map_model,
    maximin_lhd,
    run_chain,
    threshold_model,
)
from gpselect.predict import LOG_LAMBDA_BOUNDS, POOL_MIN_ROWS, _workers
from gpselect.select import InclusionReport, _cv_folds, implied_cutoffs


def _chain_from_keys(keys):
    """Minimal chain stub: only the fields selection code touches, one row
    per key (a distinct log_post makes each draw its own run)."""
    from gpselect.sampler import Chain

    n = len(keys)
    p = len(keys[0][0])
    flags = np.ones(n, dtype=bool)
    return Chain(
        gamma_r=np.array([k[0] for k in keys], dtype=np.int8),
        gamma_c=np.array([k[1] for k in keys], dtype=np.int8),
        beta0=np.zeros(n),
        beta=np.zeros((n, p)),
        rho=np.ones((n, p)),
        sigma2_z=np.ones(n),
        lam=np.full(n, 0.1),
        omega_r=np.full(n, 0.5),
        omega_c=np.full(n, 0.5),
        log_posts=np.arange(n, dtype=float),
        run_of=np.arange(n),
        iters=np.arange(n),
        accepted=flags,
        draw_accepted=flags,
    )


def _report(p_r, p_c, freqs=None):
    return InclusionReport(
        p_r=np.asarray(p_r, dtype=float),
        p_c=np.asarray(p_c, dtype=float),
        model_freqs=freqs or {},
    )


def test_single_model_chain():
    key = ((1, 0), (0, 1))
    chain = _chain_from_keys([key] * 6)
    rep = inclusion_probabilities(chain)
    assert rep.model_freqs == {key: 1.0}
    assert list(rep.p_r) == [1.0, 0.0]
    assert list(rep.p_c) == [0.0, 1.0]


def test_inclusion_hand_count():
    keys = [
        ((1, 0, 0), (0, 0, 0)),
        ((1, 1, 0), (0, 0, 0)),
        ((0, 0, 0), (1, 0, 0)),
        ((1, 0, 0), (0, 0, 0)),
    ]
    rep = inclusion_probabilities(_chain_from_keys(keys))
    assert rep.p_r[0] == pytest.approx(0.75)
    assert rep.p_r[1] == pytest.approx(0.25)
    assert rep.p_c[0] == pytest.approx(0.25)
    # exact rational frequencies
    assert float(rep.p_r[0] * 4) == 3.0
    assert sum(rep.model_freqs.values()) == pytest.approx(1.0)
    # models in order of first appearance, which to_dict uses to break ties
    assert list(rep.model_freqs.items()) == [(keys[0], 0.5), (keys[1], 0.25), (keys[2], 0.25)]


def test_map_model_direct_max():
    a = ((1, 0), (0, 0))
    b = ((0, 1), (1, 1))
    rep = _report([0.6, 0.4], [0.4, 0.4], {a: 0.6, b: 0.4})
    assert map_model(rep).key() == a


def test_map_model_tie_breaks_to_sparser():
    sparse = ((1, 0), (0, 0))
    dense = ((1, 1), (1, 0))
    rep = _report([1, 0.5], [0.5, 0], {dense: 0.5, sparse: 0.5})
    assert map_model(rep).key() == sparse


def test_threshold_model_basic():
    rep = _report([0.9, 0.1], [0.3, 0.7])
    m = threshold_model(rep, 0.5)
    assert list(m.gamma_r) == [1, 0]
    assert list(m.gamma_c) == [0, 1]


def test_threshold_model_boundary_and_monotone(rng):
    for _ in range(30):
        p = int(rng.integers(1, 6))
        rep = _report(rng.uniform(size=p), rng.uniform(size=p))
        q1, q2 = sorted(rng.uniform(0.05, 0.95, size=2))
        m1 = threshold_model(rep, q1)
        m2 = threshold_model(rep, q2)
        # higher threshold keeps a subset
        assert np.all(m2.gamma_r <= m1.gamma_r)
        assert np.all(m2.gamma_c <= m1.gamma_c)
    rep = _report([0.9, 0.1], [0.3, 0.7])
    empty = threshold_model(rep, 0.9000001)
    assert empty.n_active() == 0


def test_ladder_rule_application():
    # probabilities (0.95, 0.5, 0.2): one automatic, one banded, one dropped
    rep = _report([0.95, 0.5], [0.2, 0.0])
    ladder = candidate_ladder(rep, 0.30, 0.90)
    assert len(ladder) == 2
    assert ladder[0].key() == ((1, 0), (0, 0))
    assert ladder[1].key() == ((1, 1), (0, 0))


def test_ladder_single_candidate_when_all_high():
    rep = _report([0.95, 0.99], [0.91, 0.97])
    ladder = candidate_ladder(rep)
    assert len(ladder) == 1
    assert ladder[0].n_active() == 4


def test_ladder_nested_and_bounded(rng):
    for _ in range(50):
        p = int(rng.integers(1, 7))
        rep = _report(rng.uniform(size=p), rng.uniform(size=p))
        ladder = candidate_ladder(rep)
        assert 1 <= len(ladder) <= 2 * p
        for a, b in zip(ladder, ladder[1:]):
            assert np.all(a.gamma_r <= b.gamma_r)
            assert np.all(a.gamma_c <= b.gamma_c)
            assert b.n_active() == a.n_active() + 1


def test_ladder_all_banded_still_bounded():
    # every indicator in the band would give 2p + 1 prefixes; the bare
    # automatic (empty) model is dropped to keep the 2p bound
    p = 3
    rep = _report(np.full(p, 0.5), np.full(p, 0.6))
    ladder = candidate_ladder(rep)
    assert len(ladder) == 2 * p
    assert ladder[0].n_active() == 1


def test_implied_cutoffs_reproduce_candidates():
    rep = _report([0.95, 0.5], [0.35, 0.1])
    ladder = candidate_ladder(rep)
    cuts = implied_cutoffs(rep, ladder)
    for cand, q in zip(ladder, cuts):
        assert threshold_model(rep, q) == cand


def test_cross_validate_single_candidate(small_data):
    cand = [ModelIndicator([1, 0], [0, 1])]
    rep = cross_validate(small_data, cand, v=3, seed=1)
    assert rep.chosen == 0
    assert rep.chosen_1se == 0
    assert np.isfinite(rep.cv_rmspe[0])


def test_cross_validate_runs_in_one_process_without_an_affinity_call(small_data,
                                                                     monkeypatch):
    cands = [ModelIndicator([1, 0], [0, 1]), ModelIndicator([1, 1], [1, 1])]
    expected = cross_validate(small_data, cands, v=3, seed=1).to_dict()
    monkeypatch.delattr(os, "sched_getaffinity")
    rep = cross_validate(small_data, cands, v=3, seed=1)
    assert rep.workers == 1
    assert rep.to_dict() == expected


def test_cross_validate_generator_wins(rng):
    # noiseless linear truth: the generating model should dominate
    X = rng.uniform(size=(24, 2))
    y = 1.0 + 2.5 * X[:, 0]
    data = Dataset(X=X, y=y, column_names=["a", "b"])
    generator = ModelIndicator([1, 0], [0, 0])
    wrong = ModelIndicator([0, 1], [0, 0])
    rep = cross_validate(data, [wrong, generator], v=4, seed=2)
    assert rep.chosen == 1
    assert rep.cv_rmspe[1] < rep.cv_rmspe[0]


def test_cross_validate_deterministic_and_order_invariant(small_data):
    cands = [
        ModelIndicator([1, 0], [0, 1]),
        ModelIndicator([0, 0], [1, 1]),
        ModelIndicator([1, 1], [1, 1]),
    ]
    rep1 = cross_validate(small_data, cands, v=3, seed=7)
    rep2 = cross_validate(small_data, cands, v=3, seed=7)
    assert np.array_equal(rep1.cv_rmspe, rep2.cv_rmspe)
    assert rep1.chosen == rep2.chosen
    perm = [2, 0, 1]
    rep3 = cross_validate(small_data, [cands[i] for i in perm], v=3, seed=7)
    assert cands[rep1.chosen] == [cands[i] for i in perm][rep3.chosen]
    for i, pi in enumerate(perm):
        assert rep3.cv_rmspe[i] == pytest.approx(rep1.cv_rmspe[pi], rel=1e-12)


def test_cross_validate_reports_the_fold_fits_evaluations_and_box_ends():
    # a smooth noiseless response: every ordinary-kriging fold fit puts the
    # nugget on the lower end of its box, lambda = e^-12
    X = maximin_lhd(35, 5, seed=11, n_restarts=1).points
    y = np.sin(2.0 * X[:, 0]) + X[:, 1] ** 2
    data = Dataset(X=X, y=(y - y.mean()) / y.std(), column_names=[f"x{j}" for j in range(1, 6)])
    ok = ModelIndicator(np.zeros(5, dtype=int), np.ones(5, dtype=int))
    entry = cross_validate(data, [ok], v=8, seed=0).to_dict()["candidates"][0]

    fits = [fit_mle(data.subset(np.setdiff1d(np.arange(35), fold)), ok)
            for fold in _cv_folds(35, 8, seed=0)]
    assert all(f.lambda_hat == np.exp(LOG_LAMBDA_BOUNDS[0]) for f in fits)
    assert entry["fold_evals"] == sum(f.n_evals for f in fits) > 0
    assert entry["fold_at_bound"]["lambda:lower"] == 8
    assert entry["fold_at_bound"] == dict(Counter(b for f in fits for b in f.at_bound))
    assert entry["fold_status"] == dict(Counter(str(f.best_start["status"]) for f in fits))
    assert sum(entry["fold_status"].values()) == 8


def test_cross_validate_one_se_prefers_sparse(rng):
    # two near-equivalent candidates: 1-SE pick must not be denser than the
    # minimizer when both are within one standard error
    X = rng.uniform(size=(20, 2))
    y = 1.0 + 2.0 * X[:, 0] + rng.normal(scale=0.4, size=20)
    data = Dataset(X=X, y=y, column_names=["a", "b"])
    lean = ModelIndicator([1, 0], [0, 0])
    rich = ModelIndicator([1, 1], [1, 1])
    rep = cross_validate(data, [rich, lean], v=4, seed=5)
    cands = [rich, lean]
    if rep.cv_rmspe[rep.chosen_1se] <= rep.cv_rmspe[rep.chosen] + rep.cv_se[rep.chosen]:
        assert cands[rep.chosen_1se].n_active() <= cands[rep.chosen].n_active()


def test_cross_validate_validation_errors(small_data):
    with pytest.raises(ValidationError):
        cross_validate(small_data, [ModelIndicator([1, 0], [0, 0])], v=1)
    with pytest.raises(ValidationError):
        cross_validate(small_data, [ModelIndicator([1, 0], [0, 0])], v=99)
    with pytest.raises(ValidationError):
        cross_validate(small_data, [], v=3)


# fits over enough training rows in all for a pool
ROWS = 10 * POOL_MIN_ROWS


@pytest.mark.parametrize("environ, cpus, n_jobs, rows, workers", [
    ({}, 2, 48, ROWS, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 48, ROWS, 2),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2, 48, ROWS, 1),
    ({"OMP_NUM_THREADS": "1"}, 2, 48, ROWS, 2),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 48, ROWS, 1),
    ({"OPENBLAS_NUM_THREADS": "0"}, 2, 48, ROWS, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 48, ROWS, 2),
    ({"OPENBLAS_NUM_THREADS": "one"}, 2, 48, ROWS, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 1, ROWS, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, 48, ROWS, 1),
    ({"OPENBLAS_NUM_THREADS": "8"}, 2, 48, ROWS, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, 8, 48, ROWS, 4),
    # "²" is a digit to str.isdigit, but not to int() or OpenBLAS's atoi
    ({"OPENBLAS_NUM_THREADS": "²"}, 2, 48, ROWS, 1),
    ({"OPENBLAS_NUM_THREADS": "²", "OMP_NUM_THREADS": "1"}, 2, 48, ROWS, 2),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 48, POOL_MIN_ROWS - 1, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 48, POOL_MIN_ROWS, 2),
    ({"GOTO_NUM_THREADS": "1"}, 2, 48, ROWS, 2),
    ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 48, ROWS, 1),
    ({"OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": "1"}, 2, 48, ROWS, 1),
    # atoi reads the leading digits, after an optional sign
    ({"OPENBLAS_NUM_THREADS": "1x"}, 2, 48, ROWS, 2),
    ({"OPENBLAS_NUM_THREADS": "+1"}, 2, 48, ROWS, 2),
], ids=["unset", "openblas_1", "openblas_2", "omp_1", "openblas_before_omp", "zero_is_unset",
        "zero_then_omp", "non_numeric_is_unset", "one_job", "one_cpu", "more_threads_than_cpus",
        "two_threads_on_8_cpus", "non_ascii_digit_is_unset", "non_ascii_digit_then_omp",
        "below_the_row_floor", "at_the_row_floor", "goto_1", "goto_before_omp",
        "openblas_before_goto", "leading_digits", "plus_sign"])
def test_cv_workers_leave_one_cpu_per_blas_thread(environ, cpus, n_jobs, rows, workers):
    assert _workers(environ, cpus, n_jobs, rows, POOL_MIN_ROWS) == workers


BLAS_THREADS_PROBE = """
import re
import numpy as np
a = np.ones((64, 64))
a @ a
with open("/proc/self/status") as fh:
    print(re.search(r"^Threads:\\s*(\\d+)", fh.read(), re.M)[1])
"""


def _numpy_blas_is_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas.lower()


# explicit settings only, none of more than 2 threads, so that a probe
# process stays small on any host
@pytest.mark.parametrize("setting", [
    {"OPENBLAS_NUM_THREADS": "1"},
    {"OPENBLAS_NUM_THREADS": "2"},
    {"OMP_NUM_THREADS": "1"},
    {"GOTO_NUM_THREADS": "1"},
    {"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"},
    {"OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": "1"},
    {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"},
    {"OPENBLAS_NUM_THREADS": "1x"},
    {"OPENBLAS_NUM_THREADS": "+1"},
    {"OPENBLAS_NUM_THREADS": " 2"},
], ids=lambda setting: ",".join(f"{k.split('_')[0]}={v!r}" for k, v in setting.items()))
def test_workers_follow_the_blas_library_thread_count(setting):
    """_workers leaves one CPU per thread that numpy's OpenBLAS really runs
    under each setting, read from a fresh process after one matmul."""
    if not os.path.exists("/proc/self/status") or not _numpy_blas_is_openblas():
        pytest.skip("needs /proc/self/status and numpy built with OpenBLAS")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_PROBE], env={**env, **setting},
                          capture_output=True, text=True, check=True, timeout=60)
    threads = int(proc.stdout)
    cpus = len(os.sched_getaffinity(0))
    assert _workers(setting, cpus, 10**6, 10**6, POOL_MIN_ROWS) == max(1, cpus // threads)


# run in a fresh interpreter whose OpenBLAS starts with one thread: CV of
# three candidates on one CPU and then on every CPU, with two fold fits
# singular, then a CV whose fold fit raises an error CV does not catch.
# The pool's row floor is set to 0, so that this small CV forks workers.
# Prints one JSON line per CPU set.
CV_WORKERS_PROBE = """
import json, logging, multiprocessing, os
import numpy as np
import gpselect.select as select
from gpselect import Dataset, ModelIndicator, NumericalSingularityError, predict

select.POOL_MIN_ROWS = 0

rng = np.random.default_rng(3)
X = rng.uniform(size=(12, 2))
data = Dataset(X=X, y=1.0 + 2.0 * X[:, 0] + np.sin(3.0 * X[:, 1]), column_names=["a", "b"])
cands = [ModelIndicator([1, 0], [0, 1]), ModelIndicator([0, 0], [1, 1]),
         ModelIndicator([1, 1], [1, 1])]
folds = select._cv_folds(12, 3, seed=4)
fit_mle = select.fit_mle

def failing(jobs, error):
    # fit_mle, raising error on each (candidate, fold) of jobs
    def fit(train, model):
        for ci, fi in jobs:
            if model == cands[ci] and np.array_equal(
                    train.X, X[np.setdiff1d(np.arange(12), folds[fi])]):
                raise error
        return fit_mle(train, model)
    return fit

warnings = []
handler = logging.Handler()
handler.emit = lambda record: warnings.append(record.getMessage())
logging.getLogger("gpselect.select").addHandler(handler)
for cpus in [[0]] + ([sorted(os.sched_getaffinity(0))] if os.environ["ALL_CPUS"] == "1" else []):
    os.sched_setaffinity(0, cpus)
    warnings.clear()
    select.fit_mle = failing([(2, 0), (1, 2)], NumericalSingularityError("not factorable"))
    report = select.cross_validate(data, cands, 3, seed=4)
    after_return = multiprocessing.active_children()
    select.fit_mle = failing([(2, 1)], RuntimeError("unexpected"))
    try:
        select.cross_validate(data, cands, 3, seed=4)
        raised = None
    except RuntimeError as exc:
        raised = str(exc)
    print(json.dumps({"workers": report.workers, "report": json.dumps(report.to_dict()),
                      "warnings": warnings, "raised": raised,
                      "children": [len(after_return), len(multiprocessing.active_children())]}))
"""


def test_cross_validate_in_worker_processes_matches_one_process():
    all_cpus = len(os.sched_getaffinity(0)) >= 2
    env = dict(os.environ, PYTHONPATH=str(Path(gpselect.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", ALL_CPUS=str(int(all_cpus)))
    proc = subprocess.run([sys.executable, "-c", CV_WORKERS_PROBE], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [run["workers"] for run in runs] == [1, 2][:len(runs)]
    for run in runs:
        assert run["warnings"] == ["candidate 1 fold 2 failed: not factorable",
                                   "candidate 2 fold 0 failed: not factorable"]
        failed = [c["failed_folds"] for c in json.loads(run["report"])["candidates"]]
        assert failed == [0, 1, 1]
        assert run["raised"] == "unexpected"
        assert run["children"] == [0, 0]
    if not all_cpus:
        pytest.skip("one CPU: the run in two worker processes needs two")
    assert runs[0]["report"] == runs[1]["report"]


def test_fold_sizes_differ_by_at_most_one(small_data):
    folds = _cv_folds(10, 3, seed=0)
    sizes = sorted(len(f) for f in folds)
    assert sizes == [3, 3, 4]
    assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(10))


def test_reports_from_real_chain(small_data, tmp_path):
    cfg = SamplerConfig(n_iter=400, burn_in=100, seed=1)
    chain = run_chain(small_data, PriorConfig(), cfg)
    rep = inclusion_probabilities(chain)
    assert np.all((rep.p_r >= 0) & (rep.p_r <= 1))
    assert sum(rep.model_freqs.values()) == pytest.approx(1.0)
    # exact rational frequencies over the chain length
    for prob in list(rep.model_freqs.values())[:5]:
        assert prob * len(chain) == pytest.approx(round(prob * len(chain)), abs=1e-9)
    ladder = candidate_ladder(rep)
    assert 1 <= len(ladder) <= 2 * small_data.p
