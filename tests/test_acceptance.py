"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The simulation-study replications (criteria 7/10) run once in a module
fixture; expect a few minutes of wall time for the whole module.
"""

import json
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

import gpselect as gs
from gpselect.cli import RunConfig, benchmark_methods, main, simulated_data
from gpselect.data import export_csv
from gpselect.predict import gls_fit
from gpselect.sampler import SamplerConfig
from gpselect.select import InclusionReport, candidate_ladder

from oracles import (
    dense_corr,
    dense_gls,
    fd_jacobian_logdet,
    loglik_oracle,
    profile_objective,
    random_dataset,
    random_state,
)

REP_SEEDS = (11, 12, 13, 14, 15)


def _verdict(num, name, ok):
    print(f"\nACCEPTANCE {num:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


# -----------------------------------------------------------------------
# criterion 1: likelihood oracle
# -----------------------------------------------------------------------
def test_criterion_01_likelihood_oracle():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(200):
        data = random_dataset(rng)
        _, state = random_state(rng, data.p)
        ll = gs.log_likelihood(data, state)
        oracle = loglik_oracle(data, state)
        worst = max(worst, abs(ll - oracle) / abs(oracle))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    print(f"  max rel err {worst:.2e}, elapsed {elapsed:.1f}s")
    _verdict(1, "likelihood matches dense MVN oracle", ok)


# -----------------------------------------------------------------------
# criterion 2: interpolation at lambda = 0
# -----------------------------------------------------------------------
def test_criterion_02_interpolation():
    # instances are screened so R itself is numerically nonsingular: smooth
    # Gaussian kernels on dense 1-d designs are rank-deficient in float64
    # and no method can interpolate through a singular system
    rng = np.random.default_rng(102)
    worst_cm = 0.0
    worst_mle = 0.0
    for i in range(50):
        while True:
            p = int(rng.integers(1, 4))
            n = int(rng.integers(6, 13)) if p == 1 else int(rng.integers(8, 26))
            X = np.empty((n, p))
            for j in range(p):
                X[:, j] = (rng.permutation(n) + rng.uniform(0.2, 0.8, size=n)) / n
            rho = rng.uniform(0.001, 0.3, size=p)
            if np.linalg.cond(dense_corr(X, rho)) < 1e9:
                break
        beta = rng.normal(scale=2.0, size=p)
        y = rng.normal() + X @ beta + rng.normal(scale=0.5, size=n)
        data = gs.Dataset(X=X, y=y, column_names=[f"x{j+1}" for j in range(p)])
        state = gs.ParameterState(
            beta0=float(rng.normal()), beta=beta, rho=rho,
            sigma2_z=1.0, lam=0.0, omega_r=0.5, omega_c=0.5,
        )
        req = gs.PredictionRequest(data.X)
        pred = gs.conditional_mean(data, state, req)
        worst_cm = max(worst_cm, float(np.max(np.abs(pred - data.y))))
        if i % 5 == 0:
            model = gs.ModelIndicator(
                rng.integers(0, 2, size=p), np.ones(p, dtype=int)
            )
            fit = gs.fit_mle(data, model, lambda_allowed=False, n_starts=2)
            pred2 = gs.predict_mle(fit, data, req)
            worst_mle = max(worst_mle, float(np.max(np.abs(pred2 - data.y))))
    ok = worst_cm <= 1e-8 and worst_mle <= 1e-8
    print(f"  worst conditional-mean gap {worst_cm:.2e}, worst MLE gap {worst_mle:.2e}")
    _verdict(2, "zero-nugget predictors interpolate training data", ok)


# -----------------------------------------------------------------------
# criterion 3: Jacobian against finite differences
# -----------------------------------------------------------------------
def test_criterion_03_jacobian():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        _, state = random_state(rng, 2)
        t = gs.to_unconstrained(state)
        worst = max(worst, abs(gs.log_jacobian(t) - fd_jacobian_logdet(t)))
    ok = worst <= 1e-6
    print(f"  max abs err {worst:.2e}")
    _verdict(3, "transform Jacobian matches finite differences", ok)


# -----------------------------------------------------------------------
# criterion 4: prior recovery under a flat likelihood
# -----------------------------------------------------------------------
def test_criterion_04_prior_recovery():
    rng = np.random.default_rng(104)
    data = random_dataset(rng, n=8, p=3)
    prior = gs.PriorConfig()
    cfg = SamplerConfig(n_iter=55000, burn_in=5000, seed=104, init="prior")
    t0 = time.time()
    chain = gs.run_chain(data, prior, cfg, flat_likelihood=True)
    elapsed = time.time() - t0
    assert len(chain) == 50000

    freqs = np.concatenate([chain.gamma_r.mean(0), chain.gamma_c.mean(0)])
    incl_ok = bool(np.all(np.abs(freqs - 0.5) <= 0.05))

    # thin to roughly independent draws before the two-sample tests
    stride = 200
    prior_rng = np.random.default_rng(1004)
    n_ref = 5000
    ref = {
        "sigma2_z": prior.sigma2_scale / prior_rng.gamma(prior.sigma2_shape, size=n_ref),
        "lam": prior.lambda_scale / prior_rng.gamma(prior.lambda_shape, size=n_ref),
        "omega_r": prior_rng.uniform(size=n_ref),
        "omega_c": prior_rng.uniform(size=n_ref),
    }
    pvals = {}
    for name, ref_draws in ref.items():
        sample = getattr(chain, name)[::stride]
        pvals[name] = ks_2samp(sample, ref_draws).pvalue
    ks_ok = all(p > 0.01 for p in pvals.values())

    ok = incl_ok and ks_ok and elapsed < 120.0
    print(
        f"  inclusion freq range [{freqs.min():.3f}, {freqs.max():.3f}], "
        f"KS p-values {{{', '.join(f'{k}: {v:.3f}' for k, v in pvals.items())}}}, "
        f"elapsed {elapsed:.0f}s"
    )
    _verdict(4, "flat-likelihood chain recovers the prior", ok)


# -----------------------------------------------------------------------
# criterion 5: GLS consistency at fixed correlation parameters
# -----------------------------------------------------------------------
def test_criterion_05_gls_consistency():
    rng = np.random.default_rng(105)
    worst_beta = 0.0
    worst_sig = 0.0
    for _ in range(100):
        data = random_dataset(rng, n=int(rng.integers(6, 21)), p=int(rng.integers(1, 5)))
        ind, state = random_state(rng, data.p)
        lam = float(rng.uniform(0.01, 0.5))
        beta0_hat, beta_full, sigma2, _ = gls_fit(data, ind, state.rho, lam)
        A = dense_corr(data.X, state.rho) + lam * np.eye(data.n)
        cols = [np.ones((data.n, 1))]
        active = np.where(ind.gamma_r == 1)[0]
        if active.size:
            cols.append(data.X[:, active])
        coef_o, sigma2_o = dense_gls(data.y, np.hstack(cols), A)
        worst_beta = max(
            worst_beta,
            abs(beta0_hat - coef_o[0]),
            float(np.max(np.abs(beta_full[active] - coef_o[1:]), initial=0.0)),
        )
        worst_sig = max(worst_sig, abs(sigma2 - sigma2_o))
    ok = worst_beta <= 1e-8 and worst_sig <= 1e-8
    print(f"  worst beta gap {worst_beta:.2e}, worst sigma2 gap {worst_sig:.2e}")
    _verdict(5, "inner GLS matches dense oracle", ok)


# -----------------------------------------------------------------------
# criterion 6: profile optimum beats a 50x50 grid
# -----------------------------------------------------------------------
def test_criterion_06_grid_optimality():
    r = np.random.default_rng(106)
    X = ((r.permutation(15) + 0.5) / 15).reshape(-1, 1)
    y = np.sin(5.0 * X[:, 0]) + 0.3 * X[:, 0] + 0.05 * r.normal(size=15)
    data = gs.Dataset(X=X, y=y, column_names=["x1"])
    model = gs.ModelIndicator([1], [1])
    fit = gs.fit_mle(data, model, lambda_allowed=True)
    grid_best = min(
        profile_objective(data, model, np.array([rho]), np.exp(loglam))
        for rho in np.linspace(1e-6, 1 - 1e-6, 50)
        for loglam in np.linspace(-12, 3, 50)
    )
    ok = fit.neg_log_lik <= grid_best + 1e-6
    print(f"  optimizer {fit.neg_log_lik:.6f} vs grid best {grid_best:.6f}")
    _verdict(6, "profile optimum at or below grid oracle", ok)


# -----------------------------------------------------------------------
# criteria 7 + 10: simulation-study replications
# -----------------------------------------------------------------------
@pytest.fixture(scope="module")
def replications():
    """Five seeded desk-scale replications of the synthetic study.

    Uses the plain-ratio sampler variant (the published procedure's
    behavior); the corrected default is exercised by criterion 4. 50,000
    post-burn-in draws per replication.
    """
    results = []
    t_all = time.time()
    for seed in REP_SEEDS:
        cfg = RunConfig()
        cfg.sampler = SamplerConfig(
            n_iter=70000,
            burn_in=20000,
            seed=seed,
            init="empty",
            slab_correction=False,
        )
        res = benchmark_methods(*simulated_data(cfg, seed), cfg, seed=seed)
        res["seed"] = seed
        results.append(res)
        r = res["rmspe"]
        print(
            f"\n  replication seed={seed}: "
            f"p_r={np.round(res['inclusion']['p_r'], 3)} "
            f"p_c={np.round(res['inclusion']['p_c'], 3)} "
            f"ok={r['ok']:.3f} uk={r['uk']:.3f} avg={r['averaging']:.3f} "
            f"pi={r['posterior_inclusion']:.3f} map={r['map']:.3f}"
        )
    elapsed = time.time() - t_all
    print(f"  total replication time {elapsed:.0f}s")
    return {"results": results, "elapsed": elapsed}


def test_criterion_07_simulation_study(replications):
    majority = len(REP_SEEDS) // 2 + 1

    def count(pred):
        return sum(1 for res in replications["results"] if pred(res))

    n_pattern = count(
        lambda res: res["inclusion"]["p_c"][0] >= 0.8
        and res["inclusion"]["p_c"][1] >= 0.8
        and res["inclusion"]["p_c"][2] >= 0.8
        and res["inclusion"]["p_r"][3] >= 0.8
    )
    n_x5_low = count(
        lambda res: res["inclusion"]["p_r"][4] <= 0.5
        and res["inclusion"]["p_c"][4] <= 0.5
    )
    n_pi_beats_uk = count(
        lambda res: res["rmspe"]["posterior_inclusion"] < res["rmspe"]["uk"]
    )
    n_order = count(
        lambda res: res["rmspe"]["ok"] > res["rmspe"]["uk"]
        > res["rmspe"]["posterior_inclusion"]
    )
    print(
        f"  inclusion pattern {n_pattern}/5, X5 low {n_x5_low}/5, "
        f"PI<UK {n_pi_beats_uk}/5, OK>UK>PI {n_order}/5 (majority = {majority}), "
        f"elapsed {replications['elapsed']:.0f}s"
    )
    ok = (
        n_pattern >= majority
        and n_x5_low >= majority
        and n_pi_beats_uk >= 3
        and n_order >= majority
        and replications["elapsed"] < 1800.0
    )
    _verdict(7, "simulation-study replication at desk scale", ok)


# -----------------------------------------------------------------------
# criterion 8: ladder bound and nesting
# -----------------------------------------------------------------------
def test_criterion_08_ladder_bound(replications):
    rng = np.random.default_rng(108)
    reports = [
        InclusionReport(
            p_r=np.array(res["inclusion"]["p_r"]),
            p_c=np.array(res["inclusion"]["p_c"]),
            model_freqs={},
        )
        for res in replications["results"]
    ]
    # adversarial synthetic reports, including the everything-in-band case
    for _ in range(200):
        p = int(rng.integers(1, 8))
        reports.append(
            InclusionReport(p_r=rng.uniform(size=p), p_c=rng.uniform(size=p), model_freqs={})
        )
    reports.append(
        InclusionReport(p_r=np.full(4, 0.5), p_c=np.full(4, 0.5), model_freqs={})
    )
    ok = True
    for rep in reports:
        ladder = candidate_ladder(rep)
        if not 1 <= len(ladder) <= 2 * rep.p:
            ok = False
        for a, b in zip(ladder, ladder[1:]):
            if not (np.all(a.gamma_r <= b.gamma_r) and np.all(a.gamma_c <= b.gamma_c)):
                ok = False
    print(f"  {len(reports)} reports checked")
    _verdict(8, "candidate ladder bounded by 2p and nested", ok)


# -----------------------------------------------------------------------
# criterion 9: byte-identical reruns
# -----------------------------------------------------------------------
def test_criterion_09_determinism(tmp_path):
    rng = np.random.default_rng(109)
    X = np.empty((12, 2))
    X[:, 0] = (rng.permutation(12) + 0.5) / 12
    X[:, 1] = (rng.permutation(12) + 0.5) / 12
    y = 1.0 + X[:, 0] + np.sin(4 * X[:, 1]) + rng.normal(scale=0.05, size=12)
    data_csv = tmp_path / "data.csv"
    export_csv(gs.Dataset(X=X, y=y, column_names=["x1", "x2"]), data_csv)
    sites_csv = tmp_path / "sites.csv"
    export_csv(
        gs.Dataset(X=rng.uniform(size=(6, 2)), y=np.zeros(6), column_names=["x1", "x2"]),
        sites_csv,
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"sampler": {"n_iter": 1500, "burn_in": 300, "seed": 77}})
    )

    chains, preds = [], []
    for tag in ("a", "b"):
        out = tmp_path / f"run_{tag}"
        assert main([
            "--config", str(cfg_path), "--output-dir", str(out),
            "sample", "--data", str(data_csv), "--response", "y",
        ]) == 0
        chains.append((out / "chain.jsonl").read_bytes())
        pout = tmp_path / f"pred_{tag}"
        assert main([
            "--config", str(cfg_path), "--output-dir", str(pout),
            "predict", "--mode", "average",
            "--data", str(data_csv), "--response", "y",
            "--sites", str(sites_csv), "--chain", str(out / "chain.jsonl"),
        ]) == 0
        preds.append((pout / "predictions.csv").read_bytes())

    ok = chains[0] == chains[1] and preds[0] == preds[1]
    print(f"  chain bytes equal: {chains[0] == chains[1]}, prediction bytes equal: {preds[0] == preds[1]}")
    _verdict(9, "identical seeds give byte-identical outputs", ok)


# -----------------------------------------------------------------------
# criterion 10: substituted benchmark property
# -----------------------------------------------------------------------
def test_criterion_10_benchmark_property(replications, tmp_path):
    # (a) cmd_benchmark completes five finite rows on an ingested dataset
    rng = np.random.default_rng(110)
    X = np.empty((24, 3))
    for j in range(3):
        X[:, j] = (rng.permutation(24) + 0.5) / 24
    y = 0.5 + 2 * X[:, 0] + np.sin(5 * X[:, 1]) + rng.normal(scale=0.1, size=24)
    data_csv = tmp_path / "bench.csv"
    export_csv(gs.Dataset(X=X, y=y, column_names=["x1", "x2", "x3"]), data_csv)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"sampler": {"n_iter": 2000, "burn_in": 400, "seed": 5}})
    )
    out = tmp_path / "bench_out"
    rc = main([
        "--config", str(cfg_path), "--output-dir", str(out),
        "benchmark", "--data", str(data_csv), "--response", "y",
        "--holdout-fraction", "0.25",
    ])
    lines = (out / "benchmark.csv").read_text().strip().splitlines()
    methods = [l.split(",")[0] for l in lines[1:]]
    finite = all(np.isfinite(float(l.split(",")[1])) for l in lines[1:])
    rows_ok = rc == 0 and methods == [
        "ok", "uk", "averaging", "posterior_inclusion", "map",
    ] and finite

    # (b) on the synthetic study, PI is never worse than both OK and UK in a
    # majority of the replications
    n_not_worst = sum(
        1
        for res in replications["results"]
        if res["rmspe"]["posterior_inclusion"] <= res["rmspe"]["ok"]
        or res["rmspe"]["posterior_inclusion"] <= res["rmspe"]["uk"]
    )
    print(f"  benchmark rows finite: {finite}; PI not-worst in {n_not_worst}/5")
    ok = rows_ok and n_not_worst >= 3
    _verdict(10, "benchmark completes and PI is competitive", ok)
