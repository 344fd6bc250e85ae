"""Command-line entry point and pipeline orchestration.

Subcommands cover the whole workflow: simulate data, run the sampler,
summarize inclusion probabilities, cross-validate the candidate ladder, fit
a chosen model by maximum likelihood, predict at new sites, and benchmark
the prediction strategies against each other on a holdout set.

All outputs are plain files (CSV / JSON / JSON-Lines) and every command is
reproducible given its seed; wall-clock timestamps only ever land in the
run_meta.json side file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import design, predict, sampler, select
from .data import Dataset, export_csv, ingest, read_sites_csv, split_rows
from .errors import (
    GpSelectError,
    NumericalSingularityError,
    OptimizationFailureError,
    ValidationError,
)
from .model import ModelIndicator, PriorConfig
from .predict import MleFit, PredictionRequest
from .sampler import SamplerConfig

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


@dataclass
class SelectConfig:
    low: float = 0.30
    high: float = 0.90
    q: float = 0.8
    v_folds: int = 8

    def validate(self) -> None:
        for name in ("low", "high", "q"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValidationError(f"select.{name} must lie in [0, 1], got {val}")
        if not self.low < self.high:
            raise ValidationError("select.low must be below select.high")
        if self.v_folds < 2:
            raise ValidationError("select.v_folds must be at least 2")


@dataclass
class SimulateConfig:
    n_train: int = 35
    n_validation: int = 100
    noise_sd: float = 0.1
    box: tuple = (-0.75, 0.75)
    lhd_restarts: int = 4


@dataclass
class RunConfig:
    """Single JSON document configuring the whole pipeline."""

    prior: PriorConfig = field(default_factory=PriorConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    denoise_threshold: float = 0.0
    select: SelectConfig = field(default_factory=SelectConfig)
    simulate: SimulateConfig = field(default_factory=SimulateConfig)
    io: dict = field(default_factory=dict)

    def validate(self) -> None:
        self.sampler.validate()
        self.select.validate()
        if not 0.0 <= self.denoise_threshold < 1.0:
            raise ValidationError("predict.denoise_threshold must lie in [0, 1)")
        for key in ("data", "sites"):
            path = self.io.get(key)
            if path is not None and not Path(path).exists():
                raise ValidationError(f"io.{key} file does not exist: {path}")

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ValidationError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from None
        cfg = cls()
        try:
            if "prior" in raw:
                cfg.prior = PriorConfig.from_dict(raw["prior"])
            if "sampler" in raw:
                cfg.sampler = SamplerConfig.from_dict(raw["sampler"])
            if "predict" in raw:
                cfg.denoise_threshold = float(
                    raw["predict"].get("denoise_threshold", 0.0)
                )
            if "select" in raw:
                cfg.select = SelectConfig(**raw["select"])
            if "simulate" in raw:
                sim = dict(raw["simulate"])
                if "box" in sim:
                    sim["box"] = tuple(sim["box"])
                cfg.simulate = SimulateConfig(**sim)
            cfg.io = dict(raw.get("io", {}))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: bad config value: {exc}") from None
        cfg.validate()
        return cfg


@contextlib.contextmanager
def output_lock(output_dir: Path):
    """Guard against two runs writing the same output directory."""
    output_dir.mkdir(parents=True, exist_ok=True)
    lock = output_dir / ".gpselect.lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ValidationError(
            f"output directory is locked by another run: {lock}"
        ) from None
    try:
        os.close(fd)
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(lock)


def _write_meta(output_dir: Path, command: str, t0: float, extra: dict | None = None) -> None:
    """run_meta.json: command, timestamp, wall_s since t0 (perf_counter) and extras."""
    meta = {"command": command, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "wall_s": time.perf_counter() - t0}
    if extra:
        meta.update(extra)
    with open(output_dir / "run_meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_model_file(path, p: int) -> ModelIndicator:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        ind = ModelIndicator(np.array(raw["gamma_r"]), np.array(raw["gamma_c"]))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: expected gamma_r/gamma_c arrays: {exc}") from None
    if ind.p != p:
        raise ValidationError(f"{path}: model has {ind.p} indicators, data has {p}")
    return ind


def cmd_simulate(cfg: RunConfig, output_dir, seed: int | None = None) -> dict:
    """Generate train/validation CSVs from the synthetic 5-d response."""
    t0 = time.perf_counter()
    output_dir = Path(output_dir)
    base_seed = seed if seed is not None else cfg.sampler.seed
    train_design, y_train, val_design, y_val = design.simulate_study(cfg.simulate, base_seed)

    names = [f"x{j+1}" for j in range(5)]
    with output_lock(output_dir):
        train_path = output_dir / "train.csv"
        val_path = output_dir / "validation.csv"
        export_csv(Dataset(X=train_design.points, y=y_train, column_names=names), train_path)
        export_csv(Dataset(X=val_design.points, y=y_val, column_names=names), val_path)
        _write_meta(
            output_dir,
            "simulate",
            t0,
            {
                "seed": base_seed,
                "train_maximin_dist": train_design.maximin_dist,
                "validation_maximin_dist": val_design.maximin_dist,
            },
        )
    return {"train": str(train_path), "validation": str(val_path)}


def cmd_sample(
    data_path,
    response: str,
    cfg: RunConfig,
    output_dir,
    seed: int | None = None,
    standardize: bool = True,
) -> dict:
    """Run the sampler on an ingested dataset and persist the chain."""
    t0 = time.perf_counter()
    output_dir = Path(output_dir)
    data = ingest(data_path, response, standardize=standardize)
    samp = cfg.sampler
    if seed is not None:
        samp = SamplerConfig.from_dict({**samp.to_dict(), "seed": seed})
    chain = sampler.run_chain(data, cfg.prior, samp)
    with output_lock(output_dir):
        chain_path = output_dir / "chain.jsonl"
        sampler.save_chain(chain, chain_path)
        _write_meta(
            output_dir,
            "sample",
            t0,
            {
                "seed": samp.seed,
                "n_iter": samp.n_iter,
                "burn_in": samp.burn_in,
                "thin": samp.thin,
                "stored_draws": len(chain),
                "acceptance_rate": chain.acceptance_rate,
                "singular_rejects": chain.n_singular,
                "jittered_factors": chain.n_jittered,
            },
        )
    return {"chain": str(chain_path), "acceptance_rate": chain.acceptance_rate}


def cmd_inclusion(chain_path, output_dir, column_names=None) -> dict:
    """Summarize a chain file into inclusion reports and plot CSVs."""
    t0 = time.perf_counter()
    output_dir = Path(output_dir)
    chain = sampler.load_chain(chain_path)
    report = select.inclusion_probabilities(chain)
    map_ind = select.map_model(report)
    with output_lock(output_dir):
        report_path = output_dir / "inclusion_report.json"
        payload = report.to_dict(column_names)
        payload["map_model"] = {
            "gamma_r": [int(g) for g in map_ind.gamma_r],
            "gamma_c": [int(g) for g in map_ind.gamma_c],
        }
        select.save_report_json(report_path, payload)
        csv_path = output_dir / "inclusion_probs.csv"
        select.inclusion_csv(csv_path, report, column_names)
        _write_meta(output_dir, "inclusion", t0, {"draws": len(chain)})
    return {"report": str(report_path), "plot_csv": str(csv_path)}


def cmd_select(
    chain_path,
    data_path,
    response: str,
    cfg: RunConfig,
    output_dir,
    seed: int | None = None,
    n_threads: int = 1,
    standardize: bool = True,
) -> dict:
    """Build the candidate ladder from a chain and cross-validate it."""
    t0 = time.perf_counter()
    output_dir = Path(output_dir)
    data = ingest(data_path, response, standardize=standardize)
    chain = sampler.load_chain(chain_path)
    report = select.inclusion_probabilities(chain)
    ladder = select.candidate_ladder(report, cfg.select.low, cfg.select.high)
    cv_seed = seed if seed is not None else cfg.sampler.seed
    cv = select.cross_validate(
        data, ladder, cfg.select.v_folds, seed=cv_seed, n_threads=n_threads
    )
    cv.implied_cutoffs = select.implied_cutoffs(report, ladder, cfg.select.high)
    with output_lock(output_dir):
        report_path = output_dir / "cv_report.json"
        select.save_report_json(report_path, cv.to_dict())
        curve_path = output_dir / "cv_curve.csv"
        select.cv_curve_csv(curve_path, cv)
        _write_meta(output_dir, "select", t0,
                    {"seed": cv_seed, "candidates": len(ladder), "v_folds": cfg.select.v_folds})
    return {"report": str(report_path), "curve_csv": str(curve_path), "chosen": cv.chosen}


def cmd_fit(
    data_path,
    response: str,
    model_path,
    output_dir,
    lambda_allowed: bool = True,
    standardize: bool = True,
) -> dict:
    """Fit a fixed model by maximum likelihood and persist the estimates."""
    t0 = time.perf_counter()
    output_dir = Path(output_dir)
    data = ingest(data_path, response, standardize=standardize)
    model = _load_model_file(model_path, data.p)
    fit = predict.fit_mle(data, model, lambda_allowed=lambda_allowed)
    with output_lock(output_dir):
        fit_path = output_dir / "mle_fit.json"
        select.save_report_json(fit_path, fit.to_dict())
        _write_meta(output_dir, "fit", t0, {"neg_log_lik": fit.neg_log_lik})
    return {"fit": str(fit_path)}


def cmd_predict(
    mode: str,
    data_path,
    response: str,
    sites_path,
    output_dir,
    fit_path=None,
    chain_path=None,
    denoise_threshold: float = 0.0,
    standardize: bool = True,
) -> dict:
    """Predict at new sites, either from an MLE fit or by model averaging."""
    t0 = time.perf_counter()
    output_dir = Path(output_dir)
    data = ingest(data_path, response, standardize=standardize)
    X_sites_raw = read_sites_csv(sites_path, data.column_names)
    req = PredictionRequest(data.transform_sites(X_sites_raw))

    ensemble_size = None
    if mode == "mle":
        if fit_path is None:
            raise ValidationError("mode 'mle' requires a fit file")
        with open(fit_path, encoding="utf-8") as fh:
            fit = MleFit.from_dict(json.load(fh))
        preds = predict.predict_mle(fit, data, req)
    elif mode == "average":
        if chain_path is None:
            raise ValidationError("mode 'average' requires a chain file")
        chain = sampler.load_chain(chain_path)
        preds = predict.model_average(chain, data, req, denoise_threshold)
        ensemble_size = int(predict.denoise_mask(chain, denoise_threshold).sum())
    else:
        raise ValidationError(f"unknown prediction mode: {mode!r}")

    with output_lock(output_dir):
        pred_path = output_dir / "predictions.csv"
        predict.predictions_to_csv(pred_path, preds, ensemble_size)
        _write_meta(output_dir, "predict", t0, {"mode": mode, "sites": len(preds)})
    return {"predictions": str(pred_path)}


BENCHMARK_METHODS = ("ok", "uk", "averaging", "posterior_inclusion", "map")


def benchmark_methods(
    train: Dataset,
    X_val: np.ndarray,
    y_val: np.ndarray,
    cfg: RunConfig,
    seed: int | None = None,
) -> dict:
    """Score the five prediction strategies on a common holdout set.

    OK uses the all-spatial/no-linear model and UK the all-spatial/all-linear
    model; averaging integrates conditional means over the chain;
    posterior-inclusion thresholds the marginal probabilities at select.q;
    MAP takes the most frequent sampled model. Returns per-method RMSPEs and
    the models involved.
    """
    p = train.p
    samp = cfg.sampler
    if seed is not None:
        samp = SamplerConfig.from_dict({**samp.to_dict(), "seed": seed})
    chain = sampler.run_chain(train, cfg.prior, samp)
    report = select.inclusion_probabilities(chain)
    req = PredictionRequest(X_val)

    models = {
        "ok": ModelIndicator(np.zeros(p, dtype=int), np.ones(p, dtype=int)),
        "uk": ModelIndicator(np.ones(p, dtype=int), np.ones(p, dtype=int)),
        "posterior_inclusion": select.threshold_model(report, cfg.select.q),
        "map": select.map_model(report),
    }
    rows = {}
    for name in BENCHMARK_METHODS:
        if name == "averaging":
            preds = predict.model_average(chain, train, req, cfg.denoise_threshold)
        else:
            fit = predict.fit_mle(train, models[name], lambda_allowed=True)
            preds = predict.predict_mle(fit, train, req)
        rows[name] = design.rmspe(y_val, preds)
    return {
        "rmspe": rows,
        "models": {k: v.key() for k, v in models.items()},
        "inclusion": {"p_r": report.p_r.tolist(), "p_c": report.p_c.tolist()},
        "acceptance_rate": chain.acceptance_rate,
    }


def cmd_benchmark(
    cfg: RunConfig,
    output_dir,
    data_path=None,
    response: str | None = None,
    simulate: bool = False,
    holdout_fraction: float = 0.25,
    split_seed: int = 0,
    seed: int | None = None,
    standardize: bool = True,
) -> dict:
    """Produce the five-row comparison table on a holdout set."""
    t0 = time.perf_counter()
    output_dir = Path(output_dir)
    if simulate:
        result = benchmark_methods(*simulated_data(cfg, seed), cfg, seed=seed)
    else:
        if data_path is None or response is None:
            raise ValidationError("benchmark needs either --simulate or --data/--response")
        full = ingest(data_path, response, standardize=standardize)
        train_rows, hold_rows = split_rows(full.n, holdout_fraction, split_seed)
        train = full.subset(train_rows)
        holdout = full.subset(hold_rows)
        result = benchmark_methods(train, holdout.X, holdout.y, cfg, seed=seed)

    with output_lock(output_dir):
        bench_path = output_dir / "benchmark.csv"
        with open(bench_path, "w", newline="", encoding="utf-8") as fh:
            fh.write("method,rmspe\r\n")
            for name in BENCHMARK_METHODS:
                fh.write(f"{name},{result['rmspe'][name]!r}\r\n")
        detail_path = output_dir / "benchmark_models.json"
        select.save_report_json(
            detail_path,
            {
                "rmspe": result["rmspe"],
                "models": {
                    k: {"gamma_r": list(v[0]), "gamma_c": list(v[1])}
                    for k, v in result["models"].items()
                },
                "inclusion": result["inclusion"],
            },
        )
        _write_meta(output_dir, "benchmark", t0, {"acceptance_rate": result["acceptance_rate"]})
    return {"table": str(bench_path), "rmspe": result["rmspe"]}


def simulated_data(cfg: RunConfig, seed: int | None) -> tuple[Dataset, np.ndarray, np.ndarray]:
    """The simulated study in memory: the training set on the analysis
    scale, the validation sites on that scale, and the validation responses."""
    base_seed = seed if seed is not None else cfg.sampler.seed
    train_design, y_train, val_design, y_val = design.simulate_study(cfg.simulate, base_seed)
    X_raw = train_design.points
    lo, hi = X_raw.min(axis=0), X_raw.max(axis=0)
    train = Dataset(X=(X_raw - lo) / (hi - lo), y=y_train,
                    column_names=[f"x{j+1}" for j in range(5)], X_raw=X_raw,
                    standardization=[(float(a), float(b)) for a, b in zip(lo, hi)])
    return train, train.transform_sites(val_design.points), y_val


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpselect",
        description=(
            "Bayesian variable selection and kriging prediction for "
            "semiparametric Gaussian process regression."
        ),
    )
    parser.add_argument("--config", help="JSON config file", default=None)
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for CV")
    parser.add_argument(
        "--output-dir", default="gpselect_out", help="directory for output files"
    )
    parser.add_argument("--no-standardize", action="store_true",
                        help="skip [0,1] column standardization at ingest")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="generate synthetic train/validation CSVs")

    sp = sub.add_parser("sample", help="run the posterior sampler")
    sp.add_argument("--data", default=None, help="training CSV (or io.data in the config)")
    sp.add_argument("--response", default=None)

    sp = sub.add_parser("inclusion", help="inclusion probabilities from a chain")
    sp.add_argument("--chain", required=True)

    sp = sub.add_parser("select", help="candidate ladder + cross-validation")
    sp.add_argument("--chain", required=True)
    sp.add_argument("--data", default=None)
    sp.add_argument("--response", default=None)

    sp = sub.add_parser("fit", help="maximum-likelihood fit of a fixed model")
    sp.add_argument("--data", default=None)
    sp.add_argument("--response", default=None)
    sp.add_argument("--model", required=True, help="JSON file with gamma_r/gamma_c")
    sp.add_argument("--no-nugget", action="store_true",
                    help="force lambda = 0 (deterministic interpolation)")

    sp = sub.add_parser("predict", help="predict at new sites")
    sp.add_argument("--mode", choices=("mle", "average"), required=True)
    sp.add_argument("--data", default=None)
    sp.add_argument("--response", default=None)
    sp.add_argument("--sites", default=None)
    sp.add_argument("--fit", default=None)
    sp.add_argument("--chain", default=None)
    sp.add_argument("--denoise-threshold", type=float, default=None)

    sp = sub.add_parser("benchmark", help="five-method RMSPE comparison table")
    sp.add_argument("--data", default=None)
    sp.add_argument("--response", default=None)
    sp.add_argument("--simulate", action="store_true",
                    help="benchmark on a fresh synthetic train/validation pair")
    sp.add_argument("--holdout-fraction", type=float, default=0.25)
    sp.add_argument("--split-seed", type=int, default=0)
    return parser


def _resolve_io(args, cfg: RunConfig) -> None:
    """Fill missing input flags from the config's io section."""
    for flag, key in (("data", "data"), ("response", "response"), ("sites", "sites")):
        if hasattr(args, flag) and getattr(args, flag) is None:
            setattr(args, flag, cfg.io.get(key))
    needed = {"sample": ("data", "response"), "select": ("data", "response"),
              "fit": ("data", "response"), "predict": ("data", "response", "sites")}
    for flag in needed.get(args.command, ()):
        if getattr(args, flag) is None:
            raise ValidationError(
                f"'{args.command}' needs --{flag} (or io.{flag} in the config)"
            )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = RunConfig.from_json(args.config) if args.config else RunConfig()
        cfg.validate()
        _resolve_io(args, cfg)
        standardize = not args.no_standardize
        if args.command == "simulate":
            out = cmd_simulate(cfg, args.output_dir, seed=args.seed)
        elif args.command == "sample":
            out = cmd_sample(
                args.data, args.response, cfg, args.output_dir,
                seed=args.seed, standardize=standardize,
            )
        elif args.command == "inclusion":
            out = cmd_inclusion(args.chain, args.output_dir)
        elif args.command == "select":
            out = cmd_select(
                args.chain, args.data, args.response, cfg, args.output_dir,
                seed=args.seed, n_threads=args.threads, standardize=standardize,
            )
        elif args.command == "fit":
            out = cmd_fit(
                args.data, args.response, args.model, args.output_dir,
                lambda_allowed=not args.no_nugget, standardize=standardize,
            )
        elif args.command == "predict":
            denoise = (
                args.denoise_threshold
                if args.denoise_threshold is not None
                else cfg.denoise_threshold
            )
            out = cmd_predict(
                args.mode, args.data, args.response, args.sites, args.output_dir,
                fit_path=args.fit, chain_path=args.chain,
                denoise_threshold=denoise, standardize=standardize,
            )
        elif args.command == "benchmark":
            out = cmd_benchmark(
                cfg, args.output_dir,
                data_path=args.data, response=args.response,
                simulate=args.simulate,
                holdout_fraction=args.holdout_fraction,
                split_seed=args.split_seed, seed=args.seed,
                standardize=standardize,
            )
        else:  # pragma: no cover - argparse enforces the choices
            raise ValidationError(f"unknown command {args.command!r}")
    except (NumericalSingularityError, OptimizationFailureError) as exc:
        _emit_error(exc)
        return EXIT_NUMERICAL
    except (ValidationError, GpSelectError, OSError, ValueError) as exc:
        _emit_error(exc)
        return EXIT_VALIDATION
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def _emit_error(exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
