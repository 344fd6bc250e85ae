"""Command-line entry point and pipeline orchestration.

Subcommands cover the whole workflow: simulate data, run the sampler,
summarize inclusion probabilities, cross-validate the candidate ladder, fit
a chosen model by maximum likelihood, predict at new sites, and benchmark
the prediction strategies against each other on a holdout set.

`main` is the one command runner. It takes the start clock, loads the
config, applies `--seed` to `sampler.seed`, fills each input flag from the
config's io section, ingests the inputs and runs the command; `COMMANDS`
names each command's function, help line and input flags. A
command is a function of (args, cfg, data) that computes and returns three
things: its stdout record, whose strings name its files; its files as
name -> writer; and its run_meta.json extras. Only once the command has
succeeded does the runner write those files and run_meta.json, under the
output-directory lock, so a failed command leaves no output directory.
Every CSV is written by `data.write_csv`, every JSON file by `_write_json`
and chain.jsonl by `sampler.save_chain`, which pairs with `load_chain`.
The JSON inputs (the config, `--model` and `--fit`) are read through
`_load_json`.

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
from functools import partial
from pathlib import Path

import numpy as np

from . import design, kernel, predict, sampler, select
from .data import (Dataset, export_csv, ingest, minmax_scale, read_sites_csv, split_rows,
                   write_csv)
from .errors import (
    GpSelectError,
    NumericalSingularityError,
    OptimizationFailureError,
    ValidationError,
)
from .model import ModelIndicator, PriorConfig, are_numbers
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
        for name in ("low", "high"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValidationError(f"select.{name} must lie in [0, 1], got {val}")
        if not 0.0 < self.q < 1.0:
            raise ValidationError(f"select.q must lie in (0, 1), got {self.q}")
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

    def __post_init__(self):
        self.box = tuple(self.box)

    def validate(self) -> None:
        for name in ("n_train", "n_validation"):
            if getattr(self, name) < 2:
                raise ValidationError(f"simulate.{name} must be at least 2, "
                                      f"got {getattr(self, name)}")
        if not self.noise_sd >= 0.0:
            raise ValidationError(f"simulate.noise_sd must be at least 0, got {self.noise_sd}")
        if len(self.box) != 2 or not -np.inf < self.box[0] < self.box[1] < np.inf:
            raise ValidationError(f"simulate.box must be two finite numbers a < b, "
                                  f"got {list(self.box)}")
        if self.lhd_restarts < 1:
            raise ValidationError(f"simulate.lhd_restarts must be at least 1, "
                                  f"got {self.lhd_restarts}")


# a config default's type -> the test a JSON value for its key must pass, and its wording
_JSON_TYPES = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (lambda v: are_numbers([v]), "a finite number"),
    type(None): (lambda v: v is None or are_numbers([v]), "a finite number or null"),
    str: (lambda v: isinstance(v, str), "a string"),
    tuple: (lambda v: isinstance(v, list) and are_numbers(v), "a list of finite numbers"),
}


def _check_types(section: str, values: dict, defaults: dict) -> None:
    """Each key of a config section must be one of its defaults' keys, and
    its value must have the JSON type of that default."""
    for key, value in values.items():
        if key not in defaults:
            raise ValidationError(f"{section}.{key} is not a config key; "
                                  f"{section} takes {sorted(defaults)}")
        test, kind = _JSON_TYPES[type(defaults[key])]
        if not test(value):
            raise ValidationError(f"{section}.{key} must be {kind}, got {value!r}")


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
        self.simulate.validate()
        if not 0.0 <= self.denoise_threshold < 1.0:
            raise ValidationError("predict.denoise_threshold must lie in [0, 1)")
        for key in ("data", "sites"):
            path = self.io.get(key)
            if path is not None and not Path(path).exists():
                raise ValidationError(f"io.{key} file does not exist: {path}")

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        return _load_json(path, cls.from_dict, "a run config")

    @classmethod
    def from_dict(cls, raw) -> "RunConfig":
        """The validated config of a parsed JSON document; an unknown section
        or key, or a value of the wrong type or range, raises a ValueError
        that names it."""
        if not isinstance(raw, dict):
            raise TypeError("the config must be a JSON object")
        cfg = cls()
        # per section: the parser into its RunConfig field, and the defaults
        # that name its keys and the types of their values
        sections = {
            "prior": (lambda d: PriorConfig(**d), vars(cfg.prior)),
            "sampler": (lambda d: SamplerConfig(**d), vars(cfg.sampler)),
            "predict": (lambda d: float(d.get("denoise_threshold", 0.0)),
                        {"denoise_threshold": cfg.denoise_threshold}),
            "select": (lambda d: SelectConfig(**d), vars(cfg.select)),
            "simulate": (lambda d: SimulateConfig(**d), vars(cfg.simulate)),
            "io": (dict, dict.fromkeys(("data", "response", "sites"), "")),
        }
        unknown = sorted(set(raw) - set(sections))
        if unknown:
            raise ValidationError(f"{unknown[0]} is not a config section; "
                                  f"the config takes {sorted(sections)}")
        # an absent section parses as {}
        for key, (parse, defaults) in sections.items():
            section = raw.get(key, {})
            if not isinstance(section, dict):
                raise ValidationError(f"{key} must be a JSON object")
            _check_types(key, section, defaults)
            setattr(cfg, "denoise_threshold" if key == "predict" else key, parse(section))
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


def _write_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path, build, expected: str):
    """build(the JSON value in path), which checks numbers by `model.are_numbers`
    and indicators by `model.are_indicators`; invalid JSON, or a missing,
    mistyped or out-of-range field, is a ValidationError naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
            raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    try:
        return build(raw)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: expected {expected}: {exc}") from None


def _load_model_file(path, build, expected: str, p: int):
    """_load_json of a --model or --fit file, whose model has p indicators."""
    return _check_p(path, _load_json(path, build, expected), p)


def _check_p(path, loaded, p: int):
    """loaded, a model, fit or chain read from path, if its indicators cover
    the data's p columns; else a ValidationError naming path."""
    if loaded.p != p:
        raise ValidationError(f"{path}: {loaded.p} columns' indicators, data has {p} columns")
    return loaded


def cmd_simulate(args, cfg: RunConfig, data: None) -> tuple:
    """Train/validation CSVs from the synthetic 5-d response."""
    train_design, y_train, val_design, y_val = design.simulate_study(cfg.simulate,
                                                                     cfg.sampler.seed)
    names = [f"x{j+1}" for j in range(5)]
    files = {
        "train.csv": partial(export_csv, Dataset(X=train_design.points, y=y_train,
                                                 column_names=names)),
        "validation.csv": partial(export_csv, Dataset(X=val_design.points, y=y_val,
                                                      column_names=names)),
    }
    meta = {
        "seed": cfg.sampler.seed,
        "train_maximin_dist": train_design.maximin_dist,
        "validation_maximin_dist": val_design.maximin_dist,
    }
    return {"train": "train.csv", "validation": "validation.csv"}, files, meta


def cmd_sample(args, cfg: RunConfig, data: Dataset) -> tuple:
    """Run the sampler and keep the chain."""
    samp = cfg.sampler
    chain = sampler.run_chain(data, cfg.prior, samp)
    rate = float(chain.accepted.mean())
    meta = {
        "seed": samp.seed,
        "n_iter": samp.n_iter,
        "burn_in": samp.burn_in,
        "thin": samp.thin,
        "stored_draws": len(chain),
        "acceptance_rate": rate,
        "acceptance_by_flips": chain.acceptance_by_flips,
        "singular_rejects": chain.n_singular,
    }
    return ({"chain": "chain.jsonl", "acceptance_rate": rate},
            {"chain.jsonl": partial(sampler.save_chain, chain)}, meta)


def cmd_inclusion(args, cfg: RunConfig, data: None) -> tuple:
    """Inclusion report and plot CSV of a chain file."""
    chain = sampler.load_chain(args.chain)
    report = select.inclusion_probabilities(chain)
    payload = report.to_dict()
    # one bar per indicator: every linear one, then every spatial one
    rows = [[part, name, repr(float(prob))]
            for part, probs in (("linear", report.p_r), ("spatial", report.p_c))
            for name, prob in zip(payload["columns"], probs)]
    files = {
        "inclusion_report.json": partial(_write_json, payload),
        "inclusion_probs.csv": partial(write_csv, ["part", "column", "probability"], rows),
    }
    return ({"report": "inclusion_report.json", "plot_csv": "inclusion_probs.csv"}, files,
            {"draws": len(chain)})


def cmd_select(args, cfg: RunConfig, data: Dataset) -> tuple:
    """Candidate ladder from a chain, cross-validated, with a plot CSV of the CV curve."""
    chain = _check_p(args.chain, sampler.load_chain(args.chain), data.p)
    report = select.inclusion_probabilities(chain)
    ladder = select.candidate_ladder(report, cfg.select.low, cfg.select.high)
    t0 = time.perf_counter()
    cv = select.cross_validate(data, ladder, cfg.select.v_folds, seed=cfg.sampler.seed)
    cv_s = time.perf_counter() - t0
    cv.implied_cutoffs = select.implied_cutoffs(report, ladder, cfg.select.high)
    header = ["candidate", "n_active", "implied_cutoff", "cv_rmspe", "cv_se",
              "rmspe_minus_se", "rmspe_plus_se", "chosen", "chosen_1se"]
    rows = [[i, cand.n_active(), repr(float(cutoff)),
             *(repr(float(v)) for v in (rmspe, se, rmspe - se, rmspe + se)),
             int(i == cv.chosen), int(i == cv.chosen_1se)]
            for i, (cand, cutoff, rmspe, se)
            in enumerate(zip(cv.candidates, cv.implied_cutoffs, cv.cv_rmspe, cv.cv_se))]
    files = {
        "cv_report.json": partial(_write_json, cv.to_dict()),
        "cv_curve.csv": partial(write_csv, header, rows),
    }
    meta = {"seed": cfg.sampler.seed, "candidates": len(ladder), "v_folds": cfg.select.v_folds,
            "cv_workers": cv.workers, "cv_s": cv_s}
    return ({"report": "cv_report.json", "curve_csv": "cv_curve.csv", "chosen": cv.chosen},
            files, meta)


def cmd_fit(args, cfg: RunConfig, data: Dataset) -> tuple:
    """Fit a fixed model by maximum likelihood."""
    model = _load_model_file(args.model, ModelIndicator.from_dict, "gamma_r/gamma_c arrays",
                             data.p)
    fit = predict.fit_mle(data, model, lambda_allowed=not args.no_nugget)
    return ({"fit": "mle_fit.json"}, {"mle_fit.json": partial(_write_json, fit.to_dict())},
            {"neg_log_lik": fit.neg_log_lik, "fit_workers": fit.workers})


def cmd_predict(args, cfg: RunConfig, data: Dataset) -> tuple:
    """Predict at new sites, either from an MLE fit or by model averaging."""
    req = PredictionRequest(data.transform_sites(read_sites_csv(args.sites, data.column_names)))
    meta = {"mode": args.mode}
    if args.mode == "mle":
        if args.fit is None:
            raise ValidationError("mode 'mle' requires a fit file")
        fit = _load_model_file(args.fit, MleFit.from_dict, "an mle_fit.json record", data.p)
        preds = predict.predict_mle(fit, data, req)
        extra_columns = {}
    else:
        if args.chain is None:
            raise ValidationError("mode 'average' requires a chain file")
        denoise = (cfg.denoise_threshold if args.denoise_threshold is None
                   else args.denoise_threshold)
        chain = _check_p(args.chain, sampler.load_chain(args.chain), data.p)
        preds, size, meta["average_workers"], meta["distinct_draws"] = (
            predict._average_and_mask(chain, data, req, denoise))
        extra_columns = {"ensemble_size": size}
    rows = [[i, repr(float(v)), *extra_columns.values()] for i, v in enumerate(preds)]
    files = {"predictions.csv": partial(write_csv, ["site", "prediction", *extra_columns], rows)}
    return {"predictions": "predictions.csv"}, files, {**meta, "sites": len(preds)}


BENCHMARK_METHODS = ("ok", "uk", "averaging", "posterior_inclusion", "map")


def benchmark_methods(
    train: Dataset,
    X_val: np.ndarray,
    y_val: np.ndarray,
    cfg: RunConfig,
) -> dict:
    """Score the five prediction strategies on a common holdout set.

    OK uses the all-spatial/no-linear model and UK the all-spatial/all-linear
    model; averaging integrates conditional means over the chain;
    posterior-inclusion thresholds the marginal probabilities at select.q;
    MAP takes the most frequent sampled model. Returns per-method RMSPEs and
    the models involved, in their JSON form.
    """
    p = train.p
    chain = sampler.run_chain(train, cfg.prior, cfg.sampler)
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
        "models": {k: v.to_dict() for k, v in models.items()},
        "inclusion": {"p_r": report.p_r.tolist(), "p_c": report.p_c.tolist()},
        "acceptance_rate": float(chain.accepted.mean()),
    }


def cmd_benchmark(args, cfg: RunConfig, data: Dataset | None) -> tuple:
    """The five-row comparison table on a holdout set."""
    if args.simulate:
        result = benchmark_methods(*simulated_data(cfg), cfg)
    else:
        train_rows, hold_rows = split_rows(data.n, args.holdout_fraction, args.split_seed)
        holdout = data.subset(hold_rows)
        result = benchmark_methods(data.subset(train_rows), holdout.X, holdout.y, cfg)
    detail = {key: result[key] for key in ("rmspe", "models", "inclusion")}
    files = {
        "benchmark.csv": partial(write_csv, ["method", "rmspe"],
                                 [[name, repr(result["rmspe"][name])]
                                  for name in BENCHMARK_METHODS]),
        "benchmark_models.json": partial(_write_json, detail),
    }
    return ({"table": "benchmark.csv", "rmspe": result["rmspe"]}, files,
            {"acceptance_rate": result["acceptance_rate"]})


def simulated_data(cfg: RunConfig) -> tuple[Dataset, np.ndarray, np.ndarray]:
    """The simulated study in memory: the training set on the analysis
    scale, the validation sites on that scale, and the validation responses."""
    train_design, y_train, val_design, y_val = design.simulate_study(cfg.simulate,
                                                                     cfg.sampler.seed)
    X_raw, names = train_design.points, [f"x{j+1}" for j in range(5)]
    X, standardization = minmax_scale(X_raw, names, "simulated training design")
    train = Dataset(X=X, y=y_train, column_names=names, X_raw=X_raw,
                    standardization=standardization)
    return train, train.transform_sites(val_design.points), y_val


# subcommand -> (its function, its help line, the input flags it reads, each
# of which falls back to io.<flag> in the config)
COMMANDS = {
    "simulate": (cmd_simulate, "generate synthetic train/validation CSVs", ()),
    "sample": (cmd_sample, "run the posterior sampler", ("data", "response")),
    "inclusion": (cmd_inclusion, "inclusion probabilities from a chain", ()),
    "select": (cmd_select, "candidate ladder + cross-validation", ("data", "response")),
    "fit": (cmd_fit, "maximum-likelihood fit of a fixed model", ("data", "response")),
    "predict": (cmd_predict, "predict at new sites", ("data", "response", "sites")),
    "benchmark": (cmd_benchmark, "five-method RMSPE comparison table", ("data", "response")),
}


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
    # kept only for perfbench's argv, which passes --threads 1; goes with ROADMAP item 1
    parser.add_argument("--threads", type=int, default=1,
                        help="must be 1: CV sets its own worker processes")
    parser.add_argument(
        "--output-dir", default="gpselect_out", help="directory for output files"
    )
    parser.add_argument("--no-standardize", action="store_true",
                        help="skip [0,1] column standardization at ingest")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    sp = {}
    for name, (_, help_line, inputs) in COMMANDS.items():
        sp[name] = sub.add_parser(name, help=help_line)
        for flag in inputs:
            sp[name].add_argument(f"--{flag}", default=None,
                                  help=f"falls back to io.{flag} in the config")
    sp["inclusion"].add_argument("--chain", required=True)
    sp["select"].add_argument("--chain", required=True)
    sp["fit"].add_argument("--model", required=True, help="JSON file with gamma_r/gamma_c")
    sp["fit"].add_argument("--no-nugget", action="store_true",
                           help="force lambda = 0 (deterministic interpolation)")
    sp["predict"].add_argument("--mode", choices=("mle", "average"), required=True)
    sp["predict"].add_argument("--fit", default=None)
    sp["predict"].add_argument("--chain", default=None)
    sp["predict"].add_argument("--denoise-threshold", type=float, default=None)
    sp["benchmark"].add_argument("--simulate", action="store_true",
                                 help="benchmark on a fresh synthetic train/validation pair")
    sp["benchmark"].add_argument("--holdout-fraction", type=float, default=0.25)
    sp["benchmark"].add_argument("--split-seed", type=int, default=0)
    return parser


def _resolve_args(args, cfg: RunConfig) -> None:
    """Fill the command's missing input flags from the config's io section;
    reject what is still missing, a --threads other than 1 and a negative --seed."""
    for flag in COMMANDS[args.command][2]:
        if getattr(args, flag) is None:
            setattr(args, flag, cfg.io.get(flag))
            if getattr(args, flag) is None and args.command != "benchmark":
                raise ValidationError(
                    f"'{args.command}' needs --{flag} (or io.{flag} in the config)"
                )
    if args.command == "benchmark" and not args.simulate and (
            args.data is None or args.response is None):
        raise ValidationError("benchmark needs either --simulate or --data/--response")
    if args.threads != 1:
        raise ValidationError(f"--threads must be 1 (cross-validation sets its own "
                              f"worker processes), got {args.threads}")
    if args.seed is not None and args.seed < 0:
        raise ValidationError(f"--seed must be at least 0, got {args.seed}")


def main(argv=None) -> int:
    # wall_s and import_s in run_meta.json count from here
    t0, import0 = time.perf_counter(), kernel._import_s
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = RunConfig.from_json(args.config) if args.config else RunConfig()
        _resolve_args(args, cfg)
        if args.seed is not None:
            cfg.sampler.seed = args.seed
        command, _, inputs = COMMANDS[args.command]
        data = None
        # every command with inputs reads them, except benchmark --simulate
        if inputs and not getattr(args, "simulate", False):
            data = ingest(args.data, args.response, standardize=not args.no_standardize)
        record, files, extra = command(args, cfg, data)
        output_dir = Path(args.output_dir)
        with output_lock(output_dir):
            for name, write in files.items():
                write(output_dir / name)
            meta = {"command": args.command, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                    "wall_s": time.perf_counter() - t0, "import_s": kernel._import_s - import0,
                    **extra}
            _write_json(meta, output_dir / "run_meta.json")
    except (NumericalSingularityError, OptimizationFailureError) as exc:
        _emit_error(exc)
        return EXIT_NUMERICAL
    except (ValidationError, GpSelectError, OSError, ValueError) as exc:
        _emit_error(exc)
        return EXIT_VALIDATION
    # a record's string values name the command's files
    record = {k: str(output_dir / v) if isinstance(v, str) else v for k, v in record.items()}
    print(json.dumps(record, sort_keys=True))
    return EXIT_OK


def _emit_error(exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
