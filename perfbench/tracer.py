"""Span tracing of the gpselect modules from outside the package.

`Tracer.install` replaces the public functions of every package module, the
names other package modules bound with ``from .x import y``, and the public
methods of the package's classes by thin wrappers that record one span per
call: name, start, end, parent span and run id. Spans live in flat arrays
while the run lasts and are written out once, after it. `uninstall` puts
every original back. Nothing inside the package changes.

The tracer assumes one thread, which the benchmark guarantees by running
cross-validation with ``--threads 1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

from metrics import LAYERS

PACKAGE = "gpselect"
ERR_SINGULAR = 1
ERR_OTHER = 2


class Tracer:
    """Spans of one traced run; `run_id` labels every span it records."""

    def __init__(self, run_id: int = 0):
        self.this_run = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        # observations from return values, keyed by span index
        self.factored: dict[int, tuple[int, float]] = {}  # span -> (n, jitter)
        self.values: dict[str, list] = {}

    # ---- recording -------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, func, name: str, observe=None):
        key = id(func)
        if key in self._wrappers:
            return self._wrappers[key]
        nid = self._id(name)
        stack = self._stack
        name_id, parent, run_id = self.name_id, self.parent, self.run_id
        start, end, error = self.start, self.end, self.error
        clock = time.perf_counter
        singular = importlib.import_module(f"{PACKAGE}.errors").NumericalSingularityError
        this_run = self.this_run

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            run_id.append(this_run)
            error.append(0)
            end.append(float("nan"))
            stack.append(idx)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                error[idx] = ERR_SINGULAR if isinstance(exc, singular) else ERR_OTHER
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(idx, args, kwargs, result)
            return result

        self._wrappers[key] = wrapper
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # ---- observers on return values ----------------------------------------
    def _observe_cholesky(self, idx, args, kwargs, result):
        self.factored[idx] = (int(result[0].shape[0]), float(result[1]))

    def _keep(self, key, extract):
        def observe(idx, args, kwargs, result):
            self.values.setdefault(key, []).append(extract(args, kwargs, result))
        return observe

    def _observers(self) -> dict:
        return {
            "kernel.cholesky_with_jitter": self._observe_cholesky,
            "sampler.run_chain": self._keep(
                "accepted", lambda a, k, r: (int(r.accepted.sum()), int(r.accepted.size))),
            "sampler.save_chain": self._keep(
                "chain_bytes", lambda a, k, r: Path(a[1]).stat().st_size),
            "predict.model_average": self._keep("draws", lambda a, k, r: len(a[0])),
            "select.candidate_ladder": self._keep("ladder_len", lambda a, k, r: len(r)),
            "select.cross_validate": self._keep(
                "fold_failures", lambda a, k, r: int(np.sum(r.fold_failures))),
        }

    # ---- install / uninstall -------------------------------------------------
    def install(self) -> None:
        observers = self._observers()
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(PACKAGE + "."):
                    continue
                if inspect.isfunction(obj):
                    name = f"{home.split('.')[-1]}.{obj.__name__}"
                    self._set(mod, attr, self._wrap(obj, name, observers.get(name)))
                elif inspect.isclass(obj) and home == mod.__name__:
                    self._wrap_class(obj, mod.__name__.split(".")[-1])

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(raw, name))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self._wrap(raw.__func__, name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---- results -------------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run_id": np.frombuffer(self.run_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "error": np.frombuffer(self.error, dtype=np.int8).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def nesting_errors(a: dict) -> int:
    """Spans that are unfinished, run backwards or leave their parent's interval."""
    start, end, parent = a["start"], a["end"], a["parent"]
    bad = ~np.isfinite(end) | (end < start)
    child = parent >= 0
    p = parent[child]
    bad[child] |= (start[child] < start[p]) | (end[child] > end[p]) | (p >= np.flatnonzero(child))
    return int(bad.sum())


def layer_metrics(tracer: Tracer, run_s: float, untraced_run_s: float) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, plus the consistency figures."""
    a = tracer.arrays()
    names = tracer.names
    start, end, parent = a["start"], a["end"], a["parent"]
    dur = end - start
    nid = a["name_id"]
    n_spans = dur.size
    ids = {name: i for i, name in enumerate(names)}

    def mask(*span_names):
        want = [ids[n] for n in span_names if n in ids]
        return np.isin(nid, want) if want else np.zeros(n_spans, dtype=bool)

    def total(*span_names) -> float:
        return float(dur[mask(*span_names)].sum())

    def calls(*span_names) -> int:
        return int(mask(*span_names).sum())

    def median_of(values, scale=1.0) -> float:
        return float(np.median(values)) * scale if len(values) else 0.0

    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=n_spans)
    self_time = dur - covered
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names] or [0])
    layer_self = np.bincount(layer_of[nid], weights=self_time, minlength=len(LAYERS)) \
        if n_spans else np.zeros(len(LAYERS))
    roots = float(dur[~child].sum())

    def under(ancestor: str, inner: np.ndarray) -> np.ndarray:
        """For each `ancestor` span, how many spans of the `inner` mask it encloses.

        Spans are stored in call order, so a span's descendants are exactly
        the later spans that start before it ends.
        """
        anc = np.flatnonzero(mask(ancestor))
        hit = np.flatnonzero(inner)
        hi = np.searchsorted(start, end[anc], side="left")
        return np.searchsorted(hit, hi) - np.searchsorted(hit, anc, side="right")

    chol = mask("kernel.cholesky_with_jitter")
    chol_idx = np.flatnonzero(chol)
    singular = chol & (a["error"] == ERR_SINGULAR)
    factored = [tracer.factored[int(i)] for i in chol_idx if int(i) in tracer.factored]
    jittered = sum(1 for _, jitter in factored if jitter > 0.0)
    # each jitter level tried costs one n^3/3 factorization attempt
    ladder = list(importlib.import_module(f"{PACKAGE}.kernel").JITTER_LADDER)
    gflop = sum(n**3 / 3.0 * (ladder.index(j) + 1 if j in ladder else 1)
                for n, j in factored) / 1e9

    fit_nfev = under("predict.fit_mle", chol)
    avg_chol = under("predict.model_average", chol)
    cv_fits = under("select.cross_validate", mask("predict.fit_mle"))
    accepted = tracer.values.get("accepted", [])
    draws = sum(tracer.values.get("draws", []))
    propose = dur[mask("sampler.propose")]
    loglik = dur[mask("kernel.LikelihoodCache.log_likelihood")]
    fit = dur[mask("predict.fit_mle")]

    m = {
        "design.maximin_lhd.s": total("design.maximin_lhd"),
        "design.maximin_lhd.calls": calls("design.maximin_lhd"),
        "data.ingest.s": total("data.ingest"),
        "data.ingest.calls": calls("data.ingest"),
        "sampler.save_chain.s": total("sampler.save_chain"),
        "sampler.save_chain.mb": sum(tracer.values.get("chain_bytes", [])) / 1e6,
        "sampler.load_chain.s": total("sampler.load_chain"),
        "sampler.load_chain.calls": calls("sampler.load_chain"),
        "sampler.propose.us": median_of(propose, 1e6),
        "sampler.propose.s": float(propose.sum()),
        "sampler.run_chain.self_s": float(self_time[mask("sampler.run_chain")].sum()),
        "sampler.accept_ratio": (sum(x for x, _ in accepted) / sum(n for _, n in accepted))
        if accepted else 0.0,
        "sampler.singular_rejects": int(under("sampler.run_chain", singular).sum()),
        "model.log_prior.s": total("model.log_prior"),
        "model.log_prior.calls": calls("model.log_prior"),
        "model.transforms.s": total(
            "model.to_unconstrained", "model.from_unconstrained", "model.log_jacobian"),
        "kernel.log_likelihood.us": median_of(loglik, 1e6),
        "kernel.log_likelihood.calls": int(loglik.size),
        "kernel.corr.s": total("kernel.LikelihoodCache.corr", "kernel.corr_from_sqdiffs"),
        "kernel.cholesky.s": float(dur[chol].sum()),
        "kernel.cholesky.calls": int(chol_idx.size),
        "kernel.cholesky.jittered": jittered,
        "kernel.cholesky.singular": int(singular.sum()),
        "kernel.cholesky.gflop_computed": gflop,
        "predict.fit_mle.s": median_of(fit),
        "predict.fit_mle.calls": int(fit.size),
        "predict.fit_mle.nfev": median_of(fit_nfev),
        "predict.predict_mle.s": total("predict.predict_mle"),
        "predict.model_average.s": total("predict.model_average"),
        "predict.model_average.distinct_share": float(avg_chol.sum()) / draws if draws else 0.0,
        "select.cross_validate.s": total("select.cross_validate"),
        "select.cv.fold_fits": int(cv_fits.sum()),
        "select.cv.fold_failures": sum(tracer.values.get("fold_failures", [])),
        "select.inclusion_probabilities.s": total("select.inclusion_probabilities"),
        "select.candidate_ladder.len": max(tracer.values.get("ladder_len", [0])),
    }
    for layer, value in zip(LAYERS, layer_self):
        m[f"{layer}.self_s"] = float(value)
    m["trace.unattributed_s"] = run_s - roots
    m["trace.overhead_s"] = run_s - untraced_run_s

    # self times sum to the root spans' total by construction, so layer self
    # times plus trace.unattributed_s equal run_s by definition; what can go
    # wrong is a child that overlaps a sibling or outlasts its parent
    info = {
        "spans": int(n_spans),
        "nesting_errors": nesting_errors(a),
        "negative_self_spans": int((self_time < -1e-9).sum()),
        "run_s": run_s,
    }
    return m, info
