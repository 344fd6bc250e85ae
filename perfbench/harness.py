"""The benchmark harness: set-up, timed passes, checks, metrics and output.

Imported by run.py once the BLAS thread settings are in place.
"""

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import workloads as wl
from metrics import END_TO_END, PER_LAYER, REPORTED_ONLY, SHOULD_MOVE
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHAIN_SHA256 = HERE / "chain_sha256.json"
SETUP_REPS = 5


def environment() -> dict:
    """The machine and library facts a timing depends on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "cv_threads": 1,
    }


def time_import() -> None:
    """Start a fresh interpreter that imports the CLI, as a user's process does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import gpselect.cli"], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def setup(workload, inputs: Path) -> list[float]:
    """Set up SETUP_REPS times: import the CLI afresh and write the inputs."""
    times, digests = [], []
    for _ in range(SETUP_REPS):
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        t0 = time.perf_counter()
        time_import()
        workload.prepare(inputs)
        times.append(time.perf_counter() - t0)
        digests.append(wl.sha256_file(*sorted(inputs.iterdir())))
    workload.ledger.record("inputs_repeat_for_seed", len(set(digests)) == 1,
                           "set-up wrote different inputs for one seed")
    return times


def check_chain(workload, shas: list) -> None:
    """Every pass's chain.jsonl matches the reference bytes in CHAIN_SHA256.

    The sampled chains come from a fixed seed (workloads.STUDY_SEED), so
    their bytes do not depend on the benchmark seed: a program change that
    alters a chain fails every run until the reference is edited on purpose.
    """
    key = workload.name + ("-small" if workload.small else "")
    want = json.loads(CHAIN_SHA256.read_text()).get(key)
    for sha in filter(None, shas):
        workload.ledger.record("chain_sha256_matches_reference", sha == want,
                               f"chain.jsonl sha256 {sha} differs from the "
                               f"{CHAIN_SHA256.name} entry {key!r}: {want}")


def measure(workload, work: Path, seconds: float, trace: bool):
    """Run whole passes: until `seconds` have gone by, or untraced then traced.

    Returns the completed passes and the tracer of the traced pass (or None).
    """
    passes, tracer = [], None
    t0 = time.perf_counter()
    while True:
        out = work / f"pass{len(passes)}"
        out.mkdir()
        tracing = trace and len(passes) == 1
        try:
            if tracing:
                tracer = Tracer(run_id=len(passes))
                with tracer:
                    res = workload.run_pass(work / "inputs", out, first=False)
            else:
                res = workload.run_pass(work / "inputs", out, first=not passes)
        except wl.StageFailed as exc:
            workload.ledger.notes.append(f"pass {len(passes)} stopped: {exc}")
            return passes, None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        passes.append(res)
        if (len(passes) == 2) if trace else (time.perf_counter() - t0 >= seconds):
            return passes, tracer


def end_to_end(passes, setup_times) -> dict:
    """Median over passes of each stage time; RMSPE and peak RSS of the run."""
    values = {name: statistics.median([p.stage_s[name] for p in passes])
              for name in passes[0].stage_s}
    values["setup_s"] = statistics.median(setup_times)
    for metric, label in wl.RMSPE_LABELS.items():
        values[metric] = passes[0].rmspe.get(label, float("nan"))
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(args) -> int:
    """One benchmark run as run.py's arguments describe; returns the exit code."""
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "small": args.small, "env": environment()}
    ledger = wl.Ledger()
    workload = wl.WORKLOAD_CLASSES[args.workload](args.seed, args.small, ledger)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times = setup(workload, work / "inputs")
        passes, tracer = measure(workload, work, args.seconds, args.trace == 1)
        if not passes or (args.trace == 1 and tracer is None):
            print("error: the workload did not complete: " + "; ".join(ledger.notes),
                  file=sys.stderr)
            print_failures(ledger)
            print_result(ledger, {})
            return 1
        check_chain(workload, [p.chain_sha256 for p in passes])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # with tracing on, only the first (untraced) pass gives end-to-end figures
    reported = end_to_end(passes[:1] if args.trace == 1 else passes, setup_times)
    if args.trace == 1:
        (OUT / "traces").mkdir(exist_ok=True)
        tracer.save(OUT / "traces" / f"{args.workload}-seed{args.seed}.npz")
        untraced, traced = (p.stage_s["run_s"] for p in passes)
        layer, info = layer_metrics(tracer, traced, untraced)
        ledger.record("spans_nest", info["nesting_errors"] == 0,
                      f"{info['nesting_errors']} spans leave their parent")
        ledger.record("span_self_times_nonnegative", info["negative_self_spans"] == 0,
                      f"{info['negative_self_spans']} spans have children that overlap "
                      f"or outlast them")
        unattributed = layer["trace.unattributed_s"]
        ledger.record("unattributed_time_small", 0.0 <= unattributed <= 0.01 * traced,
                      f"trace.unattributed_s is {unattributed:.6f} s of run_s {traced:.6f} s")
        record["trace_checks"] = info
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": reported[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    record.update(
        passes=len(passes), setup_times_s=setup_times, rmspe=passes[0].rmspe,
        pass_stage_s=[p.stage_s for p in passes],
        end_to_end={**reported, "failed_frac": ledger.failed_frac},
        metrics={k: v["value"] for k, v in metrics.items()},
        attempted=ledger.attempted, failed=ledger.failed, failure_notes=ledger.notes,
        workload_record=workload.record,
    )
    (OUT / "records").mkdir(exist_ok=True)
    record_path = OUT / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print_table(record, record_path.relative_to(ROOT), reported, metrics)
    print_failures(ledger)
    finite = all(np.isfinite(m["value"]) for m in metrics.values())
    if not finite:
        print("error: a metric is not a finite number; see the record", file=sys.stderr)
    print_result(ledger, metrics if finite else {})
    return 0 if finite else 1


def print_result(ledger, metrics: dict) -> None:
    """The result line: the last line of standard output."""
    print(json.dumps({"correct": ledger.n_failed == 0 and bool(metrics),
                      "attempted": ledger.n_attempted,
                      "failed": ledger.n_failed, "metrics": metrics}))


def print_table(record, record_path, reported, metrics) -> None:
    """Every metric by name, value and unit, and the machine."""
    units = {**END_TO_END, **REPORTED_ONLY}
    print(f"# {record['workload']} seed={record['seed']} passes={record['passes']} "
          f"trace={record['trace']} record={record_path}")
    for name, unit in units.items():
        if name in reported:
            print(f"{name:<40} {fmt(reported[name]):>14} {unit}")
    if record["trace"] == 1:
        for name, m in metrics.items():
            print(f"{name:<40} {fmt(m['value']):>14} {m['unit']:<6} moves {SHOULD_MOVE[name]}")
    print("# env " + json.dumps(record["env"], sort_keys=True))


def print_failures(ledger) -> None:
    """Operations failed/attempted by cause, and a note for each failure."""
    causes = ", ".join(f"{k} {ledger.failed.get(k, 0)}/{v}"
                       for k, v in sorted(ledger.attempted.items()))
    print(f"{'failed_frac':<40} {fmt(ledger.failed_frac):>14} ratio")
    print(f"# operations failed/attempted by cause: {causes}")
    for note in ledger.notes:
        print(f"# failure: {note}")
