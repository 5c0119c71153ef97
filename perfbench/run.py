"""Benchmark of the tilegroups package: one workload per run.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; the program is imported from the
checkout's ``src/`` directory.  A run starts fresh worker processes one
after another until ``--seconds`` is spent; each imports the package and
runs the workload's fixed job list once, closed loop on one thread.
``--trace 0`` reports end-to-end metrics: ``wall_s`` from each job's
median time over the passes, scaled to a reference machine speed by the
calibrations taken around it, and ``setup_s``, scaled the same way, as
the median over the workers and the set-up-only processes started
between them.  ``--trace 1`` runs one
counting worker, then untraced and span-traced workers in turn, and
reports per-layer metrics.  The last line of stdout is the result object;
the line before it holds the per-worker details, which are also written
to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# wall_s is scaled to a machine on which calibrate() reads this: the
# fastest reading on the 2-core VM where the benchmark was defined
REFERENCE_CALIBRATION_S = 0.0032
CALIBRATION_REPEATS = 3
MIN_PASSES = 3
SETUP_PROBES_PER_PASS = 2
MIN_TRACED_ROUNDS = 2
MAX_STEPS = 40
WORKER_TIMEOUT_S = 150
RUN_LIMIT_S = 170  # a step starts only if two more would end before this


def calibrate(repeats: int) -> float:
    """Fastest of ``repeats`` timings of fixed pure-Python work of the kind
    the program does, exact fractions built, hashed and sorted, that runs
    no program code: the machine's speed at the time."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fractions = [Fraction(i * 7919 % 10007, i + 1) for i in range(1, 600)]
        seen: dict[Fraction, int] = {}
        for f in fractions:
            seen[f] = seen.get(f, 0) + 1
        fractions.sort()
        times.append(time.perf_counter() - t0)
    return min(times)


def import_program():
    """Import tilegroups from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import tilegroups
    import tilegroups.cli

    if Path(tilegroups.__file__).resolve().parent != SRC / "tilegroups":
        raise ImportError(f"imported tilegroups from {tilegroups.__file__}, not from {SRC}")
    return tilegroups


# ---------------------------------------------------------------------------
# worker: one fresh process, one pass over the job list


def worker(args: argparse.Namespace) -> dict:
    import traceback

    from workloads import JOB_LISTS, Outcome

    t0 = time.perf_counter()
    tg = import_program()
    jobs = JOB_LISTS[args.workload](tg, args.tmp, args.seed)
    setup_s = time.perf_counter() - t0
    calibrate(1)  # warm-up, not kept
    calibrations = [calibrate(CALIBRATION_REPEATS)]
    setup = {"setup_s": setup_s, "scaled_setup_s": setup_s * REFERENCE_CALIBRATION_S / calibrations[0]}
    if args.role == "setup":
        return setup

    tracer = counts = None
    if args.role == "spans":
        from layers import observers
        from tracer import SpanTracer

        tally, table = observers()
        tracer = SpanTracer(table)
    elif args.role == "counts":
        from tracer import CountPass

        counts = CountPass(tg.exactnum)

    result = {**setup, "job_s": {}, "scaled_s": {},
              "attempted": 0, "failed": 0, "wrong": False, "problems": []}
    with tracer or counts or contextlib.nullcontext():
        for job in jobs:
            span = contextlib.nullcontext()
            if tracer is not None:
                tally.job = job.id
                span = tracer.job(job.id)
            # the untraced workers also split a long job, to scale it piece by piece
            splitter = Splitter(job.split, calibrations) if job.split and args.role == "plain" else None
            before = calibrations[-1]
            try:
                with span, splitter or contextlib.nullcontext():
                    start = time.perf_counter()
                    output = job.run()
                    job_s = time.perf_counter() - start
                calibrations.append(calibrate(CALIBRATION_REPEATS))
                # the machine's speed during the job, or a piece of it, is
                # read from the calibrations just before and just after it
                pieces = splitter.pieces if splitter else []
                job_s -= splitter.paused_s if splitter else 0.0
                rest_s = job_s - sum(seconds for seconds, _, _ in pieces)
                result["job_s"][job.id] = job_s
                result["scaled_s"][job.id] = 2 * REFERENCE_CALIBRATION_S * (
                    rest_s / (before + calibrations[-1])
                    + sum(seconds / (cal_before + cal_after) for seconds, cal_before, cal_after in pieces))
                outcome = job.check(output)
            except Exception:
                outcome = Outcome(job.ops, job.ops, True, [f"{job.id} raised:\n{traceback.format_exc()}"])
            result["attempted"] += outcome.attempted
            result["failed"] += outcome.failed
            result["wrong"] = result["wrong"] or outcome.wrong
            result["problems"] += outcome.problems
    result["wall_s"] = sum(result["job_s"].values())
    result["calibrations"] = calibrations
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        from layers import span_metrics

        result["layers"] = span_metrics(tracer, tally)
        result["tree"] = tracer.tree()
        result["spans_file"] = os.path.join(args.tmp, f"spans-{os.getpid()}.json")
        with open(result["spans_file"], "w") as fh:
            json.dump(tracer.spans(), fh)
    if counts is not None:
        result["layers"] = counts.metrics()
    return result


class Splitter:
    """While active, times each call of ``module.name`` as a piece of the
    running job and takes a calibration after it.  ``pieces`` holds
    (seconds, calibration before, calibration after); ``paused_s`` is the
    time the calibrations took inside the job."""

    def __init__(self, target: tuple[object, str], calibrations: list[float]) -> None:
        self.module, self.name = target
        self.calibrations = calibrations
        self.pieces: list[tuple[float, float, float]] = []
        self.paused_s = 0.0

    def __enter__(self) -> "Splitter":
        fn = self.fn = getattr(self.module, self.name)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.calibrations.append(calibrate(CALIBRATION_REPEATS))
                self.paused_s += time.perf_counter() - t1
                self.pieces.append((t1 - t0, self.calibrations[-2], self.calibrations[-1]))

        setattr(self.module, self.name, timed)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.module, self.name, self.fn)


# ---------------------------------------------------------------------------
# parent: starts workers, aggregates, prints the result


def run_worker(args: argparse.Namespace, role: str, tmp: Path) -> dict:
    cmd = [sys.executable, str(Path(__file__)), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", str(tmp)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def scaled_wall(passes: list[dict]) -> float:
    """Time of the job list at the reference machine speed: the sum over
    the jobs of the median over the passes of each job's scaled time.

    The machine is shared, and other tenants slow it by up to 2x for
    seconds or minutes at a time.  A job's time divided by the
    calibrations taken around it stays steady through such a spell; the
    median then drops passes disturbed within the job.
    """
    jobs = {job for p in passes for job in p["scaled_s"]}
    return sum(statistics.median(p["scaled_s"][job] for p in passes if job in p["scaled_s"])
               for job in jobs)


def repeat(args: argparse.Namespace, step: Callable[[], None], min_steps: int, start: float) -> None:
    """Call ``step`` until ``--seconds`` since ``start`` are spent: at
    least ``min_steps`` times, and never starting one that would end past
    RUN_LIMIT_S."""
    for done in range(1, MAX_STEPS + 1):
        step()
        elapsed = time.perf_counter() - start
        per_step = elapsed / done
        if done >= min_steps and elapsed + per_step > args.seconds:
            break
        if elapsed + 2 * per_step > RUN_LIMIT_S:
            break


def untraced(args: argparse.Namespace, tmp: Path) -> tuple[list[dict], dict, dict]:
    setups: list[dict] = []
    passes: list[dict] = []

    def step() -> None:
        # set-up probes are spread over the run, so that a slow spell of
        # the machine weighs on setup_s no more than on wall_s
        setups.extend(run_worker(args, "setup", tmp) for _ in range(SETUP_PROBES_PER_PASS))
        passes.append(run_worker(args, "plain", tmp))

    repeat(args, step, MIN_PASSES, time.perf_counter())
    setups += passes
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "setup_s": (statistics.median(p["scaled_setup_s"] for p in setups), "s"),
        "wall_s": (scaled_wall(passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    extra = {"setup_s_unscaled": statistics.median(p["setup_s"] for p in setups),
             "setup_samples": len(setups)}
    return passes, metrics, extra


def traced(args: argparse.Namespace, tmp: Path) -> tuple[list[dict], dict, dict]:
    """One counting worker, then untraced and span-traced workers in turn
    until ``--seconds`` is spent; the span metrics come from the fastest
    span-traced worker."""
    from layers import layer_metrics

    start = time.perf_counter()
    counts = run_worker(args, "counts", tmp)
    plain: list[dict] = []
    spans: list[dict] = []

    def step() -> None:
        plain.append(run_worker(args, "plain", tmp))
        spans.append(run_worker(args, "spans", tmp))

    repeat(args, step, MIN_TRACED_ROUNDS, start)
    fastest = min(spans, key=lambda p: p["wall_s"])
    OUT.mkdir(exist_ok=True)
    shutil.move(fastest["spans_file"], OUT / f"{args.workload}-seed{args.seed}-spans.json")
    overhead_s = scaled_wall(spans) - scaled_wall(plain)
    metrics = layer_metrics(plain, fastest, counts, overhead_s)
    return [counts] + plain + spans, metrics, {"span_tree": fastest["tree"]}


def parent(args: argparse.Namespace) -> int:
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        passes, metrics, extra = (traced if args.trace else untraced)(args, tmp)
    finally:
        shutil.rmtree(tmp)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0],
        "wall_s_unscaled": statistics.median(p["wall_s"] for p in passes),
        "passes": [{k: v for k, v in p.items() if k not in ("tree", "problems", "layers")}
                   for p in passes],
        "problems": sorted({msg for p in passes for msg in p["problems"]}),
        **extra,
    }
    if args.trace:
        from tracer import format_tree

        tree = details["span_tree"]
        print(format_tree(tree, 0.01 * sum(row["self_s"] for row in tree)))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(details, fh, indent=1)
    details.pop("span_tree", None)
    print(json.dumps(details))
    print(json.dumps({
        "correct": not any(p["wrong"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--role", choices=["parent", "setup", "plain", "spans", "counts"], default="parent",
                    help=argparse.SUPPRESS)
    ap.add_argument("--tmp", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "tilegroups" / "__init__.py").is_file():
        print(f"error: no tilegroups package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.role == "parent":
        return parent(args)
    print(json.dumps(worker(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
