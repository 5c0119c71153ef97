"""Per-layer metrics of a traced run, named ``<module>.<what>``.

``_s`` is self time summed over the run (span time minus the time its
child spans cover); ``_calls`` and the other counts are exact.  A layer a
workload never calls reports 0.  The names and units here are the
``per_layer`` list of BENCHMARK.json.
"""

from __future__ import annotations

import statistics

from tracer import SpanTracer, loglog_slope
from workloads import JOB_IDS, SUITES

# traced function -> prefix of its self-time and call-count metrics
SELF_TIMES = {
    "modelset.modelset_points": "modelset.points",
    "modelset.empire_brute": "modelset.empire_brute",
    "modelset.empire_equal": "modelset.empire_equal",
    "modelset.pattern_window": "modelset.pattern_window",
    "modelset.partial_action_data": "modelset.partial_action",
    "sequences.two_sided_window": "sequences.window",
    "sequences.factor_language": "sequences.factor_language",
    "pointset.diff_set": "pointset.diff_set",
    "pointset.chained_sum": "pointset.chained_sum",
    "pointset.build_pointset": "pointset.build",
    "pointset.difference_group_invariants": "pointset.difference_group",
    "patterns.maxset_table": "patterns.maxset_table",
    "patterns.multiply": "patterns.multiply",
    "presentation.abelian_invariants": "presentation.abelian_invariants",
    "presentation.smith_normal_form": "presentation.smith",
    "presentation.tietze_simplify": "presentation.tietze",
    "presentation.hnf": "presentation.hnf",
    "universal.harvest_equal_length_relations": "universal.harvest",
    "universal.maxset_presentation": "universal.maxset_presentation",
    "universal.accent_multiply": "universal.accent_multiply",
}

# metric -> unit, in the order of BENCHMARK.json
UNITS = {
    "modelset.points_s": "s",
    "modelset.points_calls": "count",
    "modelset.points_out": "count",
    "modelset.points_exponent": "1",
    "exactnum.constructed": "count",
    "exactnum.sign_calls": "count",
    "exactnum.floor_calls": "count",
    "exactnum.square_free_s": "s",
    "exactnum.square_free_calls": "count",
    "modelset.empire_brute_s": "s",
    "modelset.empire_brute_calls": "count",
    "modelset.empire_equal_s": "s",
    "modelset.pattern_window_s": "s",
    "modelset.partial_action_s": "s",
    "modelset.partial_action_relations": "count",
    "sequences.window_s": "s",
    "sequences.factor_language_s": "s",
    "sequences.factors_out": "count",
    "pointset.diff_set_s": "s",
    "pointset.diff_set_calls": "count",
    "pointset.diffs_out": "count",
    "pointset.diff_set_exponent": "1",
    "pointset.chained_sum_calls": "count",
    "pointset.chained_sum_defined_ratio": "ratio",
    "pointset.build_s": "s",
    "pointset.difference_group_s": "s",
    "patterns.maxset_table_s": "s",
    "patterns.table_entries": "count",
    "patterns.multiply_s": "s",
    "patterns.multiply_calls": "count",
    "patterns.multiply_defined_ratio": "ratio",
    "patterns.multiply_unknown": "count",
    "presentation.abelian_invariants_s": "s",
    "presentation.smith_s": "s",
    "presentation.relators_in": "count",
    "presentation.tietze_s": "s",
    "presentation.relators_after_tietze": "count",
    "presentation.hnf_s": "s",
    "universal.harvest_s": "s",
    "universal.harvest_pairs": "count",
    "universal.maxset_presentation_s": "s",
    "universal.accent_multiply_calls": "count",
    "universal.accent_defined_ratio": "ratio",
    **{f"cli.job_s.{job}": "s" for job in JOB_IDS},
    **{f"cli.suite_s.{suite}": "s" for suite in SUITES},
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "machine.calibration_s": "s",
}


# the size ladders of the scaling exponents: the jobs whose calls are fitted
POINTS_LADDER = ("gen-fib-R25", "gen-fib-R50", "gen-fib-R100", "gen-fib-R200")
DIFF_SET_LADDER = ("table-fib-15", "table-fib-30", "table-fib-45")


class Tally:
    """Output sizes and per-call samples gathered by tracer observers.
    ``job`` is the id of the job running, set by the caller."""

    def __init__(self) -> None:
        self.job = ""
        self.counts: dict[str, float] = {}
        self.points_samples: list[tuple[float, float]] = []  # (radius, seconds) on POINTS_LADDER
        self.diff_samples: list[tuple[float, float]] = []  # (points, seconds) on DIFF_SET_LADDER
        self.suite_s: dict[str, float] = {}

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def observers() -> tuple[Tally, dict]:
    """Tracer observers for the output-size counters and per-call samples,
    and the tally they fill."""
    tally = Tally()

    def points(args, kwargs, result, dt):
        if tally.job in POINTS_LADDER:
            radius = kwargs["radius"] if "radius" in kwargs else args[1]
            tally.points_samples.append((radius.to_float(), dt))
        tally.add("modelset.points_out", len(result))

    def diff_set(args, kwargs, result, dt):
        if tally.job in DIFF_SET_LADDER:
            tally.diff_samples.append((len(args[0]), dt))
        tally.add("pointset.diffs_out", len(result))

    def suite(args, kwargs, result, dt):
        tally.suite_s[args[0]] = tally.suite_s.get(args[0], 0.0) + dt

    def multiply(args, kwargs, result, dt):
        tally.add("patterns.multiply_defined", result.status == "defined")
        tally.add("patterns.multiply_unknown", result.status == "unknown")

    def tietze(args, kwargs, result, dt):
        tally.add("presentation.relators_in", len(args[0].relators))
        tally.add("presentation.relators_after_tietze", len(result.relators))

    table = {
        "modelset.modelset_points": points,
        "pointset.diff_set": diff_set,
        "cli.run_suite": suite,
        "patterns.multiply": multiply,
        "presentation.tietze_simplify": tietze,
        "modelset.partial_action_data":
            lambda a, k, r, dt: tally.add("modelset.partial_action_relations", len(r.relations)),
        "sequences.factor_language": lambda a, k, r, dt: tally.add("sequences.factors_out", len(r.words)),
        "pointset.chained_sum": lambda a, k, r, dt: tally.add("pointset.chained_sum_defined", r is not None),
        "patterns.maxset_table": lambda a, k, r, dt: tally.add("patterns.table_entries", len(r)),
        "universal.harvest_equal_length_relations":
            lambda a, k, r, dt: tally.add("universal.harvest_pairs", len(r.pairs)),
        "universal.accent_multiply": lambda a, k, r, dt: tally.add("universal.accent_defined", r is not None),
    }
    return tally, table


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(tracer: SpanTracer, tally: Tally) -> dict[str, float]:
    agg = tracer.by_name()
    out: dict[str, float] = {}
    for func, prefix in SELF_TIMES.items():
        rec = agg.get(func, {"calls": 0, "self_s": 0.0})
        out[f"{prefix}_s"] = rec["self_s"]
        out[f"{prefix}_calls"] = rec["calls"]
    out.update(tally.counts)
    out["modelset.points_exponent"] = loglog_slope(tally.points_samples)
    out["pointset.diff_set_exponent"] = loglog_slope(tally.diff_samples)
    out["pointset.chained_sum_defined_ratio"] = ratio(
        tally.counts.get("pointset.chained_sum_defined", 0), out["pointset.chained_sum_calls"])
    out["patterns.multiply_defined_ratio"] = ratio(
        tally.counts.get("patterns.multiply_defined", 0), out["patterns.multiply_calls"])
    out["universal.accent_defined_ratio"] = ratio(
        tally.counts.get("universal.accent_defined", 0), out["universal.accent_multiply_calls"])
    out["trace.spans"] = len(tracer.span_name)
    for job, seconds in tracer.job_totals().items():
        out[f"cli.job_s.{job}"] = seconds
    for suite, seconds in tally.suite_s.items():
        out[f"cli.suite_s.{suite}"] = seconds
    return out


def layer_metrics(plain: list[dict], spans: dict, counts: dict,
                  overhead_s: float) -> dict[str, tuple[float, str]]:
    """The per_layer metrics of one traced run: span metrics from one
    span-traced worker, counts from the counting worker, and the machine
    speed record of the untraced workers."""
    values = dict(spans["layers"])
    values.update(counts["layers"])
    values["trace.overhead_s"] = overhead_s
    values["machine.calibration_s"] = statistics.median(c for p in plain for c in p["calibrations"])
    return {name: (values.get(name, 0), unit) for name, unit in UNITS.items()}
