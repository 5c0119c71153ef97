"""The three benchmark workloads: fixed job lists and their output checks.

A job is one CLI invocation through ``tilegroups.cli.main(argv)`` (stdout
captured, ``--out`` in the run's scratch directory) or one chain of public
library calls.  ``Job.run`` is the timed program call; ``Job.check`` reads
its output afterwards, untimed, and returns an ``Outcome``.

Program functions are looked up on their modules at call time, so the
tracer's rebound wrappers are the ones called when tracing is on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
SCHEMES = HERE / "schemes"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("generate", "universal-groups", "verify")

CASES = ("fib", "periodic-ab-2-1", "splice-irrational", "splice-rational-3-2")
SUITES = ("semigroup-axioms", "empire", "modelset-vs-substitution", "partial-action",
          "obstruction", "language-free", "table")


@dataclass
class Outcome:
    """attempted/failed count operations; ``wrong`` marks output that
    contradicts the record; ``problems`` says what went wrong."""

    attempted: int = 1
    failed: int = 0
    wrong: bool = False
    problems: list[str] = field(default_factory=list)


@dataclass
class Job:
    id: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    ops: int = 1  # operations counted as failed when the job raises
    # (module, function): a long job whose calls of this function are
    # timed, and scaled to machine speed, one by one
    split: Optional[tuple[object, str]] = None


def expect(job_id: str, got: dict, want: dict) -> Outcome:
    problems = [f"{job_id}: {key} is {got.get(key)!r}, expected {value!r}"
                for key, value in want.items() if got.get(key) != value]
    return Outcome(1, 1 if problems else 0, bool(problems), problems)


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# CLI jobs


def cli_call(tg, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return tg.cli.main(argv)


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def generate_summary(path: str) -> dict:
    """The exact outputs of a ``generate`` job that the golden file records."""
    data = read_json(path)
    if "points" in data:
        return {"count": data["count"], "sha256": digest(data["points"])}
    points, words = data["pointset"]["points"], data["language"]["words"]
    return {"points": len(points), "points_sha256": digest(points),
            "words": len(words), "words_sha256": digest(words)}


def generate_argvs(tmp: str) -> list[tuple[str, list[str]]]:
    fib, wide = str(SCHEMES / "fib_rational.json"), str(SCHEMES / "wide_field.json")
    jobs = [(f"gen-fib-R{r}", ["generate", "--scheme", fib, "--radius", str(r)])
            for r in (25, 50, 100, 200)]
    jobs.append(("gen-wide-R200", ["generate", "--scheme", wide, "--radius", "200"]))
    jobs.append(("gen-case-fib", ["generate", "--case", "fib", "--half-width", "4000", "--max-len", "30"]))
    return [(job_id, argv + ["--out", os.path.join(tmp, f"{job_id}.json")]) for job_id, argv in jobs]


def generate_jobs(tg, tmp: str, seed: int) -> list[Job]:
    golden = load_golden()["generate"]
    jobs = []
    for job_id, argv in generate_argvs(tmp):
        out = argv[-1]

        def check(rc, job_id=job_id, out=out):
            if rc != 0:
                return Outcome(1, 1, True, [f"{job_id}: exit code {rc}"])
            return expect(job_id, generate_summary(out), golden[job_id])

        jobs.append(Job(job_id, lambda argv=argv: cli_call(tg, argv), check))
    return jobs


# Mathematical facts of the truncations (the reference cases at
# half-width 400, max length 30), independent of the implementation.
PRESENT_EXPECTED = {
    "fib": {"harvest_pairs": 3111, "abelian_invariants": [2, []], "rank": 2, "table_discrepancy": False},
    "periodic-ab-2-1": {"harvest_pairs": 15, "abelian_invariants": [2, []], "rank": 1,
                        "table_discrepancy": False},
    "splice-irrational": {"harvest_pairs": 0, "free_rank_2": True, "rank": 2, "table_discrepancy": True},
    "splice-rational-3-2": {"harvest_pairs": 1495, "abelian_invariants": [1, []], "rank": 1},
}


def present_facts(path: str) -> dict:
    rep = read_json(path)
    group, diff = rep["universal_group"], rep["difference_group"]
    return {
        "harvest_pairs": rep["harvest_pairs"],
        "abelian_invariants": group["abelian_invariants"],
        "free_rank_2": group["statement"].startswith("free rank 2"),
        "rank": diff["rank"],
        "table_discrepancy": diff.get("table_discrepancy"),
    }


# ---------------------------------------------------------------------------
# universal-groups

# The table route: (case, half-width, difference bound, points, table
# entries, abelian invariants).  The fib bound is tau + 1.
TABLE_ROUTE = (
    ("fib", 15, "3/2+1/2*sqrt(5)", 32, 31, (2, [])),
    ("fib", 30, "3/2+1/2*sqrt(5)", 62, 31, (2, [])),
    ("fib", 45, "3/2+1/2*sqrt(5)", 92, 31, (2, [])),
    ("periodic-ab-2-1", 30, "6", 62, 103, (2, [])),
    ("splice-rational-3-2", 30, "6", 62, 61, (1, [])),
)


def universal_group_jobs(tg, tmp: str, seed: int) -> list[Job]:
    QR, tau = tg.QuadraticRational, tg.golden_ratio()
    jobs = []
    for case in CASES:
        job_id = f"present-{case}"
        out = os.path.join(tmp, f"{job_id}.json")
        argv = ["present", "--case", case, "--half-width", "400", "--max-len", "30", "--out", out]

        def check(rc, job_id=job_id, case=case, out=out):
            if rc != 0:
                return Outcome(1, 1, True, [f"{job_id}: exit code {rc}"])
            return expect(job_id, present_facts(out), PRESENT_EXPECTED[case])

        jobs.append(Job(job_id, lambda argv=argv: cli_call(tg, argv), check))

    cases = tg.cli.reference_cases()
    for case, half_width, bound, points, entries, invariants in TABLE_ROUTE:
        job_id = f"table-{case}-{half_width}"

        def run(case=cases[case], half_width=half_width, bound=QR.from_string(bound)):
            ps = tg.cli.case_pointset(case, half_width)
            table = tg.patterns.maxset_table(ps, bound)
            return {"points": len(ps), "entries": len(table)} | presentation_facts(
                tg, tg.universal.maxset_presentation(table))

        want = {"points": points, "entries": entries, "invariants": invariants,
                "tietze_invariants": invariants}
        jobs.append(Job(job_id, run, lambda got, job_id=job_id, want=want: expect(job_id, got, want)))

    window = tg.WindowSet.interval(QR(0), QR(1))

    def partial_action():
        data = tg.modelset.partial_action_data((QR(1), tau), window, 16)
        return {"elements": len(data.elements), "relations": len(data.relations)} | presentation_facts(
            tg, tg.universal.maxset_presentation(data))

    want = {"elements": 39, "relations": 865, "invariants": (2, []), "tietze_invariants": (2, [])}
    jobs.append(Job("partial-action-16", partial_action,
                    lambda got: expect("partial-action-16", got, want)))
    return jobs


def presentation_facts(tg, pres) -> dict:
    """Abelian invariants of a presentation and of its Tietze
    simplification, which presents the same group."""
    return {
        "invariants": tg.presentation.abelian_invariants(pres),
        "tietze_invariants": tg.presentation.abelian_invariants(tg.presentation.tietze_simplify(pres)),
    }


# ---------------------------------------------------------------------------
# verify


def check_key(entry: dict) -> str:
    """Suite and check name without a trailing parenthesis, which carries
    sample counts that depend on the seed."""
    return entry["suite"] + ": " + re.sub(r"\s*\([^()]*\)$", "", entry["check"])


def verify_states(path: str) -> list[list]:
    return [[check_key(c), "PASS" if c["passed"] else "FAIL"] for c in read_json(path)["checks"]]


def verify_jobs(tg, tmp: str, seed: int) -> list[Job]:
    recorded = load_golden()["verify"]
    out = os.path.join(tmp, "verify-all.json")
    argv = ["verify", "--suite", "all", "--radius", "100", "--seed", str(seed), "--out", out]
    want_rc = 1 if any(state == "FAIL" for _, state in recorded) else 0

    def check(rc):
        if rc not in (0, 1):
            return Outcome(len(recorded), len(recorded), True, [f"verify-all: exit code {rc}"])
        got = dict(verify_states(out))
        outcome = Outcome(attempted=max(len(got), len(recorded)))
        if rc != want_rc:
            outcome.problems.append(f"verify-all: exit code {rc}, recorded {want_rc}")
        for name, state in recorded:
            now = got.pop(name, None)
            if now is None:
                outcome.failed += 1
                outcome.wrong = True
                outcome.problems.append(f"missing check: {name}")
            elif now != state:
                # a check that changed state either way is counted failed;
                # only PASS -> FAIL is wrong output
                outcome.failed += 1
                outcome.wrong = outcome.wrong or now == "FAIL"
                outcome.problems.append(f"{name}: {now}, recorded {state}")
            elif now == "FAIL":
                outcome.failed += 1
                outcome.problems.append(f"{name}: FAIL, as recorded")
        for name, state in got.items():
            outcome.failed += state == "FAIL"
            outcome.wrong = outcome.wrong or state == "FAIL"
            outcome.problems.append(f"unrecorded check: {name}: {state}")
        return outcome

    return [Job("verify-all", lambda: cli_call(tg, argv), check, ops=len(recorded),
                split=(tg.cli, "run_suite"))]


JOB_LISTS = {
    "generate": generate_jobs,
    "universal-groups": universal_group_jobs,
    "verify": verify_jobs,
}

# every job id of every workload, for the per-job trace metrics
JOB_IDS = (
    [job_id for job_id, _ in generate_argvs("")]
    + [f"present-{case}" for case in CASES]
    + [f"table-{case}-{half_width}" for case, half_width, *_ in TABLE_ROUTE]
    + ["partial-action-16"]
    + ["verify-all"]
)
