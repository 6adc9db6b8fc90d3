"""The three benchmark workloads: configs, CLI commands and output checks.

Each workload is a list of `weakkam` CLI commands run in order in one
process.  Every command has a check that reads its artifacts and returns
a list of problems (empty when the output is correct).  The tolerances are
the acceptance gate's, restated here so that the benchmark does not trust
the tolerances the program writes next to its own claims.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

CROSSCHECK_TOL = 0.02      # |c_bisection + ergodic LP optimum|
AGREEMENT_TOL = 0.03       # sup |barrier-form w - trace-form w|
DUALITY_TOL = 0.03         # |discounted LP optimum - lambda u_lambda(z)|
ORACLE_TOL = 0.02          # |u_lambda(x) - closed form| at an interior probe
SNAP = 1e-9


@dataclass
class Command:
    label: str                       # names the command's output directory
    args: list                       # CLI arguments after the subcommand's common ones
    check: Callable[[Path], list]    # output directory -> list of problems
    digest: list                     # numeric artifacts hashed into the output digest


@dataclass
class Workload:
    name: str
    why: str
    config: dict
    tiny: dict                       # overrides for the smoke-test size
    commands: list = field(default_factory=list)
    builds_lp: bool = False          # whether the problem-size probe builds the LPs

    def config_for(self, size):
        cfg = json.loads(json.dumps(self.config))
        if size == "tiny":
            for section, values in self.tiny.items():
                cfg[section].update(values)
        return cfg


# ---------------------------------------------------------------------------
# artifact readers
# ---------------------------------------------------------------------------

def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _value_at(out, point):
    """Value column of field.csv at the node with the given coordinates."""
    header, rows = _read_csv(out / "field.csv")
    ncoord = len(header) - 2
    for row in rows:
        if all(abs(float(row[1 + k]) - point[k]) < SNAP for k in range(ncoord)):
            return float(row[-1])
    raise LookupError(f"field.csv has no node at {point}")


def quadratic_rate(lam):
    """u_lambda(x) = rate * x^2 solves lambda u + (u')^2/2 = x^2/2."""
    return (-lam + math.sqrt(lam * lam + 4.0)) / 4.0


def _guard(check):
    """Report a missing or malformed artifact as a problem, not a crash."""
    def guarded(out):
        try:
            return check(out)
        except (OSError, LookupError, ValueError, TypeError) as exc:
            return [f"{type(exc).__name__}: {exc}"]
    return guarded


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

@_guard
def check_study(out):
    rep = _read_json(out / "study.json")
    problems = []
    if rep["failures"]:
        problems.append(f"study failures: {rep['failures']}")
    cross = rep["critical_crosscheck"]["value"]
    if not cross <= CROSSCHECK_TOL:
        problems.append(f"critical_crosscheck {cross} > {CROSSCHECK_TOL}")
    agree = rep["estimator_agreement"]["value"]
    if not agree <= AGREEMENT_TOL:
        problems.append(f"estimator_agreement {agree} > {AGREEMENT_TOL}")
    gaps = rep["sup_gaps"]["value"]
    if not all(math.isfinite(g) for g in gaps) or any(b >= a for a, b in zip(gaps, gaps[1:])):
        problems.append(f"sup_gaps not strictly decreasing: {gaps}")
    header, rows = _read_csv(out / "study.csv")
    probe, gap = header.index("probe"), header.index("rep81_gap")
    rep81 = [float(r[gap]) for r in rows if r[probe] != ""]
    if len(rep81) != len(gaps) * 2:
        problems.append(f"{len(rep81)} duality rows, expected {len(gaps) * 2}")
    bad = [g for g in rep81 if not g <= DUALITY_TOL]
    if bad:
        problems.append(f"rep81_gap above {DUALITY_TOL}: {bad}")
    return problems


def check_solve_1d(lam):
    @_guard
    def check(out):
        got = _value_at(out, [1.0])
        err = abs(got - quadratic_rate(lam))
        if not err <= ORACLE_TOL:
            return [f"|u_{lam:g}(1) - quadratic_rate| = {err} > {ORACLE_TOL}"]
        return []
    return check


@_guard
def check_aubry_2d(out):
    coords = _read_json(out / "aubry.json")["coordinates"]
    if not any(max(abs(v) for v in p) < SNAP for p in coords):
        return [f"origin not among the {len(coords)} Aubry nodes"]
    return []


def check_solve_2d(lam):
    @_guard
    def check(out):
        # c = 0 and the origin is the Aubry set, so lambda u_lambda(0) -> -c = 0
        got = abs(lam * _value_at(out, [0.0, 0.0]))
        if not got <= ORACLE_TOL:
            return [f"|lambda u(0)| = {got} > {ORACLE_TOL}"]
        return []
    return check


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

STUDY_1D = Workload(
    name="study_1d",
    why=("the acceptance study at h = 0.02: the dense LP layers (measures, "
         "simplex, limits) take most of the time, warm-started and cold"),
    config={
        "model": {"family": "eikonal", "potential": {"name": "abs"},
                  "superlinearize": True},
        "grid": {"box": [[-4.0, 4.0]], "h": 0.02},
        "velocity": {"q_max": 1.5, "per_axis_count": 7},
        "solver": {"tol": 1e-7},
        "ergodic": {"bisection_tol": 1e-3},
        "measures": {"n_objectives": 4},
        "schedule": {"lambdas": [0.5, 0.25, 0.125]},
        "probes": [[0.0], [1.0]],
        "study": {"sub_box": [[-2.0, 2.0]], "agreement_count": 9},
        "outputs": {"formats": ["csv", "svg"]},
    },
    tiny={"grid": {"h": 0.1}},
    commands=[Command("study", ["study"], check_study, ["w.csv", "study.csv"])],
    builds_lp=True,
)

DISCOUNTED_LAMBDAS = (1.0, 0.25, 0.05)

DISCOUNTED_1D = Workload(
    name="discounted_1d",
    why=("value iteration and interpolation only (no LP, no graph search); "
         "small lambda needs 14k sweeps and writes a 400 KB trace.csv"),
    config={
        "model": {"family": "quadratic", "potential": {"name": "half_square"}},
        "grid": {"box": [[-4.0, 4.0]], "h": 0.02},
        "velocity": {"q_max": 2.0, "per_axis_count": 33},
        "solver": {"tol": 1e-7},
        "schedule": {"lambdas": [1.0]},
        "outputs": {"formats": ["csv"]},
    },
    # same h and velocity spacing on half the box: the oracle errors are unchanged
    tiny={"grid": {"box": [[-2.0, 2.0]]}, "velocity": {"q_max": 1.0, "per_axis_count": 17}},
    commands=[Command(f"solve_{lam:g}", ["solve", "--lambda", repr(lam)],
                      check_solve_1d(lam), ["field.csv"])
              for lam in DISCOUNTED_LAMBDAS],
)

GRAPH_LAMBDA = 0.5

GRAPH_2D = Workload(
    name="graph_2d",
    why=("2D min-plus relaxation and per-foot support radii for the Aubry set, "
         "then a 4-corner discounted solve; no LP"),
    config={
        # model.dimension must be explicit: the default of 1 is filled in
        # before the box length is consulted
        "model": {"family": "quadratic", "potential": {"name": "half_square"},
                  "dimension": 2},
        "grid": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 0.1},
        "velocity": {"q_max": 1.5, "per_axis_count": 5},
        "solver": {"tol": 1e-7},
        "schedule": {"lambdas": [GRAPH_LAMBDA]},
        "outputs": {"formats": ["csv"]},
    },
    tiny={"grid": {"h": 0.25}},
    commands=[
        Command("aubry", ["aubry"], check_aubry_2d, ["aubry.csv"]),
        Command("solve", ["solve", "--lambda", repr(GRAPH_LAMBDA)],
                check_solve_2d(GRAPH_LAMBDA), ["field.csv"]),
    ],
)

WORKLOADS = {w.name: w for w in (STUDY_1D, DISCOUNTED_1D, GRAPH_2D)}
