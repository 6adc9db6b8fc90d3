"""Batch front end: declarative run configs, pipelines, and artifacts.

Subcommands (all take --config): validate, critical, distance, aubry,
solve, mather, limit, study.  Each writes CSV/JSON/SVG artifacts plus a
manifest (inputs, versions, checksums) under the configured output
directory; the manifest is written last.  Exit codes: 0 success, 2 config
or assumption validation failure, 3 solver failure.

The config is a JSON key tree; see the README for the committed schema.
Values can be overridden on the command line with --set key.path=value.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, io
from .critical import (
    build_aubry_data,
    critical_value,
    intrinsic_distance,
)
from .discounted import solve_discounted
from .errors import (
    A3Violated,
    ConfigError,
    DegenerateBox,
    NotNormalized,
    WeakKAMError,
)
from .grids import build_grid, build_transition, build_velocity_set
from .limits import vanishing_discount_study
from .measures import (
    build_discounted_lp,
    build_ergodic_lp,
    closedness_residual,
    holonomy_residual,
    lp_solve,
    support_check,
)
from .models import (
    FAMILIES,
    SampledTable,
    make_model,
    resolve_potential,
    superlinearize,
    validate_assumptions,
)

# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: not valid JSON ({exc})")
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be an object")
    return cfg


def apply_overrides(cfg, assignments):
    for item in assignments or ():
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key.path=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {part} is not an object")
        node[parts[-1]] = value
    return cfg


def _require(cfg, path, types, predicate=None, what=""):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"{path}: required")
        node = node[part]
    if types is not None and not isinstance(node, types):
        raise ConfigError(f"{path}: expected {what or types}")
    if predicate is not None and not predicate(node):
        raise ConfigError(f"{path}: invalid value {node!r} {what}")
    return node


def _is_number(value):
    return type(value) in (int, float) and math.isfinite(value)


def _is_interval(pair):
    return (isinstance(pair, list) and len(pair) == 2 and all(map(_is_number, pair))
            and pair[0] < pair[1])


_POSITIVE = (lambda v: _is_number(v) and v > 0, "a positive number")
_NONNEGATIVE = (lambda v: _is_number(v) and v >= 0, "a nonnegative number")
_COUNT = (lambda v: type(v) is int and v >= 0, "a nonnegative integer")
_POSITIVE_COUNT = (lambda v: type(v) is int and v > 0, "a positive integer")

# every defaulted setting: its default, then the values it accepts besides a
# None default and their description (study.sub_box is checked against the grid)
SETTINGS = {
    "model.normalization_shift": (0.0, lambda v: v == "auto" or _is_number(v),
                                  'a number or "auto"'),
    "model.superlinearize": (None, lambda v: isinstance(v, bool), "true or false"),
    "solver.tol": (1e-6, *_POSITIVE),
    "solver.max_iter": (None, *_POSITIVE_COUNT),
    "ergodic.bisection_tol": (1e-3, *_POSITIVE),
    "ergodic.eps_aubry": (None, *_POSITIVE),
    "measures.slack": (None, *_NONNEGATIVE),
    "measures.n_objectives": (4, *_COUNT),
    "measures.mass_tol": (None, *_NONNEGATIVE),
    "study.sub_box": (None, None, None),
    "study.agreement_count": (9, *_POSITIVE_COUNT),
    "outputs.directory": ("out", lambda v: isinstance(v, str), "a path"),
    "seeds.master": (0, *_COUNT),
}


# the settings without a default; a key outside these and SETTINGS is ignored
OTHER_KEYS = {"model.family", "model.potential", "model.dimension", "model.sampled_csv",
              "model.p_grid", "grid.box", "grid.h", "velocity.q_max",
              "velocity.per_axis_count", "schedule.lambdas", "schedule.geometric", "probes"}


def unknown_settings(cfg):
    """Key paths (section.key, or a top-level key) of cfg that no command
    reads: a misspelt or retired setting, which runs with the default."""
    unknown = []
    for section, block in cfg.items():
        paths = [f"{section}.{key}" for key in block] if isinstance(block, dict) else []
        unknown += [p for p in paths or [section] if p not in SETTINGS and p not in OTHER_KEYS]
    return unknown


def _merge_defaults(cfg):
    for path, (default, _, _) in SETTINGS.items():
        section, key = path.split(".")
        block = cfg.setdefault(section, {})
        if not isinstance(block, dict):
            raise ConfigError(f"{section}: expected an object")
        block.setdefault(key, default)
    return cfg


def validate_config(cfg, need_schedule=False):
    """Schema check with precise key-path messages; fills defaults.  The
    schedule is checked when the command needs one or the config has one."""
    _merge_defaults(cfg)
    family = _require(cfg, "model.family", str,
                      lambda v: v in FAMILIES, f"one of {tuple(FAMILIES)}")
    if FAMILIES[family].tabulated:
        _require(cfg, "model.sampled_csv", str)
        _require(cfg, "model.p_grid", list, lambda v: len(v) >= 3,
                 "(list of at least 3 momenta)")
    else:
        try:
            resolve_potential(_require(cfg, "model.potential", (str, dict)))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"model.potential: {exc.args[0]}") from None
    box = _require(cfg, "grid.box", list, lambda v: len(v) >= 1)
    for k, pair in enumerate(box):
        if not _is_interval(pair):
            raise ConfigError(f"grid.box[{k}]: expected [lo, hi] with lo < hi")
    h = _require(cfg, "grid.h", None, _POSITIVE[0], "(positive number)")
    try:
        grid = build_grid(box, h)
    except ValueError as exc:
        raise ConfigError(f"grid.h: {exc}") from None
    _require(cfg, "velocity.q_max", None, _POSITIVE[0], "(positive number)")
    _require(cfg, "velocity.per_axis_count", int,
             lambda v: v >= 3 and v % 2 == 1, "(odd integer >= 3)")
    dim = cfg["model"].get("dimension", len(box))
    if type(dim) is not int or dim != len(box):
        raise ConfigError(f"model.dimension: {dim} does not match grid.box of length {len(box)}")
    cfg["model"]["dimension"] = dim
    if need_schedule or "schedule" in cfg:
        resolve_schedule(cfg)
    probes = cfg.get("probes", [])
    if not isinstance(probes, list):
        raise ConfigError("probes: expected a list of points")
    for k, p in enumerate(probes):
        if _is_number(p) and dim == 1:
            probes[k] = [float(p)]
        elif not (isinstance(p, list) and len(p) == dim and all(map(_is_number, p))):
            raise ConfigError(f"probes[{k}]: expected a list of {dim} numbers, got {p!r}")
    cfg["probes"] = probes
    for path, (default, accepts, what) in SETTINGS.items():
        section, key = path.split(".")
        value = cfg[section][key]
        if accepts and not ((value is None and default is None) or accepts(value)):
            raise ConfigError(f"{path}: expected {what}, got {value!r}")
    sub_box = cfg["study"]["sub_box"]
    if sub_box is not None and not (isinstance(sub_box, list) and len(sub_box) == dim
                                    and all(map(_is_interval, sub_box))
                                    and grid.box_mask(sub_box).any()):
        raise ConfigError(f"study.sub_box: expected {dim} [lo, hi] pairs with lo < hi "
                          f"around at least one grid node, got {sub_box!r}")
    return cfg


def resolve_schedule(cfg):
    block = cfg.get("schedule")
    if not isinstance(block, dict):
        raise ConfigError("schedule: required")
    if "lambdas" in block:
        lam = block["lambdas"]
        if not (isinstance(lam, list) and len(lam) >= 1
                and all(_is_number(v) and v > 0 for v in lam)
                and all(a > b for a, b in zip(lam, lam[1:]))):
            raise ConfigError("schedule.lambdas: expected a strictly decreasing "
                              "list of positive numbers")
        return [float(v) for v in lam]
    if "geometric" in block:
        geo = block["geometric"]
        if not isinstance(geo, dict):
            raise ConfigError("schedule.geometric: expected an object")
        for key in ("start", "ratio", "count"):
            if key not in geo:
                raise ConfigError(f"schedule.geometric.{key}: required")
        if not (_is_number(geo["start"]) and geo["start"] > 0):
            raise ConfigError("schedule.geometric.start: expected a positive number")
        if not (_is_number(geo["ratio"]) and 0 < geo["ratio"] < 1):
            raise ConfigError("schedule.geometric.ratio: expected a value in (0, 1)")
        if not (type(geo["count"]) is int and geo["count"] > 0):
            raise ConfigError("schedule.geometric.count: expected a positive integer")
        return [float(geo["start"]) * float(geo["ratio"]) ** k
                for k in range(geo["count"])]
    raise ConfigError("schedule: needs either 'lambdas' or 'geometric'")


def validate_args(args, dim):
    """Check the command-line values against the config (errors exit 2 as
    config errors do); --z and --source become coordinate lists."""
    lam = getattr(args, "lam", None)
    if lam is not None and not (math.isfinite(lam) and lam > 0):
        raise ConfigError(f"--lambda: expected a positive number, got {lam!r}")
    for name in ("z", "source"):
        text = getattr(args, name, None)
        if text is None:
            continue
        try:
            point = [float(v) for v in text.split(",")]
        except ValueError:
            point = []
        if len(point) != dim or not all(map(math.isfinite, point)):
            raise ConfigError(f"--{name}: expected {dim} comma-separated numbers, "
                              f"got {text!r}")
        setattr(args, name, point)


# ---------------------------------------------------------------------------
# context construction
# ---------------------------------------------------------------------------

def _load_sampled(cfg, grid):
    path = cfg["model"]["sampled_csv"]
    p_grid = np.asarray(cfg["model"]["p_grid"], dtype=float)
    values = np.full((grid.num_nodes, len(p_grid)), np.nan)
    with open(path, "r", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#") or row[0] == "node_index":
                continue
            i, j, v = int(row[0]), int(row[1]), float(row[2])
            values[i, j] = v
    if np.isnan(values).any():
        raise ConfigError("model.sampled_csv: table does not cover every "
                          "(node_index, p_index) pair")
    return SampledTable(x_coords=grid.coords[:, 0], p_grid=p_grid, values=values)


def _raw_model(cfg, grid):
    """The configured model before auto-normalization and superlinearization."""
    m = cfg["model"]
    shift = m["normalization_shift"]
    sampled = _load_sampled(cfg, grid) if FAMILIES[m["family"]].tabulated else None
    return make_model(m["family"], m.get("potential"), dimension=grid.dimension,
                      normalization_shift=0.0 if shift == "auto" else float(shift),
                      sampled=sampled)


def build_context(cfg):
    """Grid, velocity set, transition, and the prepared (normalized,
    superlinearized-as-needed) model."""
    warnings = [f"unknown setting {path} ignored" for path in unknown_settings(cfg)]
    grid = build_grid(cfg["grid"]["box"], cfg["grid"]["h"])
    vset = build_velocity_set(cfg["velocity"]["q_max"],
                              cfg["velocity"]["per_axis_count"],
                              dimension=grid.dimension)
    transition = build_transition(grid, vset)
    model = _raw_model(cfg, grid)
    if cfg["model"]["normalization_shift"] == "auto":
        raw = critical_value(model, grid, vset, tol=cfg["ergodic"]["bisection_tol"],
                             transition=transition)
        if abs(raw.c) > cfg["ergodic"]["bisection_tol"]:
            model = dataclasses.replace(model, normalization_shift=raw.c)
            warnings.append(f"normalization_shift auto-set to {raw.c:.6g}")
    want_super = cfg["model"]["superlinearize"]
    if want_super is None:
        want_super = model.ops.superlinearize_by_default
    if want_super:
        model = superlinearize(model, grid)
    half = grid.scaled_box(0.5)
    for p in cfg.get("probes", []):
        if np.any(np.asarray(p) < half[:, 0]) or np.any(np.asarray(p) > half[:, 1]):
            warnings.append(f"probe {p} lies outside the central half-box")
    return {"grid": grid, "velocity_set": vset, "transition": transition,
            "model": model, "warnings": warnings}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _claim(value, op, tol):
    return {"value": value, "op": op, "tolerance": tol}


def cmd_validate(cfg, ctx, out, args):
    report = validate_assumptions(_raw_model(cfg, ctx["grid"]), ctx["grid"])
    payload = {
        "a3_lhs": report.a3_lhs, "a3_rhs": report.a3_rhs,
        "epsilon_used": report.epsilon_used, "margin": report.margin,
        "coercivity_radius": report.coercivity_radius,
        "verdicts": {k: {"passed": v.passed, "detail": v.detail}
                     for k, v in report.verdicts.items()},
        "all_passed": report.all_passed,
    }
    arts = [io.write_json(out / "assumptions.json", payload)]
    return (0 if report.all_passed else 2), arts


def _critical(cfg, ctx):
    """`build_aubry_data` on the run's configuration (no command that calls
    this reads the distances from the Aubry set)."""
    return build_aubry_data(ctx["model"], ctx["grid"], ctx["velocity_set"],
                            tol=cfg["ergodic"]["bisection_tol"],
                            eps_aubry=cfg["ergodic"]["eps_aubry"],
                            transition=ctx["transition"])


def _node_columns(grid, *columns):
    return ["node", *[f"x{k}" for k in range(grid.dimension)], *columns]


def _write_aubry_csv(out, grid, data):
    """Per node: coordinates, cycle cost, whether it is exact, Aubry membership."""
    aubry = set(int(z) for z in data.aubry_nodes)
    rows = ([i, *grid.coords[i], data.cycle_cost[i], bool(data.cycle_exact[i]),
             i in aubry] for i in range(grid.num_nodes))
    return io.write_csv(out / "aubry.csv",
                        _node_columns(grid, "cycle_cost", "exact", "in_aubry"), rows)


def cmd_critical(cfg, ctx, out, args):
    data = _critical(cfg, ctx)
    arts = [
        io.write_json(out / "critical.json", {
            "c": _claim(data.c, "critical_value bisection midpoint",
                        cfg["ergodic"]["bisection_tol"]),
            "bracket": list(data.bracket),
            "level_used": data.level,
            "eps_aubry": data.eps_aubry,
            "aubry_count": int(len(data.aubry_nodes)),
        }),
        io.write_csv(out / "bisection.csv", ["level", "subcritical", "reason"],
                     [[a, sub, reason] for a, sub, reason in data.trace]),
        _write_aubry_csv(out, ctx["grid"], data),
    ]
    return 0, arts


def cmd_aubry(cfg, ctx, out, args):
    data = _critical(cfg, ctx)
    grid = ctx["grid"]
    arts = [
        _write_aubry_csv(out, grid, data),
        io.write_json(out / "aubry.json", {
            "eps_aubry": _claim(data.eps_aubry, "build_aubry_data cycle threshold",
                                data.eps_aubry),
            "nodes": [int(z) for z in data.aubry_nodes],
            "coordinates": grid.coords[data.aubry_nodes],
        }),
    ]
    return 0, arts


def cmd_distance(cfg, ctx, out, args):
    grid = ctx["grid"]
    # the distances are taken at the upper end of the bisection bracket
    data = critical_value(ctx["model"], grid, ctx["velocity_set"],
                          tol=cfg["ergodic"]["bisection_tol"],
                          transition=ctx["transition"])
    fld = intrinsic_distance(ctx["model"], grid, ctx["velocity_set"], data.level,
                             grid.node_near(args.source), transition=ctx["transition"],
                             direction=args.direction)
    arts = [io.write_csv(out / "distance.csv", _node_columns(grid, "value"),
                         io.field_rows(grid, fld))]
    return 0, arts


def cmd_solve(cfg, ctx, out, args):
    lam = args.lam if args.lam is not None else resolve_schedule(cfg)[0]
    sol = solve_discounted(ctx["model"], ctx["grid"], ctx["velocity_set"], lam,
                           tol=cfg["solver"]["tol"], max_iter=cfg["solver"]["max_iter"],
                           transition=ctx["transition"])
    grid = ctx["grid"]
    arts = [
        io.write_csv(out / "field.csv", _node_columns(grid, "value"),
                     io.field_rows(grid, sol.u)),
        io.write_csv(out / "trace.csv", ["iteration", "residual", "policy_changes"],
                     [[it, r, c] for (it, r), c in zip(sol.trace, sol.policy_changes)]),
        io.write_json(out / "solve.json", {
            "lambda": lam,
            "iterations": sol.iterations,
            "residual": _claim(sol.residual, "solve_discounted Bellman residual",
                               cfg["solver"]["tol"]),
        }),
    ]
    return 0, arts


def cmd_mather(cfg, ctx, out, args):
    model, grid, vset, tr = (ctx["model"], ctx["grid"], ctx["velocity_set"],
                             ctx["transition"])
    data = _critical(cfg, ctx)
    arts = []
    if args.lam is None:
        res = lp_solve(build_ergodic_lp(model, grid, vset, transition=tr))
        sup = support_check(res.measure, data, mass_tol=cfg["measures"]["mass_tol"])
        payload = {
            "kind": "ergodic",
            "objective": _claim(res.objective, "ergodic LP optimum", 1e-9),
            "critical_crosscheck": _claim(abs(data.c + res.objective),
                                          "|c_bisection + LP optimum|", 0.02),
            "closedness_residual": _claim(closedness_residual(res.measure, tr),
                                          "closedness recheck", 1e-8),
            "support_outside_mass": _claim(sup.outside_mass, "support_check",
                                           sup.mass_tol),
            "support_passed": sup.passed,
            "iterations": res.iterations,
        }
    else:
        zpt = args.z if args.z is not None else [0.0] * grid.dimension
        res = lp_solve(build_discounted_lp(model, grid, vset, args.lam, zpt,
                                           transition=tr))
        sol = solve_discounted(model, grid, vset, args.lam, tol=cfg["solver"]["tol"],
                               max_iter=cfg["solver"]["max_iter"], transition=tr)
        lam_u = args.lam * float(sol.u[grid.node_near(zpt)])
        payload = {
            "kind": "discounted",
            "lambda": args.lam, "z": zpt,
            "objective": _claim(res.objective, "discounted LP optimum", 1e-9),
            "lambda_u_z": _claim(lam_u, "solve_discounted at z", cfg["solver"]["tol"]),
            "duality_gap": _claim(abs(res.objective - lam_u),
                                  "|LP - lambda*u_lambda(z)|", 0.03),
            "holonomy_residual": _claim(
                holonomy_residual(res.measure, args.lam, grid.node_near(zpt), tr),
                "holonomy recheck", 1e-8),
            "iterations": res.iterations,
        }
    arts.append(io.write_csv(out / "measure.csv",
                             ["node_index", "velocity_index", "mass"],
                             io.measure_rows(res.measure)))
    # stationarity-row multipliers approximate a subsolution potential
    arts.append(io.write_csv(out / "duals.csv", ["row", "dual"],
                             [[i, d] for i, d in enumerate(res.duals)]))
    arts.append(io.write_json(out / "mather.json", payload))
    return 0, arts


def _study(cfg, ctx, schedule):
    return vanishing_discount_study(
        ctx["model"], ctx["grid"], ctx["velocity_set"], schedule,
        probes=cfg["probes"] or [(0.0,) * ctx["grid"].dimension],
        sub_box=cfg["study"]["sub_box"], solver_tol=cfg["solver"]["tol"],
        bisect_tol=cfg["ergodic"]["bisection_tol"],
        eps_aubry=cfg["ergodic"]["eps_aubry"], slack=cfg["measures"]["slack"],
        n_objectives=cfg["measures"]["n_objectives"], seed=cfg["seeds"]["master"],
        agreement_count=cfg["study"]["agreement_count"],
        transition=ctx["transition"], max_iter=cfg["solver"]["max_iter"])


def _write_w(out, grid, rep):
    return io.write_csv(out / "w.csv", _node_columns(grid, "value"),
                        io.field_rows(grid, rep.w))


def _agreement_claim(rep):
    return _claim(rep.estimator_agreement, "sup |barrier-form - trace-form|", 0.03)


def cmd_limit(cfg, ctx, out, args):
    """The study's limit w and its estimator agreement, with no discount schedule."""
    rep = _study(cfg, ctx, [])
    arts = [
        _write_w(out, ctx["grid"], rep),
        io.write_json(out / "limit.json", {
            "estimator_agreement": _agreement_claim(rep),
            "ergodic_objective": rep.ergodic_objective,
            "critical_crosscheck": rep.critical_crosscheck,
            "mather_nodes": [int(z) for z in rep.mather_nodes],
        }),
    ]
    return 0, arts


def cmd_study(cfg, ctx, out, args):
    rep = _study(cfg, ctx, resolve_schedule(cfg))
    grid = ctx["grid"]
    rows = []
    for r in rep.rows:
        rows.append([r.lam, r.sup_gap, r.iterations, r.residual,
                     "" if r.probe is None else ";".join(io.fmt(v) for v in r.probe),
                     "" if r.lp_objective is None else r.lp_objective,
                     "" if r.lambda_u_z is None else r.lambda_u_z,
                     "" if r.rep81_gap is None else r.rep81_gap,
                     "" if r.transport_to_ergodic is None else r.transport_to_ergodic])
    arts = [
        io.write_csv(out / "study.csv",
                     ["lambda", "sup_gap", "iterations", "residual", "probe",
                      "lp_objective", "lambda_u_z", "rep81_gap", "transport"],
                     rows),
        _write_w(out, grid, rep),
        io.write_json(out / "study.json", {
            "lambda_schedule": rep.lambda_schedule,
            # a discount/discretization gap: no claimed tolerance bounds it
            "sup_gaps": _claim(rep.sup_gaps, "sup |u_lambda - w| on sub-box", None),
            "estimator_agreement": _agreement_claim(rep),
            "critical_crosscheck": _claim(rep.critical_crosscheck,
                                          "|c_bisection + ergodic LP optimum|", 0.02),
            "mather_nodes": [int(z) for z in rep.mather_nodes],
            "failures": rep.failures,
        }),
    ]
    finite = [(l, gap) for l, gap in zip(rep.lambda_schedule, rep.sup_gaps)
              if np.isfinite(gap)]
    if finite:
        arts.append(io.write_line_svg(out / "gaps.svg",
                                      [l for l, _ in finite],
                                      [g for _, g in finite],
                                      title="discount study",
                                      xlabel="lambda", ylabel="sup gap"))
    code = 3 if rep.failures else 0
    return code, arts


HANDLERS = {
    "validate": cmd_validate,
    "critical": cmd_critical,
    "distance": cmd_distance,
    "aubry": cmd_aubry,
    "solve": cmd_solve,
    "mather": cmd_mather,
    "limit": cmd_limit,
    "study": cmd_study,
}

_NEEDS_SCHEDULE = {"study", "solve"}


def make_parser():
    parser = argparse.ArgumentParser(prog="weakkam",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--set", dest="overrides", action="append", default=[])
        p.add_argument("--seed", type=int, default=None)
        if name == "distance":
            p.add_argument("--source", required=True)
            p.add_argument("--direction", choices=("from", "to"), default="from")
        if name == "solve":
            p.add_argument("--lambda", dest="lam", type=float, default=None)
        if name == "mather":
            p.add_argument("--lambda", dest="lam", type=float, default=None)
            p.add_argument("--z", default=None)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        apply_overrides(cfg, args.overrides)
        if args.seed is not None:
            cfg.setdefault("seeds", {})["master"] = args.seed
        if args.out is not None:
            cfg.setdefault("outputs", {})["directory"] = args.out
        validate_config(cfg, need_schedule=args.command in _NEEDS_SCHEDULE)
        validate_args(args, cfg["model"]["dimension"])
        out = Path(cfg["outputs"]["directory"])
        out.mkdir(parents=True, exist_ok=True)
        ctx = build_context(cfg)
        code, artifacts = HANDLERS[args.command](cfg, ctx, out, args)
        io.write_manifest(out, cfg, cfg["seeds"]["master"], artifacts,
                          warnings=ctx["warnings"],
                          extra={"command": args.command})
        for w in ctx["warnings"]:
            print(f"warning: {w}", file=sys.stderr)
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (A3Violated, DegenerateBox, NotNormalized) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except WeakKAMError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
