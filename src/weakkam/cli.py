"""Batch front end: declarative run configs, pipelines, and artifacts.

Subcommands (all take --config): validate, critical, distance, aubry,
solve, mather, limit, study.  Each writes CSV/JSON/SVG artifacts plus a
manifest (inputs, versions, checksums) under the configured output
directory; the manifest is written last.  Exit codes: 0 success, 2 config
or assumption validation failure, 3 solver failure or a breached claim
(`limit` and `study` whose estimators disagree beyond the tolerance they
report).

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
    BISECTION_TOL,
    build_aubry_data,
    critical_value,
    intrinsic_distance,
)
from .discounted import RESIDUAL_TOL, solve_discounted
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
    aubry_tree,
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

def _read_input(path, key):
    """The text of an input file; one that cannot be read as UTF-8 text is
    a config error naming `key`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ConfigError(f"{key}: file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{key}: cannot read {path} ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{key}: {path} is not UTF-8 text "
                          f"({exc.reason} at byte {exc.start})") from None


def load_config(path):
    try:
        cfg = json.loads(_read_input(path, "config"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: not valid JSON ({exc})")
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be an object")
    return cfg


def _assign(cfg, key, value, flag):
    """cfg[key.path] = value; flag names the option when a section is not an object."""
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{flag}: {part} is not an object")
    node[parts[-1]] = value


def apply_overrides(cfg, assignments):
    for item in assignments or ():
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key.path=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _assign(cfg, key, value, f"--set {key}")
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

# every defaulted setting: its default, then the values it accepts besides a
# None default and their description
SETTINGS = {
    "model.normalization_shift": (0.0, lambda v: v == "auto" or _is_number(v),
                                  'a number or "auto"'),
    "ergodic.eps_aubry": (None, *_POSITIVE),
    "outputs.directory": ("out", lambda v: isinstance(v, str), "a path"),
}


# the settings without a default; a key outside these and SETTINGS is ignored
OTHER_KEYS = {"model.family", "model.potential", "model.sampled_csv", "model.p_grid",
              "grid.box", "grid.h", "velocity.q_max", "velocity.per_axis_count",
              "schedule.lambdas", "probes"}


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
        _require(cfg, "model.p_grid", list,
                 lambda v: (len(v) >= 3 and all(map(_is_number, v))
                            and all(a < b for a, b in zip(v, v[1:]))),
                 "(strictly increasing list of at least 3 momenta)")
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
        build_grid(box, h)
    except ValueError as exc:
        raise ConfigError(f"grid.h: {exc}") from None
    _require(cfg, "velocity.q_max", None, _POSITIVE[0], "(positive number)")
    _require(cfg, "velocity.per_axis_count", int,
             lambda v: v >= 3 and v % 2 == 1, "(odd integer >= 3)")
    dim = len(box)
    if FAMILIES[family].tabulated and dim != 1:
        raise ConfigError(f"model.family: {family} is implemented for dimension 1 "
                          f"only, grid.box has {dim} axes")
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
        if not ((value is None and default is None) or accepts(value)):
            raise ConfigError(f"{path}: expected {what}, got {value!r}")
    return cfg


def resolve_schedule(cfg):
    lam = _require(cfg, "schedule.lambdas", None)
    if not (isinstance(lam, list) and len(lam) >= 1
            and all(_is_number(v) and v > 0 for v in lam)
            and all(a > b for a, b in zip(lam, lam[1:]))):
        raise ConfigError("schedule.lambdas: expected a strictly decreasing "
                          "list of positive numbers")
    return [float(v) for v in lam]


def validate_args(args, dim):
    """Check the command-line values against the config (errors exit 2 as
    config errors do); --z and --source become coordinate lists."""
    lam = getattr(args, "lam", None)
    if lam is not None and not (math.isfinite(lam) and lam > 0):
        raise ConfigError(f"--lambda: expected a positive number, got {lam!r}")
    if getattr(args, "z", None) is not None and lam is None:
        raise ConfigError("--z: the anchor of the discounted program, "
                          "read only with --lambda")
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
    """The table of `model.sampled_csv`: rows node_index,p_index,value, each
    index in range and each value a finite number."""
    path = cfg["model"]["sampled_csv"]
    p_grid = np.asarray(cfg["model"]["p_grid"], dtype=float)
    values = np.full((grid.num_nodes, len(p_grid)), np.nan)
    rows = csv.reader(_read_input(path, "model.sampled_csv").splitlines())
    for row in rows:
        if not row or row[0].startswith("#") or row[0] == "node_index":
            continue
        where = f"model.sampled_csv: line {rows.line_num}"
        try:
            i, j, v = int(row[0]), int(row[1]), float(row[2])
        except (ValueError, IndexError):
            raise ConfigError(f"{where}: expected node_index,p_index,value, "
                              f"got {row!r}") from None
        if not (0 <= i < values.shape[0] and 0 <= j < values.shape[1]):
            raise ConfigError(f"{where}: ({i}, {j}) outside the {values.shape[0]} "
                              f"nodes x {values.shape[1]} momenta table")
        if not math.isfinite(v):
            raise ConfigError(f"{where}: value {v} is not finite")
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


def _grid_context(cfg):
    """The grid and the config's warnings: all that `validate` reads."""
    warnings = [f"unknown setting {path} ignored" for path in unknown_settings(cfg)]
    grid = build_grid(cfg["grid"]["box"], cfg["grid"]["h"])
    half = grid.central_half()
    for p in cfg.get("probes", []):
        if np.any(np.asarray(p) < half[:, 0]) or np.any(np.asarray(p) > half[:, 1]):
            warnings.append(f"probe {p} lies outside the central half-box")
    return {"grid": grid, "warnings": warnings}


def build_context(cfg):
    """`_grid_context` plus the velocity set, the transition, and the model,
    normalized and superlinearized if its family is not superlinear."""
    ctx = _grid_context(cfg)
    grid = ctx["grid"]
    vset = build_velocity_set(cfg["velocity"]["q_max"],
                              cfg["velocity"]["per_axis_count"],
                              dimension=grid.dimension)
    transition = build_transition(grid, vset)
    model = _raw_model(cfg, grid)
    if cfg["model"]["normalization_shift"] == "auto":
        raw = critical_value(model, grid, vset, transition=transition)
        if abs(raw.c) > BISECTION_TOL:
            model = dataclasses.replace(model, normalization_shift=raw.c)
            ctx["warnings"].append(f"normalization_shift auto-set to {raw.c:.6g}")
    if model.ops.superlinearize_by_default:
        model = superlinearize(model, grid)
    return {**ctx, "velocity_set": vset, "transition": transition, "model": model}


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
    failed = [f"{k} failed ({v.detail})" for k, v in report.verdicts.items()
              if not v.passed]
    if failed:
        print(f"error: validate: {'; '.join(failed)}", file=sys.stderr)
        return 2, arts
    return 0, arts


def _critical(cfg, ctx):
    """`build_aubry_data` on the run's configuration (no command that calls
    this reads the distances from the Aubry set)."""
    return build_aubry_data(ctx["model"], ctx["grid"], ctx["velocity_set"],
                            eps_aubry=cfg["ergodic"]["eps_aubry"],
                            transition=ctx["transition"])


def _node_columns(grid, *columns):
    return ["node", *[f"x{k}" for k in range(grid.dimension)], *columns]


def _write_aubry_csv(out, grid, data):
    """Per node: coordinates, cycle cost, whether it is exact, Aubry membership."""
    in_aubry = np.zeros(grid.num_nodes, dtype=bool)
    in_aubry[data.aubry_nodes] = True
    return io.write_csv(out / "aubry.csv",
                        _node_columns(grid, "cycle_cost", "exact", "in_aubry"),
                        columns=io.field_columns(grid, data.cycle_cost,
                                                 data.cycle_exact, in_aubry))


def cmd_critical(cfg, ctx, out, args):
    data = _critical(cfg, ctx)
    arts = [
        io.write_json(out / "critical.json", {
            "c": _claim(data.c, "critical_value bisection midpoint", BISECTION_TOL),
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
                          transition=ctx["transition"])
    fld = intrinsic_distance(ctx["model"], grid, ctx["velocity_set"], data.level,
                             grid.node_near(args.source), transition=ctx["transition"],
                             direction=args.direction)
    arts = [io.write_csv(out / "distance.csv", _node_columns(grid, "value"),
                         columns=io.field_columns(grid, fld))]
    return 0, arts


def cmd_solve(cfg, ctx, out, args):
    lam = args.lam if args.lam is not None else resolve_schedule(cfg)[0]
    sol = solve_discounted(ctx["model"], ctx["grid"], ctx["velocity_set"], lam,
                           transition=ctx["transition"])
    grid = ctx["grid"]
    arts = [
        io.write_csv(out / "field.csv", _node_columns(grid, "value"),
                     columns=io.field_columns(grid, sol.u)),
        io.write_csv(out / "trace.csv", ["iteration", "sup_update", "policy_changes"],
                     [[it, r, c] for (it, r), c in zip(sol.trace, sol.policy_changes)]),
        io.write_json(out / "solve.json", {
            "lambda": lam,
            "iterations": sol.iterations,
            "residual": _claim(sol.residual, "solve_discounted Bellman residual",
                               RESIDUAL_TOL),
        }),
    ]
    return 0, arts


def cmd_mather(cfg, ctx, out, args):
    model, grid, vset, tr = (ctx["model"], ctx["grid"], ctx["velocity_set"],
                             ctx["transition"])
    arts = []
    if args.lam is None:
        data = _critical(cfg, ctx)
        # the LP starts from the Aubry tree, as in the study
        res = lp_solve(build_ergodic_lp(model, grid, vset, transition=tr,
                                        policy=aubry_tree(model, grid, vset, tr, data)))
        sup = support_check(res.measure, data)
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
        sol = solve_discounted(model, grid, vset, args.lam, transition=tr)
        # the LP starts from Howard's policy, as in the study
        res = lp_solve(build_discounted_lp(model, grid, vset, args.lam, zpt,
                                           transition=tr, policy=sol.policy))
        lam_u = args.lam * float(sol.u[grid.node_near(zpt)])
        payload = {
            "kind": "discounted",
            "lambda": args.lam, "z": zpt,
            "objective": _claim(res.objective, "discounted LP optimum", 1e-9),
            "lambda_u_z": _claim(lam_u, "solve_discounted at z", RESIDUAL_TOL),
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
        eps_aubry=cfg["ergodic"]["eps_aubry"], transition=ctx["transition"])


def _write_w(out, grid, rep):
    return io.write_csv(out / "w.csv", _node_columns(grid, "value"),
                        columns=io.field_columns(grid, rep.w))


def _agreement_claim(rep):
    return _claim(rep.estimator_agreement, "sup |barrier-form - trace-form|", 0.03)


def _agreement_code(claim, failed=""):
    """0 when the estimators agree within the claimed tolerance and nothing
    `failed`; otherwise print one error line naming the breached claim and
    the failures, and return 3."""
    errors = [failed] if failed else []
    if claim["value"] > claim["tolerance"]:
        errors.insert(0, f"estimator_agreement: {claim['op']} = {claim['value']:.6g} "
                         f"exceeds its tolerance {claim['tolerance']:g}")
    if not errors:
        return 0
    print(f"error: {'; '.join(errors)}", file=sys.stderr)
    return 3


def cmd_limit(cfg, ctx, out, args):
    """The study's limit w and its estimator agreement, with no discount schedule."""
    rep = _study(cfg, ctx, [])
    agreement = _agreement_claim(rep)
    arts = [
        _write_w(out, ctx["grid"], rep),
        io.write_json(out / "limit.json", {
            "estimator_agreement": agreement,
            "ergodic_objective": rep.ergodic_objective,
            "critical_crosscheck": rep.critical_crosscheck,
            "mather_nodes": [int(z) for z in rep.mather_nodes],
        }),
    ]
    return _agreement_code(agreement), arts


def cmd_study(cfg, ctx, out, args):
    rep = _study(cfg, ctx, resolve_schedule(cfg))
    agreement = _agreement_claim(rep)
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
            "sup_gaps": _claim(rep.sup_gaps, "sup |u_lambda - w| on the central half-box", None),
            "estimator_agreement": agreement,
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
    failed = "; ".join(f"{f['stage']} at lambda {f['lambda']:g}: {f['error']}"
                       for f in rep.failures)
    return _agreement_code(agreement, failed and f"study: {failed}"), arts


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
        # retired (nothing is drawn at random): parsed so old command lines run
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


def _join_coordinates(argv):
    """argv with a value after `--source` or `--z` that starts with '-' joined
    to its flag: argparse reads `-0.5,0.25` as an option."""
    out = []
    for token in argv:
        if out and out[-1] in ("--source", "--z") and token[:1] == "-" and token[:2] != "--":
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    args = make_parser().parse_args(_join_coordinates(sys.argv[1:] if argv is None else argv))
    try:
        cfg = load_config(args.config)
        apply_overrides(cfg, args.overrides)
        if args.out is not None:
            _assign(cfg, "outputs.directory", args.out, "--out")
        validate_config(cfg, need_schedule=args.command in _NEEDS_SCHEDULE)
        validate_args(args, len(cfg["grid"]["box"]))
        out = Path(cfg["outputs"]["directory"])
        out.mkdir(parents=True, exist_ok=True)
        # validate reports on the raw model, even one that superlinearize refuses
        ctx = (_grid_context if args.command == "validate" else build_context)(cfg)
        if args.seed is not None:
            ctx["warnings"].append("retired option --seed ignored")
        code, artifacts = HANDLERS[args.command](cfg, ctx, out, args)
        io.write_manifest(out, cfg, artifacts,
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
