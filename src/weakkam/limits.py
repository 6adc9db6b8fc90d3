"""Vanishing-discount study: the selected limit and its two estimators.

The distinguished limit of the discounted solutions is computed two ways
that share no code path with the PDE solver:

  * barrier form: w(x) = min over measures mu in the Mather polytope of
    <mu, P(., x)> with P the Peierls barrier, one small LP per query point;

  * maximal-trace form: the largest Aubry trace t with t(y) - t(y') bounded
    by the intrinsic distances and <mu_1, t> <= 0 for every supplied Mather
    measure (coordinate ascent over t, dimension = number of Aubry nodes),
    extended by the weak KAM min-formula.

The study drives a decreasing discount schedule, records the sup-norm gap
between each discounted solution and the limit on a reporting sub-box (the
central half by default: the truncation pollutes the outer shell), checks
the duality identity <mu, L> = lambda u_lambda(z) per probe, and tracks the
transport distance from the discounted occupation measures to the ergodic
minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .critical import build_critical_data, peierls_field_to, weak_kam_solution
from .discounted import solve_discounted
from .errors import NoMeasures, WeakKAMError
from .grids import ValueField, build_transition
from .measures import (
    build_discounted_lp,
    build_ergodic_lp,
    build_mather_polytope,
    lp_solve,
    transport_distance,
)

_STATUS_PASS = "PASS"
_STATUS_FAIL = "FAIL"
_STATUS_NA = "NotApplicable"


# ---------------------------------------------------------------------------
# estimator 1: barrier form, one LP per query
# ---------------------------------------------------------------------------

def selected_solution_enric1(critical, polytope, x):
    """min over the Mather polytope of <mu, P(., x)>; x is a node index."""
    grid = critical.grid
    if not np.isscalar(x):
        x = grid.node_near(x)
    pfield = peierls_field_to(critical, int(x))
    objective = np.array([pfield[i] for (i, _m) in polytope.var_pairs])
    return lp_solve(polytope, objective).objective


def enric1_values(critical, polytope, query_nodes):
    """Barrier-form values at several nodes, one LP each, started from the
    polytope's crash basis (the ergodic optimum plus the budget slack)."""
    return np.array([selected_solution_enric1(critical, polytope, int(x))
                     for x in query_nodes], dtype=float)


# ---------------------------------------------------------------------------
# estimator 2: maximal admissible Aubry trace
# ---------------------------------------------------------------------------

def maximal_trace(critical, measures, sweeps=200, tol=1e-12):
    """Coordinate ascent for the largest trace t on the Aubry nodes with
    t(y) - t(y') <= S(y', y) and <mu, v_t> <= 0 per measure, where v_t is
    the min-formula field of t.

    Starts from t = 0 (feasible: constant traces are compatible and the
    measure rows vanish) and raises each coordinate in a fixed order to its
    ceiling.  Measure mass sitting off the trace nodes is priced at the
    current field value; a final downward shift restores feasibility
    exactly when that lagged pricing overshoots.
    """
    if not measures:
        raise NoMeasures("maximal_trace needs at least one Mather measure")
    nodes = [int(z) for z in critical.aubry_nodes]
    S = dict(zip(nodes, critical.S_from))
    marginals = []
    for mu in measures:
        m = {}
        for (i, _q), mass in mu.entries.items():
            m[int(i)] = m.get(int(i), 0.0) + mass
        marginals.append(m)
    t = {z: 0.0 for z in nodes}

    def field_at(i):
        return min(t[z] + float(S[z][i]) for z in nodes)

    scale = 1.0 + max(float(np.max(np.abs(S[z][np.isfinite(S[z])]))) for z in nodes)
    for _ in range(sweeps):
        change = 0.0
        for y in nodes:
            ceil = min((t[z] + float(S[z][y]) for z in nodes if z != y),
                       default=np.inf)
            for m in marginals:
                my = m.get(y, 0.0)
                if my > 1e-12:
                    rest = sum(mass * (t[i] if i in t else field_at(i))
                               for i, mass in m.items() if i != y)
                    ceil = min(ceil, -rest / my)
            if np.isfinite(ceil) and ceil > t[y]:
                change = max(change, ceil - t[y])
                t[y] = ceil
        if change <= tol * scale:
            break
    # lagged off-trace pricing can overshoot; shift down to restore <mu, v_t> <= 0
    worst = 0.0
    for m in marginals:
        worst = max(worst, sum(mass * (t[i] if i in t else field_at(i))
                               for i, mass in m.items()))
    if worst > 0.0:
        for z in nodes:
            t[z] -= worst
    return t


def selected_solution_deflim(critical, measures):
    """Limit candidate as the weak KAM field of the maximal admissible trace."""
    t = maximal_trace(critical, measures)
    return weak_kam_solution(critical, t)


# ---------------------------------------------------------------------------
# Mather set by vertex sampling
# ---------------------------------------------------------------------------

def sample_vertex_measures(polytope, n_objectives, seed):
    """Polytope vertices under seeded random objectives."""
    rng = np.random.default_rng(seed)
    nvar = len(polytope.var_pairs)
    return [lp_solve(polytope, rng.uniform(0.0, 1.0, size=nvar)).measure
            for _ in range(int(n_objectives))]


def mather_set(polytope, n_objectives, seed, grid, base_measure=None,
               support_tol=1e-4, measures=None):
    """Union of x-projections of polytope vertices under random objectives,
    dilated by one grid cell.

    The budget slack lets vertices park wisps of mass (at most slack over
    the local Lagrangian) away from the minimizing set, so only nodes
    carrying more than support_tol count as support.  Pass `measures` to
    reuse previously sampled vertices.
    """
    if measures is None:
        measures = sample_vertex_measures(polytope, n_objectives, seed)
    support = set()
    if base_measure is not None:
        support.update(i for (i, _m), mass in base_measure.entries.items()
                       if mass > support_tol)
    for measure in measures:
        support.update(i for (i, _m), mass in measure.entries.items()
                       if mass > support_tol)
    if not support:
        return np.array([], dtype=int)
    nodes = np.array(sorted(support), dtype=int)
    pts = grid.coords
    dil = grid.h * (1.0 + 1e-9)
    near = np.zeros(grid.num_nodes, dtype=bool)
    for i in nodes:
        near |= np.max(np.abs(pts - pts[i]), axis=1) <= dil
    return np.nonzero(near)[0]


# ---------------------------------------------------------------------------
# uniqueness-set test
# ---------------------------------------------------------------------------

@dataclass
class UniquenessVerdict:
    status: str
    worst_gap: float            # max of v - w over the reporting region
    witness: Optional[int]
    hypothesis_gap: float       # max of v - w over the Mather nodes
    recon_err_v: float
    recon_err_w: float


def uniqueness_test(critical, mather_nodes, v, w, tol=1e-6, factor=3.0,
                    region_mask=None, recon_tol=None):
    """If v <= w + tol on the Mather nodes then v <= w + factor*tol on the
    reporting region; vacuous hypotheses report NotApplicable.

    Both fields must reproduce themselves through the weak KAM min-formula
    from their own Aubry traces (checked within recon_tol).
    """
    grid = critical.grid
    vv = v.values if isinstance(v, ValueField) else np.asarray(v, dtype=float)
    ww = w.values if isinstance(w, ValueField) else np.asarray(w, dtype=float)
    if region_mask is None:
        region_mask = grid.box_mask(grid.scaled_box(0.5))
    if recon_tol is None:
        recon_tol = 1e-9 + 8.0 * grid.h * (1.0 + float(np.max(np.abs(vv - ww))))
    errs = []
    for fld in (vv, ww):
        trace = {int(z): float(fld[int(z)]) for z in critical.aubry_nodes}
        try:
            rec = weak_kam_solution(critical, trace)
        except WeakKAMError as exc:
            raise ValueError(f"field is not weak-KAM reconstructible: {exc}") from exc
        errs.append(float(np.max(np.abs(rec.values - fld)[region_mask])))
    if max(errs) > recon_tol:
        raise ValueError(f"field is not weak-KAM reconstructible "
                         f"(errors {errs[0]:.3g}, {errs[1]:.3g} > {recon_tol:.3g})")
    mather_nodes = np.asarray(mather_nodes, dtype=int)
    hyp = float(np.max(vv[mather_nodes] - ww[mather_nodes]))
    if hyp > tol:
        return UniquenessVerdict(status=_STATUS_NA, worst_gap=np.nan, witness=None,
                                 hypothesis_gap=hyp, recon_err_v=errs[0],
                                 recon_err_w=errs[1])
    gaps = vv - ww
    gaps[~region_mask] = -np.inf
    witness = int(np.argmax(gaps))
    worst = float(gaps[witness])
    status = _STATUS_PASS if worst <= factor * tol else _STATUS_FAIL
    return UniquenessVerdict(status=status, worst_gap=worst, witness=witness,
                             hypothesis_gap=hyp, recon_err_v=errs[0],
                             recon_err_w=errs[1])


# ---------------------------------------------------------------------------
# the study driver
# ---------------------------------------------------------------------------

@dataclass
class StudyRow:
    lam: float
    sup_gap: float
    iterations: int
    residual: float
    probe: Optional[tuple] = None
    lp_objective: Optional[float] = None
    lambda_u_z: Optional[float] = None
    rep81_gap: Optional[float] = None
    transport_to_ergodic: Optional[float] = None


@dataclass
class StudyReport:
    lambda_schedule: list
    sup_gaps: list
    w_field: ValueField
    mather_nodes: np.ndarray
    estimator_agreement: float
    agreement_nodes: list
    enric1_at_nodes: np.ndarray
    deflim_at_nodes: np.ndarray
    rows: list
    failures: list
    critical: object
    ergodic_objective: float
    critical_crosscheck: float        # |c_bisection + ergodic LP optimum|
    sub_box: np.ndarray
    mather_measures: list = field(default_factory=list)


def _agreement_nodes(grid, sub_box, count, probes):
    nodes = []
    center = 0.5 * (sub_box[:, 0] + sub_box[:, 1])
    for x in np.linspace(sub_box[0, 0], sub_box[0, 1], count):
        p = center.copy()
        p[0] = x
        nodes.append(grid.node_near(p))
    for p in probes:
        nodes.append(grid.node_near(p))
    seen, out = set(), []
    for n in nodes:
        if n not in seen:
            seen.add(n)
            out.append(int(n))
    return out


def vanishing_discount_study(model, grid, velocity_set, schedule,
                             probes=((0.0,),), sub_box=None, solver_tol=1e-6,
                             bisect_tol=1e-3, eps_aubry=None, slack=None,
                             n_objectives=4, seed=0, agreement_count=9,
                             transition=None, max_iter=None):
    """Decreasing-discount convergence study against the selected limit.

    Per-lambda solves and discounted LPs that fail with a WeakKAMError are
    recorded in `failures` and the study continues with the remaining
    schedule; any other exception propagates.
    """
    schedule = [float(l) for l in schedule]
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly decreasing")
    if transition is None:
        transition = build_transition(grid, velocity_set)
    if sub_box is None:
        sub_box = grid.scaled_box(0.5)
    sub_box = np.asarray(sub_box, dtype=float).reshape(grid.dimension, 2)
    probes = [tuple(float(v) for v in np.atleast_1d(p)) for p in probes]

    critical = build_critical_data(model, grid, velocity_set, tol=bisect_tol,
                                   eps_aubry=eps_aubry, transition=transition)
    problem = build_ergodic_lp(model, grid, velocity_set, transition=transition)
    ergodic = lp_solve(problem)
    polytope = build_mather_polytope(problem, ergodic, slack=slack)
    del problem                  # the polytope holds its own copy of the columns
    vertices = sample_vertex_measures(polytope, n_objectives, seed)
    mnodes = mather_set(polytope, n_objectives, seed, grid,
                        base_measure=ergodic.measure, measures=vertices)
    # the trace estimator is constrained by the sampled vertex set, the
    # finite stand-in for the quantifier over all minimizing measures
    measures = [ergodic.measure] + vertices

    w_field = selected_solution_deflim(critical, measures)
    agree_nodes = _agreement_nodes(grid, sub_box, agreement_count, probes)
    e1 = enric1_values(critical, polytope, agree_nodes)
    d1 = w_field.values[agree_nodes]
    agreement = float(np.max(np.abs(e1 - d1)))

    mask = grid.box_mask(sub_box)
    rows, failures, sup_gaps = [], [], []
    for lam in schedule:
        try:
            sol = solve_discounted(model, grid, velocity_set, lam, tol=solver_tol,
                                   transition=transition, max_iter=max_iter)
        except WeakKAMError as exc:
            failures.append({"lambda": lam, "stage": "solve", "error": repr(exc)})
            sup_gaps.append(float("nan"))
            continue
        gap = float(np.max(np.abs(sol.field.values - w_field.values)[mask]))
        sup_gaps.append(gap)
        rows.append(StudyRow(lam=lam, sup_gap=gap, iterations=sol.iterations,
                             residual=sol.residual))
        for p in probes:
            z = grid.node_near(p)
            try:
                lp = lp_solve(build_discounted_lp(model, grid, velocity_set, lam, z,
                                                  transition=transition))
            except WeakKAMError as exc:
                failures.append({"lambda": lam, "stage": f"lp@{p}", "error": repr(exc)})
                continue
            lam_u = lam * float(sol.field.values[z])
            rows.append(StudyRow(
                lam=lam, sup_gap=gap, iterations=sol.iterations,
                residual=sol.residual, probe=p, lp_objective=lp.objective,
                lambda_u_z=lam_u, rep81_gap=abs(lp.objective - lam_u),
                transport_to_ergodic=transport_distance(
                    lp.measure, ergodic.measure, grid, velocity_set)))
    return StudyReport(lambda_schedule=schedule, sup_gaps=sup_gaps, w_field=w_field,
                       mather_nodes=mnodes, estimator_agreement=agreement,
                       agreement_nodes=agree_nodes, enric1_at_nodes=e1,
                       deflim_at_nodes=d1, rows=rows, failures=failures,
                       critical=critical, ergodic_objective=ergodic.objective,
                       critical_crosscheck=abs(critical.c + ergodic.objective),
                       sub_box=sub_box, mather_measures=measures)
