"""Vanishing-discount study: the selected limit and its two estimators.

The distinguished limit of the discounted solutions is computed two ways
that share no code path with the PDE solver:

  * barrier form: w(x) = min over measures mu in the Mather polytope of
    <mu, P(., x)> with P the Peierls barrier, one small LP per query point;

  * maximal-trace form: the largest Aubry trace t with t(y) - t(y') bounded
    by the intrinsic distances and <mu, v_t> <= 0 for every supplied Mather
    measure mu, v_t being the weak KAM min-formula field of t (coordinate
    ascent over t), extended by that same min-formula.

A trace is an array aligned with `critical.aubry_nodes`, and a measure an
(n, M) node-by-velocity mass array (`measures.DiscreteMeasure`), so the
pairings are array expressions over the (k, n) distance array S_from.

The study drives a decreasing discount schedule, records the sup-norm gap
between each discounted solution and the limit on a reporting sub-box (the
central half by default: the truncation pollutes the outer shell), checks
the duality identity <mu, L> = lambda u_lambda(z) per probe, and tracks the
transport distance from the discounted occupation measures to the ergodic
minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .critical import build_critical_data, peierls_field_to, weak_kam_solution
from .discounted import solve_discounted
from .errors import NoMeasures, WeakKAMError
from .grids import build_transition
from .measures import (
    build_discounted_lp,
    build_ergodic_lp,
    build_mather_polytope,
    lp_solve,
    sequential_sum,
    transport_distance,
)

_STATUS_PASS = "PASS"
_STATUS_FAIL = "FAIL"
_STATUS_NA = "NotApplicable"


# ---------------------------------------------------------------------------
# estimator 1: barrier form, one LP per query
# ---------------------------------------------------------------------------

def enric1_values(critical, polytope, query_nodes):
    """min over the Mather polytope of <mu, P(., x)> at each node index x of
    query_nodes, one LP each, started from the polytope's crash basis (the
    ergodic optimum plus the budget slack)."""
    node_of_column = polytope.active // polytope.meta["velocity_set"].size
    return np.array([lp_solve(polytope, peierls_field_to(critical, int(x))[node_of_column])
                     .objective for x in query_nodes], dtype=float)


# ---------------------------------------------------------------------------
# estimator 2: maximal admissible Aubry trace
# ---------------------------------------------------------------------------

TRACE_SWEEPS = 200     # coordinate-ascent sweeps at most
TRACE_TOL = 1e-12      # a sweep raising no coordinate by more (relative) ends it


def maximal_trace(critical, measures):
    """Coordinate ascent for the largest trace t on the Aubry nodes with
    t(y) - t(y') <= S(y', y) and <mu, v_t> <= 0 per measure, where v_t is
    the min-formula field of t.  Returns t as an array aligned with
    critical.aubry_nodes.

    Starts from t = 0 (feasible: constant traces are compatible and the
    measure rows vanish) and raises each coordinate in a fixed order to its
    ceiling.  Measure mass sitting off the trace nodes is priced at the
    current field value; a final downward shift restores feasibility
    exactly when that lagged pricing overshoots.  The pairings <mu, v_t>
    add the nodes in index order, left to right.
    """
    if not measures:
        raise NoMeasures("maximal_trace needs at least one Mather measure")
    nodes = critical.aubry_nodes
    S = critical.S_from
    k = len(nodes)
    # x-marginals, (measures, n), each node's velocities added in order
    marg = np.array([sequential_sum(mu.mass, axis=1) for mu in measures])
    support = np.flatnonzero(marg.any(axis=0))
    P = marg[:, support]
    S_sup = S[:, support]
    row = np.full(S.shape[1], -1)
    row[nodes] = np.arange(k)
    # support nodes on the trace are priced at t, the others at the field
    on_trace = row[support] >= 0
    trace_rows = row[support][on_trace]
    # S between trace nodes; the diagonal is left out of each ceiling
    S_nodes = S[:, nodes]
    np.fill_diagonal(S_nodes, np.inf)
    t = np.zeros(k)

    def support_values():
        vals = np.min(t[:, None] + S_sup, axis=0)
        vals[on_trace] = t[trace_rows]
        return vals

    scale = 1.0 + float(np.max(np.abs(S[np.isfinite(S)])))
    for _ in range(TRACE_SWEEPS):
        change = 0.0
        for r in range(k):
            ceil = np.min(t + S_nodes[:, r])
            my = marg[:, nodes[r]]
            priced = my > 1e-12
            if priced.any():
                terms = P[priced] * support_values()
                terms[:, np.searchsorted(support, nodes[r])] = 0.0
                ceil = min(ceil, np.min(-sequential_sum(terms, axis=1) / my[priced]))
            if np.isfinite(ceil) and ceil > t[r]:
                change = max(change, ceil - t[r])
                t[r] = ceil
        if change <= TRACE_TOL * scale:
            break
    # lagged off-trace pricing can overshoot; shift down to restore <mu, v_t> <= 0
    worst = max(0.0, float(np.max(sequential_sum(P * support_values(), axis=1))))
    return t - worst


def selected_solution_deflim(critical, measures):
    """Limit candidate as the weak KAM field of the maximal admissible trace,
    an (n,) array."""
    t = maximal_trace(critical, measures)
    return weak_kam_solution(critical, t)


# ---------------------------------------------------------------------------
# Mather set by vertex sampling
# ---------------------------------------------------------------------------

MATHER_SUPPORT_TOL = 1e-4


def sample_vertex_measures(polytope, n_objectives, seed):
    """Polytope vertices under seeded random objectives."""
    rng = np.random.default_rng(seed)
    return [lp_solve(polytope, rng.uniform(0.0, 1.0, len(polytope.active))).measure
            for _ in range(int(n_objectives))]


def mather_set(measures, grid):
    """Union of the x-projections of the measures' supports, dilated by one
    grid cell in the max norm.

    The budget slack lets polytope vertices park wisps of mass (at most
    slack over the local Lagrangian) away from the minimizing set, so only
    (node, velocity) masses above MATHER_SUPPORT_TOL count as support.
    """
    heavy = np.zeros(grid.num_nodes, dtype=bool)
    for mu in measures:
        heavy |= (mu.mass > MATHER_SUPPORT_TOL).any(axis=1)
    pts = grid.coords
    gap = np.max(np.abs(pts[:, None, :] - pts[None, heavy, :]), axis=2)
    return np.flatnonzero(np.any(gap <= grid.h * (1.0 + 1e-9), axis=1))


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


UNIQUENESS_TOL = 1e-6     # the hypothesis v <= w + UNIQUENESS_TOL on the Mather nodes
UNIQUENESS_FACTOR = 3.0   # the conclusion v <= w + UNIQUENESS_FACTOR * UNIQUENESS_TOL


def uniqueness_test(critical, mather_nodes, v, w):
    """If v <= w + UNIQUENESS_TOL on the Mather nodes then
    v <= w + UNIQUENESS_FACTOR * UNIQUENESS_TOL on the reporting region (the
    central half of the box); vacuous hypotheses report NotApplicable.  v
    and w are (n,) arrays.

    Both fields must reproduce themselves through the weak KAM min-formula
    from their own Aubry traces on the reporting region, within
    1e-9 + 8h (1 + sup |v - w|).
    """
    grid = critical.grid
    vv = np.asarray(v, dtype=float)
    ww = np.asarray(w, dtype=float)
    region_mask = grid.box_mask(grid.scaled_box(0.5))
    recon_tol = 1e-9 + 8.0 * grid.h * (1.0 + float(np.max(np.abs(vv - ww))))
    errs = []
    for fld in (vv, ww):
        try:
            rec = weak_kam_solution(critical, fld[critical.aubry_nodes])
        except WeakKAMError as exc:
            raise ValueError(f"field is not weak-KAM reconstructible: {exc}") from exc
        errs.append(float(np.max(np.abs(rec - fld)[region_mask])))
    if max(errs) > recon_tol:
        raise ValueError(f"field is not weak-KAM reconstructible "
                         f"(errors {errs[0]:.3g}, {errs[1]:.3g} > {recon_tol:.3g})")
    mather_nodes = np.asarray(mather_nodes, dtype=int)
    hyp = float(np.max(vv[mather_nodes] - ww[mather_nodes]))
    if hyp > UNIQUENESS_TOL:
        return UniquenessVerdict(status=_STATUS_NA, worst_gap=np.nan, witness=None,
                                 hypothesis_gap=hyp, recon_err_v=errs[0],
                                 recon_err_w=errs[1])
    gaps = vv - ww
    gaps[~region_mask] = -np.inf
    witness = int(np.argmax(gaps))
    worst = float(gaps[witness])
    status = _STATUS_PASS if worst <= UNIQUENESS_FACTOR * UNIQUENESS_TOL else _STATUS_FAIL
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
    w: np.ndarray                     # the selected limit, one value per node
    mather_nodes: np.ndarray
    estimator_agreement: float
    rows: list
    failures: list
    critical: object
    ergodic_objective: float
    critical_crosscheck: float        # |c_bisection + ergodic LP optimum|
    sub_box: np.ndarray


def _agreement_nodes(grid, sub_box, count, probes):
    nodes = []
    center = 0.5 * (sub_box[:, 0] + sub_box[:, 1])
    for x in np.linspace(sub_box[0, 0], sub_box[0, 1], count):
        p = center.copy()
        p[0] = x
        nodes.append(grid.node_near(p))
    nodes += [grid.node_near(p) for p in probes]
    return list(dict.fromkeys(nodes))       # first occurrences, in order


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
    # the trace estimator is constrained by the sampled vertex set, the
    # finite stand-in for the quantifier over all minimizing measures
    measures = [ergodic.measure] + sample_vertex_measures(polytope, n_objectives, seed)
    mnodes = mather_set(measures, grid)

    w = selected_solution_deflim(critical, measures)
    agree_nodes = _agreement_nodes(grid, sub_box, agreement_count, probes)
    agreement = float(np.max(np.abs(enric1_values(critical, polytope, agree_nodes)
                                    - w[agree_nodes])))

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
        gap = float(np.max(np.abs(sol.u - w)[mask]))
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
            lam_u = lam * float(sol.u[z])
            rows.append(StudyRow(
                lam=lam, sup_gap=gap, iterations=sol.iterations,
                residual=sol.residual, probe=p, lp_objective=lp.objective,
                lambda_u_z=lam_u, rep81_gap=abs(lp.objective - lam_u),
                transport_to_ergodic=transport_distance(
                    lp.measure, ergodic.measure, grid)))
    return StudyReport(lambda_schedule=schedule, sup_gaps=sup_gaps, w=w,
                       mather_nodes=mnodes, estimator_agreement=agreement,
                       rows=rows, failures=failures,
                       critical=critical, ergodic_objective=ergodic.objective,
                       critical_crosscheck=abs(critical.c + ergodic.objective),
                       sub_box=sub_box)
