"""Vanishing-discount study: the selected limit and its two estimators.

The distinguished limit of the discounted solutions is computed two ways
that share no code path with the PDE solver, both quantified over the
Mather measures, the exact face of the ergodic program
(`measures.mather_face`):

  * barrier form: w(x) = min over Mather measures mu of <mu, P(., x)>, with
    P the Peierls barrier;
  * maximal-trace form: the largest Aubry trace t with t(y) - t(y') bounded
    by the intrinsic distances and <mu, v_t> <= 0 for every Mather measure
    mu, v_t being the weak KAM min-formula field of t (coordinate ascent
    over t), extended by that same min-formula.

Both read a measure through its node marginal alone.  Every face node
carries the Dirac measure of a self-loop face column (the face refuses a
node that does not), so the Mather measures' marginals are exactly the
probability vectors on the face nodes F: the barrier form is min over y in
F of P(y, x), the trace form is constrained by one Dirac marginal per face
node, and the Mather set is F dilated by one cell.  A trace is an array
aligned with `critical.aubry_nodes`, so the pairings are array expressions
over the (k, n) distance array S_from.

The study drives a decreasing discount schedule, records the sup-norm gap
between each discounted solution and the limit on the central half of the
box (`Grid.central_half`: the truncation pollutes the outer shell), checks
the duality identity <mu, L> = lambda u_lambda(z) per probe, and tracks the
transport distance from the discounted occupation measures to the ergodic
minimizer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .critical import INF, build_critical_data, peierls_field_to, weak_kam_solution
from .discounted import solve_discounted
from .errors import MaxIterExceeded, NoMeasures, Unreachable, WeakKAMError
from .measures import (
    aubry_tree,
    build_discounted_lp,
    build_ergodic_lp,
    lp_solve,
    mather_face,
    sequential_sum,
    transport_distance,
)

_STATUS_PASS = "PASS"
_STATUS_FAIL = "FAIL"
_STATUS_NA = "NotApplicable"


# ---------------------------------------------------------------------------
# estimator 1: barrier form
# ---------------------------------------------------------------------------

def enric1_values(critical, face_nodes, query_nodes):
    """min over the Mather measures of <mu, P(., x)> at each node index x of
    query_nodes: min over the face nodes y of P(y, x), since the measures'
    node marginals are the probability vectors on the face nodes."""
    return np.array([np.min(peierls_field_to(critical, int(x))[face_nodes])
                     for x in query_nodes], dtype=float)


# ---------------------------------------------------------------------------
# estimator 2: maximal admissible Aubry trace
# ---------------------------------------------------------------------------

TRACE_SWEEPS = 200     # coordinate-ascent sweeps at most
TRACE_TOL = 1e-12      # a sweep raising no coordinate by more (relative) ends it


def maximal_trace(critical, marginals):
    """Coordinate ascent for the largest trace t on the Aubry nodes with
    t(y) - t(y') <= S(y', y) and <mu, v_t> <= 0 per measure, where v_t is
    the min-formula field of t.  `marginals` holds the measures' node
    marginals, one row of n masses each.  Returns t as an array aligned
    with critical.aubry_nodes.

    Starts from t = 0 (feasible: constant traces are compatible and the
    measure rows vanish) and raises each coordinate in a fixed order to its
    ceiling.  Measure mass sitting off the trace nodes is priced at the
    current field value; a final downward shift restores feasibility
    exactly when that lagged pricing overshoots.  The pairings <mu, v_t>
    add the nodes in index order, left to right.  A trace still rising
    after TRACE_SWEEPS sweeps need not be maximal, and raises
    MaxIterExceeded.
    """
    marg = np.asarray(marginals, dtype=float)
    if len(marg) == 0:
        raise NoMeasures("maximal_trace needs at least one Mather measure")
    nodes = critical.aubry_nodes
    S = critical.S_from
    k = len(nodes)
    support = np.flatnonzero(marg.any(axis=0))
    P = marg[:, support]
    row = np.full(S.shape[1], -1)
    row[nodes] = np.arange(k)
    # support nodes on the trace are priced at t, the others at the field
    on_trace = row[support] >= 0
    trace_rows = row[support][on_trace]
    S_off = S[:, support[~on_trace]]
    # S between trace nodes; the diagonal is left out of each ceiling
    S_nodes = S[:, nodes]
    np.fill_diagonal(S_nodes, np.inf)
    t = np.zeros(k)

    def support_values():
        vals = np.empty(len(support))
        vals[on_trace] = t[trace_rows]
        vals[~on_trace] = np.min(t[:, None] + S_off, axis=0)
        return vals

    # INF marks an unreachable node, not a distance: it sets no scale or ceiling
    scale = 1.0 + float(np.max(np.abs(S[S < INF / 2])))
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
            if t[r] < ceil < INF / 2:
                change = max(change, ceil - t[r])
                t[r] = ceil
        if change <= TRACE_TOL * scale:
            break
    else:
        raise MaxIterExceeded(f"maximal_trace still rising after {TRACE_SWEEPS} sweeps "
                              f"(last change {change:.3e})", residual=change,
                              iterations=TRACE_SWEEPS)
    # lagged off-trace pricing can overshoot; shift down to restore <mu, v_t> <= 0
    worst = max(0.0, float(np.max(sequential_sum(P * support_values(), axis=1))))
    return t - worst


def selected_solution_deflim(critical, marginals):
    """Limit candidate as the weak KAM field of the maximal admissible trace,
    an (n,) array."""
    t = maximal_trace(critical, marginals)
    return weak_kam_solution(critical, t)


def dirac_marginals(nodes, num_nodes):
    """One Dirac node marginal per node of `nodes`, (len(nodes), num_nodes)."""
    marg = np.zeros((len(nodes), num_nodes))
    marg[np.arange(len(nodes)), nodes] = 1.0
    return marg


# ---------------------------------------------------------------------------
# Mather set
# ---------------------------------------------------------------------------

def mather_set(face_nodes, grid):
    """The face nodes dilated by one grid cell in the max norm: every node
    whose index differs from a face node's by at most 1 on each axis."""
    near = np.zeros(grid.shape, dtype=bool)
    multi = np.array(np.unravel_index(face_nodes, grid.shape)).reshape(grid.dimension, -1)
    top = np.array(grid.shape)[:, None] - 1
    # a step off the grid is clipped back onto the face node's own row
    for step in itertools.product((-1, 0, 1), repeat=grid.dimension):
        near[tuple(np.clip(multi + np.array(step)[:, None], 0, top))] = True
    return np.flatnonzero(near)


# ---------------------------------------------------------------------------
# uniqueness-set test
# ---------------------------------------------------------------------------

@dataclass
class UniquenessVerdict:
    status: str
    worst_gap: float            # max of v - w over the central half-box


UNIQUENESS_TOL = 1e-6     # the hypothesis v <= w + UNIQUENESS_TOL on the Mather nodes
UNIQUENESS_FACTOR = 3.0   # the conclusion v <= w + UNIQUENESS_FACTOR * UNIQUENESS_TOL


def uniqueness_test(critical, mather_nodes, v, w):
    """If v <= w + UNIQUENESS_TOL on the Mather nodes then
    v <= w + UNIQUENESS_FACTOR * UNIQUENESS_TOL on the central half-box;
    vacuous hypotheses report NotApplicable.  v and w are (n,) arrays.

    Both fields must reproduce themselves through the weak KAM min-formula
    from their own Aubry traces on the central half-box, within
    1e-9 + 8h (1 + sup |v - w|).
    """
    grid = critical.grid
    vv = np.asarray(v, dtype=float)
    ww = np.asarray(w, dtype=float)
    region_mask = grid.box_mask(grid.central_half())
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
        return UniquenessVerdict(status=_STATUS_NA, worst_gap=np.nan)
    worst = float(np.max((vv - ww)[region_mask]))
    status = _STATUS_PASS if worst <= UNIQUENESS_FACTOR * UNIQUENESS_TOL else _STATUS_FAIL
    return UniquenessVerdict(status=status, worst_gap=worst)


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


AGREEMENT_COUNT = 9    # nodes across the central half-box on which the estimators meet


def _agreement_nodes(grid, probes):
    """AGREEMENT_COUNT nodes evenly along the first axis of the central
    half-box through its center, then the probes' nodes."""
    half = grid.central_half()
    nodes = []
    center = 0.5 * (half[:, 0] + half[:, 1])
    for x in np.linspace(half[0, 0], half[0, 1], AGREEMENT_COUNT):
        p = center.copy()
        p[0] = x
        nodes.append(grid.node_near(p))
    nodes += [grid.node_near(p) for p in probes]
    return list(dict.fromkeys(nodes))       # first occurrences, in order


def vanishing_discount_study(model, grid, velocity_set, schedule, probes=((0.0,),),
                             eps_aubry=None, *, transition):
    """Decreasing-discount convergence study against the selected limit.

    Every result is read on the central half of the box
    (`Grid.central_half`): the sup gaps are taken over its nodes, and the
    estimator agreement over AGREEMENT_COUNT = 9 nodes spread along its
    first axis through its center, plus the probes' nodes.

    Per-lambda solves and discounted LPs that fail with a WeakKAMError are
    recorded in `failures` and the study continues with the remaining
    schedule; any other exception propagates.  The Aubry tree
    (`measures.aubry_tree`) starts both the ergodic program and the first
    solve; each later solve starts from the policy the solve before it
    ended on, and from the rest policy after a failed solve.  A
    limit or barrier value at the INF sentinel on an agreement node raises
    Unreachable.
    """
    schedule = [float(l) for l in schedule]
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly decreasing")
    probes = [tuple(float(v) for v in np.atleast_1d(p)) for p in probes]

    critical = build_critical_data(model, grid, velocity_set, eps_aubry=eps_aubry,
                                   transition=transition)
    tree = aubry_tree(model, grid, velocity_set, transition, critical)
    problem = build_ergodic_lp(model, grid, velocity_set, transition=transition,
                               policy=tree)
    ergodic = lp_solve(problem)
    face_nodes = mather_face(problem, ergodic).nodes
    mnodes = mather_set(face_nodes, grid)

    w = selected_solution_deflim(critical, dirac_marginals(face_nodes, grid.num_nodes))
    agree_nodes = _agreement_nodes(grid, probes)
    barrier = enric1_values(critical, face_nodes, agree_nodes)
    for name, values in (("barrier form", barrier), ("limit w", w[agree_nodes])):
        far = np.flatnonzero(values >= INF / 2)
        if far.size:
            node = agree_nodes[far[0]]
            raise Unreachable(f"the {name} at node {node} (x = {grid.coords[node].tolist()}) "
                              f"is the INF sentinel: no route of the scheme links it to "
                              f"the Mather face")
    agreement = float(np.max(np.abs(barrier - w[agree_nodes])))

    mask = grid.box_mask(grid.central_half())
    rows, failures, sup_gaps = [], [], []
    policy = tree
    for lam in schedule:
        try:
            sol = solve_discounted(model, grid, velocity_set, lam, transition=transition,
                                   policy0=policy)
        except WeakKAMError as exc:
            failures.append({"lambda": lam, "stage": "solve", "error": repr(exc)})
            sup_gaps.append(float("nan"))
            policy = None
            continue
        policy = sol.policy
        gap = float(np.max(np.abs(sol.u - w)[mask]))
        sup_gaps.append(gap)
        rows.append(StudyRow(lam=lam, sup_gap=gap, iterations=sol.iterations,
                             residual=sol.residual))
        # each LP starts from the policy Howard ended on, which is optimal
        # for every anchor
        for p in probes:
            z = grid.node_near(p)
            try:
                lp = lp_solve(build_discounted_lp(model, grid, velocity_set, lam, z,
                                                  transition=transition,
                                                  policy=sol.policy))
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
                       critical_crosscheck=abs(critical.c + ergodic.objective))
