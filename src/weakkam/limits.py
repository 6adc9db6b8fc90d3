"""Vanishing-discount study: the selected limit and its two estimators.

The discounted solutions u_lambda of the scheme converge, as lambda -> 0,
to the largest subsolution that is <= 0 against every Mather measure
(Davini, Fathi, Iturriaga & Zavidovique, Math. Z. 284, 2016, for the
discrete case).  Every Mather measure here lives on the face nodes F of
the ergodic program, and each face node carries one, the Dirac measure of
a self-loop column (`measures.mather_face` refuses a face node without
one), so that limit is the largest subsolution that is <= 0 on F.  It is
w_h, the value of the scheme's stochastic shortest path with a stop at F:
stage costs h (L + c_h), with c_h = -(ergodic optimum), on the scheme's
own transition, and a stop of cost 0 at any face node (Bertsekas &
Tsitsiklis, Math. Oper. Res. 16, 1991).  A face node need not stop: where
a route from one face node to another costs less than 0 (a non-reversible
H), w is below 0 at the first.  w_h is solved twice, by two solvers that
share no code:

  * policy iteration (`policy_limit`): the loop of the occupation-measure
    programs and the discounted solve, each policy evaluated with its
    stopped face nodes absorbing;
  * min-plus sweeps (`swept_limit`): the relaxation of the intrinsic
    distances, from 0 on F.

The study drives a decreasing discount schedule, records the sup-norm gap
between each discounted solution and the limit on the central half of the
box (`Grid.central_half`: the truncation pollutes the outer shell), checks
the duality identity <mu, L> = lambda u_lambda(z) per probe, and tracks the
transport distance from the discounted occupation measures to the ergodic
minimizer.  The Mather set is F dilated by one cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .critical import INF, build_aubry_data, relax_batch, weak_kam_solution
from .discounted import policy_solve, solve_discounted
from .errors import IncompatibleTrace, NoMeasures, Unreachable, WeakKAMError
from .grids import interpolate
from .measures import (
    _reach,
    aubry_tree,
    build_discounted_lp,
    build_ergodic_lp,
    lp_solve,
    mather_face,
    policy_iteration,
    transport_distance,
)

_STATUS_PASS = "PASS"
_STATUS_FAIL = "FAIL"
_STATUS_NA = "NotApplicable"


# ---------------------------------------------------------------------------
# the limit w_h, by two solvers
# ---------------------------------------------------------------------------

def stage_costs(problem, ergodic):
    """The scheme's stage costs at the critical level, h (L + c_h) with
    c_h = -(ergodic optimum): an (n, M) table from the ergodic `problem`,
    whose c holds L by column, and its solve `ergodic`."""
    grid = problem.transition.grid
    return grid.h * (problem.c.reshape(grid.num_nodes, -1) - ergodic.objective)


def policy_limit(problem, ergodic, face_nodes):
    """w_h by `measures.policy_iteration`: the least expected sum of the
    `stage_costs` paid until the chain stops at one of the face nodes F,
    an (n,) array.

    At a face node the rest column is the stop: it is priced 0, and while a
    node's policy takes it, the node is absorbing with value 0.  A face node
    leaves instead when a route to another costs less than 0 (a
    non-reversible H), so w <= 0 on F, and w at a face node is its cheapest
    route to a stop.  The start is the ergodic optimum's policy with F
    stopped and every node that does not reach F sent there by the backward
    search from F (`measures._reach`), so it is proper.  An empty F raises
    NoMeasures.
    """
    if len(face_nodes) == 0:
        raise NoMeasures("the limit needs at least one Mather face node")
    tr = problem.transition
    stage = stage_costs(problem, ergodic)
    rest = tr.velocity_set.zero_index()
    rows = np.arange(len(stage))

    def evaluate(policy):
        stopped = face_nodes[policy[face_nodes] == rest]
        rhs = stage[rows, policy]
        rhs[stopped] = 0.0
        return policy_solve(tr, policy, rhs, 0.0, absorbing=stopped), None

    def price(y):
        priced = stage + interpolate(tr, y)
        priced[face_nodes, rest] = 0.0
        return priced

    start = np.array(ergodic.policy, dtype=np.intp)
    start[face_nodes] = rest
    start = _reach(tr, start, list(face_nodes), stage)
    return policy_iteration(stage, start, evaluate, price,
                            "shortest path to the Mather face")[1]


def swept_limit(problem, ergodic, face_nodes):
    """w_h by `critical.relax_batch` on the `stage_costs`, from 0 on the
    face nodes and INF elsewhere, an (n,) array; a node with no route to
    the face stays at INF."""
    tr = problem.transition
    D0 = np.full((1, tr.grid.num_nodes), INF)
    D0[0, face_nodes] = 0.0
    return relax_batch(stage_costs(problem, ergodic), tr, D0)[0][0]


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
        except IncompatibleTrace as exc:
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
    critical: object                  # `build_aubry_data`: S_from is not built
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


def _selected_limit(problem, ergodic, face_nodes, agree_nodes):
    """(w, agreement): `policy_limit` and its largest distance to
    `swept_limit` on the agreement nodes.  A value of either at the INF
    sentinel on an agreement node raises Unreachable."""
    grid = problem.transition.grid
    w = policy_limit(problem, ergodic, face_nodes)
    swept = swept_limit(problem, ergodic, face_nodes)
    for name, values in (("swept limit", swept[agree_nodes]),
                         ("limit w", w[agree_nodes])):
        far = np.flatnonzero(values >= INF / 2)
        if far.size:
            node = agree_nodes[far[0]]
            raise Unreachable(f"the {name} at node {node} (x = {grid.coords[node].tolist()}) "
                              f"is the INF sentinel: no route of the scheme links it to "
                              f"the Mather face")
    return w, float(np.max(np.abs(swept[agree_nodes] - w[agree_nodes])))


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
    ended on, and from the rest policy after a failed solve.  The limit
    w is `policy_limit`, started from the ergodic optimum's policy, and the
    agreement is its distance to `swept_limit`; a value of either at the
    INF sentinel on an agreement node raises Unreachable.
    """
    schedule = [float(l) for l in schedule]
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly decreasing")
    probes = [tuple(float(v) for v in np.atleast_1d(p)) for p in probes]

    critical = build_aubry_data(model, grid, velocity_set, eps_aubry=eps_aubry,
                                transition=transition)
    tree = aubry_tree(model, grid, velocity_set, transition, critical)
    problem = build_ergodic_lp(model, grid, velocity_set, transition=transition,
                               policy=tree)
    ergodic = lp_solve(problem)
    face_nodes = mather_face(problem, ergodic).nodes
    mnodes = mather_set(face_nodes, grid)

    w, agreement = _selected_limit(problem, ergodic, face_nodes,
                                   _agreement_nodes(grid, probes))

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
