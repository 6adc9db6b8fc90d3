"""Occupation-measure linear programs and their diagnostics.

Variables are masses mu(i,q) >= 0 on (node, velocity) pairs.  A measure is
an (n, M) array of masses over the node-by-velocity table, and an LP column
is the flat index of its pair in that table (`LPProblem.active`).  Two
programs are built against the foot-point transition:

  ergodic     minimize <mu, L> over closed probability measures: for every
              node j the outflow sum_q mu(j,q) balances the interpolated
              inflow sum_{i,q} w(i,q->j) mu(i,q); the optimum value equals
              minus the critical value of the model.  Every transition row
              is stochastic, so every column of the balance block sums to
              zero and one balance row is implied by the others: the last
              node's row is left out, which gives the program full row
              rank and pins that node's potential (its dual) at 0.

  discounted  minimize <mu, L> subject to the holonomy rows
              (1+lambda*h) sum_q mu(j,q) - inflow(j) = lambda*h*[j == z];
              this is the exact linear-programming dual of the discounted
              scheme, so the optimum equals lambda * u_lambda(z)
              and the stored measure is the normalized occupation measure
              of the discounted problem anchored at z.

  mather      the ergodic rows plus the budget row <mu, L> + s = optimum +
              slack with one slack column s >= 0: the closed probability
              measures within `slack` of the ergodic optimum, over which
              any linear objective can be minimized.  The ergodic optimal
              basis plus the slack column is a feasible crash basis.

Both use the unit-mass normalization; for the discounted program the mass
row is implied exactly by the holonomy rows (their sum reads
lambda*h*(total mass) = lambda*h) and is therefore not repeated, which
also makes the q = 0 self-loop columns a feasible diagonal crash basis.
Each constraint matrix is a `simplex.Columns` store built column by column
(no m x n array is formed).  All three are solved by `lp_solve`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grids import build_transition
from .models import lagrangian_table
from .simplex import Columns, solve_lp

SUPPORT_TOL = 1e-9


@dataclass
class LPProblem:
    c: np.ndarray
    A: Columns                   # the constraint matrix, stored by columns
    b: np.ndarray
    active: np.ndarray           # flat (node * M + velocity) index per measure
                                 # column; slack columns follow them
    kind: str                    # "ergodic" | "discounted" | "mather"
    meta: dict = field(default_factory=dict)


@dataclass
class DiscreteMeasure:
    mass: np.ndarray             # (n, M) node-by-velocity masses
    kind: str                    # "ergodic" | "discounted"


@dataclass
class LPResult:
    measure: DiscreteMeasure
    objective: float
    duals: np.ndarray
    iterations: int
    basis: np.ndarray            # the optimal basis, one column per row


def _finite_variables(L_flat):
    return np.nonzero(np.isfinite(L_flat))[0]


def _stationarity_matrix(transition, active, factor_out=1.0):
    """Rows j: factor_out * outflow(j) - inflow(j), columns = active (i,q),
    stored in 1 + K slots per column.

    Slot 0 is the out-entry at row i, slot 1 + k the k-th interpolation
    weight; a weight landing on a row already held by an earlier slot is
    added there (in slot order, so each value is the same float as the
    dense sum), leaving its own slot empty.
    """
    n = transition.grid.num_nodes
    M = transition.velocity_set.size
    K = transition.idx.shape[2]
    idx = transition.idx.reshape(n * M, K)[active]
    w = transition.w.reshape(n * M, K)[active]
    cols = np.arange(len(active))
    rows = np.full((len(active), 1 + K), -1)
    vals = np.zeros((len(active), 1 + K))
    rows[:, 0] = active // M
    vals[:, 0] = factor_out
    for k in range(K):
        match = rows[:, :k + 1] == idx[:, k, None]
        slot = np.where(match.any(axis=1), np.argmax(match, axis=1), k + 1)
        rows[cols, slot] = idx[:, k]
        vals[cols, slot] -= w[:, k]
    rows[rows < 0] = 0
    return Columns(rows=rows, vals=vals, m=n)


def build_ergodic_lp(model, grid, velocity_set, transition=None):
    """min <mu, L> over {mu >= 0, closed, total mass 1}."""
    if transition is None:
        transition = build_transition(grid, velocity_set)
    L = lagrangian_table(model, grid.coords, velocity_set.vectors).reshape(-1)
    active = _finite_variables(L)
    n = grid.num_nodes
    # the last balance row is the negated sum of the others
    A = (_stationarity_matrix(transition, active).take_rows(np.arange(n) < n - 1)
         .with_row(np.ones(len(active))))
    b = np.zeros(n)
    b[-1] = 1.0
    return LPProblem(c=L[active], A=A, b=b, active=active, kind="ergodic",
                     meta={"grid": grid, "velocity_set": velocity_set,
                           "transition": transition})


def build_discounted_lp(model, grid, velocity_set, lam, z, transition=None):
    """min <mu, L> over the discounted holonomy polytope anchored at node z.

    z may be a node index or coordinates (snapped to the nearest node).
    The unnormalized dual has mass 1/(lambda*h); the rows below are already
    scaled so the optimal measure is a probability and <mu, L> equals
    lambda * u_lambda(z) for the discrete fixed point u_lambda of the scheme.
    """
    if transition is None:
        transition = build_transition(grid, velocity_set)
    if not np.isscalar(z):
        z = grid.node_near(z)
    z = int(z)
    L = lagrangian_table(model, grid.coords, velocity_set.vectors).reshape(-1)
    active = _finite_variables(L)
    lam_h = lam * grid.h
    A = _stationarity_matrix(transition, active, factor_out=1.0 + lam_h)
    b = np.zeros(grid.num_nodes)
    b[z] = lam_h
    # the unit-mass row is implied exactly: summing the holonomy rows gives
    # lam*h*(total mass) = lam*h
    # the q = 0 column of each node, in node order, when every node has one
    crash = np.nonzero(active % velocity_set.size == velocity_set.zero_index())[0]
    crash = crash if len(crash) == grid.num_nodes else None
    return LPProblem(c=L[active], A=A, b=b, active=active, kind="discounted",
                     meta={"grid": grid, "velocity_set": velocity_set,
                           "transition": transition, "lambda": lam, "z": z,
                           "crash_basis": crash})


def lp_solve(problem, objective=None):
    """Solve the program; returns the measure, the optimum, and the duals
    (the multipliers on the stationarity rows approximate a subsolution
    potential and are reported for diagnostics).

    `objective`, indexed like `active`, replaces the measure costs
    `problem.c`; slack columns cost 0.  Masses at or below SUPPORT_TOL are
    zeroed.  The vertices of the Mather polytope are measures of kind
    "ergodic".
    """
    c = problem.c
    if objective is not None:
        c = np.zeros(len(problem.c))
        c[:len(objective)] = objective
    sol = solve_lp(c, problem.A, problem.b, basis0=problem.meta.get("crash_basis"))
    x = sol.x[:len(problem.active)]
    meta = problem.meta
    mass = np.zeros((meta["grid"].num_nodes, meta["velocity_set"].size))
    mass.reshape(-1)[problem.active] = np.where(x > SUPPORT_TOL, x, 0.0)
    kind = "ergodic" if problem.kind == "mather" else problem.kind
    return LPResult(measure=DiscreteMeasure(mass=mass, kind=kind),
                    objective=sol.objective, duals=sol.duals,
                    iterations=sol.iterations, basis=sol.basis)


# ---------------------------------------------------------------------------
# feasibility rechecks, independent of the solver
# ---------------------------------------------------------------------------

def sequential_sum(values, axis=-1):
    """Sums along `axis` added left to right from 0.0, the order of a Python
    loop (np.sum adds pairwise, which can move the last bits)."""
    values = np.asarray(values, dtype=float)
    pad = [(0, 0)] * values.ndim
    pad[axis] = (1, 0)
    return np.cumsum(np.pad(values, pad), axis=axis).take(-1, axis=axis)


def _flows(mu, transition):
    K = transition.idx.shape[2]
    flat = mu.mass.reshape(-1)
    idx = transition.idx.reshape(-1, K)
    w = transition.w.reshape(-1, K)
    inflow = np.zeros(transition.grid.num_nodes)
    for k in range(K):
        np.add.at(inflow, idx[:, k], w[:, k] * flat)
    return mu.mass.sum(axis=1), inflow


def closedness_residual(mu, transition):
    out, inflow = _flows(mu, transition)
    return float(np.max(np.abs(out - inflow)))


def holonomy_residual(mu, lam, z, transition):
    """Holonomy-row residual of mu for the discounted LP anchored at node z."""
    grid = transition.grid
    out, inflow = _flows(mu, transition)
    rhs = np.zeros(grid.num_nodes)
    rhs[z] = lam * grid.h
    return float(np.max(np.abs((1.0 + lam * grid.h) * out - inflow - rhs)))


@dataclass
class SupportReport:
    outside_mass: float
    passed: Optional[bool]       # None for discounted measures (informational)
    dilation: float
    q_bound: float
    mass_tol: float              # the outside mass an ergodic measure may carry


def support_check(mu, critical, q_bound=None, mass_tol=None):
    """Mass outside (Aubry set dilated by 2h) x {|q| <= q_bound}.

    Pass/fail applies to ergodic measures only, with at most mass_tol
    (default 1e-3 + 2h) outside; discounted occupation measures
    legitimately ride the approach path and are reported as informational.
    """
    grid = critical.grid
    vset = critical.velocity_set
    if q_bound is None:
        q_bound = vset.q_max
    if mass_tol is None:
        mass_tol = 1e-3 + 2.0 * grid.h
    dil = 2.0 * grid.h
    aubry_pts = grid.coords[critical.aubry_nodes]
    nodes = np.flatnonzero(mu.mass.any(axis=1))
    d = np.min(np.sqrt(np.sum((grid.coords[nodes, None, :] - aubry_pts) ** 2, axis=2)),
               axis=1)
    far = (d > dil + 1e-12)[:, None] | (vset.speeds() > q_bound + 1e-12)
    outside = float(sequential_sum(mu.mass[nodes][far]))
    passed = (outside <= mass_tol) if mu.kind == "ergodic" else None
    return SupportReport(outside_mass=outside, passed=passed,
                         dilation=dil, q_bound=float(q_bound), mass_tol=float(mass_tol))


# ---------------------------------------------------------------------------
# the Mather polytope (ergodic feasible set cut at the optimal value)
# ---------------------------------------------------------------------------

def build_mather_polytope(problem, ergodic_result, slack=None):
    """Closed unit-mass measures with <mu, L> within `slack` of the optimum.

    `problem` is the ergodic program and `ergodic_result` its solution.  The
    budget row <mu, L> + s = optimum + slack (s >= 0) is appended with its
    slack column, so `lp_solve(polytope, objective)` optimizes any linear
    objective over the measures on the epsilon-argmin face.
    """
    if slack is None:
        slack = (1e-7 * (1.0 + abs(ergodic_result.objective))
                 + 1e-3 * problem.meta["grid"].h ** 2)
    # each measure column gains its cost in the budget row, and the slack
    # column is the unit column of that row
    budget = problem.A.m
    A = problem.A.with_row(problem.c).with_unit_columns([budget])
    b = np.concatenate([problem.b, [ergodic_result.objective + slack]])
    # the ergodic optimum with s = slack > 0 is a vertex of the polytope
    crash = np.append(ergodic_result.basis, len(problem.c))
    return LPProblem(c=np.append(problem.c, 0.0), A=A, b=b,
                     active=problem.active, kind="mather",
                     meta={**problem.meta, "slack": slack, "crash_basis": crash})


def transport_distance(mu1, mu2, grid):
    """1-Wasserstein distance of the position marginals (per-axis CDFs)."""
    m1 = mu1.mass.sum(axis=1).reshape(grid.shape)
    m2 = mu2.mass.sum(axis=1).reshape(grid.shape)
    total = 0.0
    for k in range(grid.dimension):
        axes = tuple(a for a in range(grid.dimension) if a != k)
        c1 = np.cumsum(m1.sum(axis=axes) if axes else m1)
        c2 = np.cumsum(m2.sum(axis=axes) if axes else m2)
        total += float(np.sum(np.abs(c1 - c2)) * grid.h)
    return total
