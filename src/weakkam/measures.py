"""Occupation-measure linear programs and their diagnostics.

Variables are masses mu(i,q) >= 0 on (node, velocity) pairs.  A measure is
an (n, M) array of masses over the node-by-velocity table, mu[i, m], and
every pair is an LP column: column i*M + m is the pair (i, m), so the
measure columns are the table in flat order and any slack columns follow
them.  The Lagrangian is finite on every pair (`lagrangian_table` raises
NonCoercive otherwise).  Three programs are built against the foot-point
transition:

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
              measures within slack = 1e-7 (1 + |optimum|) + 1e-3 h^2 of
              the ergodic optimum, over which any linear objective can be
              minimized.

Every measure has unit mass: the ergodic rows (and so the Mather rows)
end with the mass row, and for the discounted program the mass row is
implied exactly by the holonomy rows (their sum reads
lambda*h*(total mass) = lambda*h) and is therefore not repeated.

Each program carries its start, `start_basis` (None: phase 1 finds one) and
`start_inverse` (None: the start is certified or inverted by the solve):

  ergodic     none.
  discounted  the columns (i, policy[i]), one per node in node order, of the
              policy it is built with; the rest policy (q = 0 everywhere)
              by default.  Such a basis is (1+lambda*h) I - W^T with W
              substochastic, an M-matrix with a nonnegative inverse, so it
              is feasible for every lambda and z.  The basic solutions are
              the stationary policies of the scheme (Puterman, Markov
              Decision Processes, 1994, ch. 6): built with the policy
              Howard's iteration ended on, the program proves its optimum
              by its own pricing, in no pivots, from two dense solves and
              with no basis inverse.
  mather      the ergodic optimal basis plus the budget slack, a vertex of
              the polytope, with the inverse bordered from the ergodic
              solve's when it returned one.

Every program over one Mather polytope shares its feasible set, so any
optimal basis of one is a feasible start for the next: `lp_solve(start=)`
takes an earlier result over the same matrix, its basis and the inverse of
that basis that every pivoting solve returns.
Each constraint matrix is a `simplex.Columns` store built column by column
(no m x n array is formed).  All three are solved by `lp_solve`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import Transition
from .models import lagrangian_table
from .simplex import Columns, solve_lp

SUPPORT_TOL = 1e-9


@dataclass
class LPProblem:
    c: np.ndarray
    A: Columns                   # the constraint matrix, stored by columns:
                                 # the n*M pairs in flat order, then slacks
    b: np.ndarray
    kind: str                    # "ergodic" | "discounted" | "mather"
    transition: Transition       # the grid and velocity set are its own
    start_basis: Optional[np.ndarray] = None    # a feasible basis, or None
    start_inverse: Optional[np.ndarray] = None  # its inverse, when known


@dataclass
class LPResult:
    measure: np.ndarray          # (n, M) node-by-velocity masses
    objective: float
    duals: np.ndarray
    iterations: int
    basis: np.ndarray            # the optimal basis, one column per row
    inverse: Optional[np.ndarray]  # its inverse, folded from the product form;
                                   # None when the start was certified optimal
                                   # without one.  m^2 floats, so a result
                                   # kept for long should drop it


def _stationarity_matrix(transition, factor_out=1.0):
    """Rows j: factor_out * outflow(j) - inflow(j), one column per pair
    (i,q) in flat order, stored in 1 + K slots per column.

    Slot 0 is the out-entry at row i, slot 1 + k the k-th interpolation
    weight; a weight landing on a row already held by an earlier slot is
    added there (in slot order, so each value is the same float as the
    dense sum), leaving its own slot empty.
    """
    n = transition.grid.num_nodes
    M = transition.velocity_set.size
    K = transition.idx.shape[2]
    idx = transition.idx.reshape(n * M, K)
    w = transition.w.reshape(n * M, K)
    cols = np.arange(n * M)
    rows = np.full((n * M, 1 + K), -1)
    vals = np.zeros((n * M, 1 + K))
    rows[:, 0] = cols // M
    vals[:, 0] = factor_out
    for k in range(K):
        match = rows[:, :k + 1] == idx[:, k, None]
        slot = np.where(match.any(axis=1), np.argmax(match, axis=1), k + 1)
        rows[cols, slot] = idx[:, k]
        vals[cols, slot] -= w[:, k]
    rows[rows < 0] = 0
    return Columns(rows=rows, vals=vals, m=n)


def build_ergodic_lp(model, grid, velocity_set, transition):
    """min <mu, L> over {mu >= 0, closed, total mass 1}."""
    L = lagrangian_table(model, grid.coords, velocity_set.vectors).reshape(-1)
    n = grid.num_nodes
    # the last balance row is the negated sum of the others
    A = (_stationarity_matrix(transition).take_rows(np.arange(n) < n - 1)
         .with_row(np.ones(len(L))))
    b = np.zeros(n)
    b[-1] = 1.0
    return LPProblem(c=L, A=A, b=b, kind="ergodic", transition=transition)


def build_discounted_lp(model, grid, velocity_set, lam, z, transition, policy=None):
    """min <mu, L> over the discounted holonomy polytope anchored at node z,
    started from the basis of `policy` (one velocity index per node; the
    rest policy q = 0 when None).

    z may be a node index or coordinates (snapped to the nearest node).
    The unnormalized dual has mass 1/(lambda*h); the rows below are already
    scaled so the optimal measure is a probability and <mu, L> equals
    lambda * u_lambda(z) for the discrete fixed point u_lambda of the scheme.
    """
    if not np.isscalar(z):
        z = grid.node_near(z)
    z = int(z)
    L = lagrangian_table(model, grid.coords, velocity_set.vectors).reshape(-1)
    lam_h = lam * grid.h
    A = _stationarity_matrix(transition, factor_out=1.0 + lam_h)
    b = np.zeros(grid.num_nodes)
    b[z] = lam_h
    # the unit-mass row is implied exactly: summing the holonomy rows gives
    # lam*h*(total mass) = lam*h
    if policy is None:
        policy = np.full(grid.num_nodes, velocity_set.zero_index())
    # the columns (i, policy[i]), one per node in node order
    return LPProblem(c=L, A=A, b=b, kind="discounted", transition=transition,
                     start_basis=np.arange(grid.num_nodes) * velocity_set.size + policy)


def lp_solve(problem, objective=None, start=None):
    """Solve the program; returns the measure, the optimum, and the duals
    (the multipliers on the stationarity rows approximate a subsolution
    potential and are reported for diagnostics).

    `objective`, one cost per (node, velocity) pair in flat order, replaces
    the measure costs `problem.c`; slack columns cost 0.  `start`, an
    earlier `LPResult` over the same matrix, replaces the program's own
    start with its basis and, when it holds one, that basis's inverse.  A
    start that is not feasible falls back to phase 1.  Masses at or below
    SUPPORT_TOL are zeroed.
    """
    c = problem.c
    if objective is not None:
        c = np.zeros(len(problem.c))
        c[:len(objective)] = objective
    if start is None:
        basis0, inverse0 = problem.start_basis, problem.start_inverse
    else:
        basis0, inverse0 = start.basis, start.inverse
    sol = solve_lp(c, problem.A, problem.b, basis0=basis0, inverse0=inverse0)
    tr = problem.transition
    n, M = tr.grid.num_nodes, tr.velocity_set.size
    x = sol.x[:n * M]
    return LPResult(measure=np.where(x > SUPPORT_TOL, x, 0.0).reshape(n, M),
                    objective=sol.objective, duals=sol.duals,
                    iterations=sol.iterations, basis=sol.basis,
                    inverse=sol.inverse)


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
    flat = mu.reshape(-1)
    idx = transition.idx.reshape(-1, K)
    w = transition.w.reshape(-1, K)
    inflow = np.zeros(transition.grid.num_nodes)
    for k in range(K):
        np.add.at(inflow, idx[:, k], w[:, k] * flat)
    return mu.sum(axis=1), inflow


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
    passed: bool
    mass_tol: float              # the outside mass a minimizing measure may carry


def support_check(mu, critical):
    """Mass at the nodes outside the Aubry set dilated by 2h; a measure
    passes with at most mass_tol = 1e-3 + 2h outside.

    A minimizing (ergodic) measure passes; a discounted occupation measure
    rides its approach path to the Aubry set and may fail.
    """
    grid = critical.grid
    mass_tol = 1e-3 + 2.0 * grid.h
    dil = 2.0 * grid.h
    aubry_pts = grid.coords[critical.aubry_nodes]
    nodes = np.flatnonzero(mu.any(axis=1))
    d = np.min(np.sqrt(np.sum((grid.coords[nodes, None, :] - aubry_pts) ** 2, axis=2)),
               axis=1)
    far = nodes[d > dil + 1e-12]
    outside = float(sequential_sum(mu[far].reshape(-1)))
    return SupportReport(outside_mass=outside, passed=bool(outside <= mass_tol),
                         mass_tol=mass_tol)


# ---------------------------------------------------------------------------
# the Mather polytope (ergodic feasible set cut at the optimal value)
# ---------------------------------------------------------------------------

def build_mather_polytope(problem, ergodic_result):
    """Closed unit-mass measures with <mu, L> within
    slack = 1e-7 (1 + |optimum|) + 1e-3 h^2 of the optimum.

    `problem` is the ergodic program and `ergodic_result` its solution.  The
    budget row <mu, L> + s = optimum + slack (s >= 0) is appended with its
    slack column, so `lp_solve(polytope, objective)` optimizes any linear
    objective over the measures on the epsilon-argmin face.
    """
    slack = (1e-7 * (1.0 + abs(ergodic_result.objective))
             + 1e-3 * problem.transition.grid.h ** 2)
    # each measure column gains its cost in the budget row, and the slack
    # column is the unit column of that row
    budget = problem.A.m
    A = problem.A.with_row(problem.c).with_unit_columns([budget])
    b = np.concatenate([problem.b, [ergodic_result.objective + slack]])
    # the ergodic optimum with s = slack > 0 is a vertex of the polytope;
    # its basis is [[B, 0], [c_B, 1]], B the ergodic basis, so its inverse is
    # [[B^-1, 0], [-c_B B^-1, 1]]: bordered from the ergodic solve's inverse
    # (a solve that returned none leaves the start to certify itself)
    inverse = ergodic_result.inverse
    start_inverse = None if inverse is None else np.block(
        [[inverse, np.zeros((budget, 1))],
         [-(problem.c[ergodic_result.basis] @ inverse), 1.0]])
    return LPProblem(c=np.append(problem.c, 0.0), A=A, b=b, kind="mather",
                     transition=problem.transition,
                     start_basis=np.append(ergodic_result.basis, len(problem.c)),
                     start_inverse=start_inverse)


def transport_distance(mu1, mu2, grid):
    """1-Wasserstein distance of the position marginals (per-axis CDFs)."""
    m1 = mu1.sum(axis=1).reshape(grid.shape)
    m2 = mu2.sum(axis=1).reshape(grid.shape)
    total = 0.0
    for k in range(grid.dimension):
        axes = tuple(a for a in range(grid.dimension) if a != k)
        c1 = np.cumsum(m1.sum(axis=axes) if axes else m1)
        c2 = np.cumsum(m2.sum(axis=axes) if axes else m2)
        total += float(np.sum(np.abs(c1 - c2)) * grid.h)
    return total
