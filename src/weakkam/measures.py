"""Occupation-measure linear programs, their diagnostics, and the Mather face.

Variables are masses mu(i,q) >= 0 on (node, velocity) pairs.  A measure is
an (n, M) array of masses over the node-by-velocity table, mu[i, m], and
every pair is an LP column: column i*M + m is the pair (i, m).  The
Lagrangian is finite on every pair (`lagrangian_table` raises NonCoercive
otherwise).  Two programs are built against the foot-point transition:

  ergodic     minimize <mu, L> over closed probability measures: for every
              node j the outflow sum_q mu(j,q) balances the interpolated
              inflow sum_{i,q} w(i,q->j) mu(i,q); the optimum value equals
              minus the critical value of the model.  Every transition row
              is stochastic, so every column of the balance block sums to
              zero and one balance row is implied by the others: the last
              node's row is left out, which gives the program full row
              rank and pins that node's potential (its dual) at 0.  The
              rows end with the mass row.

  discounted  minimize <mu, L> subject to the holonomy rows
              (1+lambda*h) sum_q mu(j,q) - inflow(j) = lambda*h*[j == z];
              this is the exact linear-programming dual of the discounted
              scheme, so the optimum equals lambda * u_lambda(z)
              and the stored measure is the normalized occupation measure
              of the discounted problem anchored at z.  The mass row is
              implied exactly by the holonomy rows (their sum reads
              lambda*h*(total mass) = lambda*h) and is not repeated.

Each program carries its start, `start = (basis, xB, y)`: the basis of a
stationary policy with its basic solution and prices from block solves of
that policy (`discounted.policy_solve`), or None.  The simplex checks the
values against the basis before use and runs phase 1 when they fail:

  ergodic     the columns (i, tree[i]) of the Aubry tree (`aubry_tree`), when
              it is given: the Aubry node y* with the least L(y*, 0) takes its
              rest column and every other node its greedy move toward y*.
              Every node reaches y* under that policy, so y* is its only
              recurrent class, the basis is nonsingular, and its basic
              solution is the Dirac mass on (y*, 0), which is feasible.
              Without a tree, or for a policy that does not rest on
              exactly one node, there is no start.
  discounted  the columns (i, policy[i]), one per node in node order, of the
              policy it is built with; the rest policy (q = 0 everywhere)
              by default.  Such a basis is (1+lambda*h) I - W^T with W
              substochastic, an M-matrix with a nonnegative inverse, so it
              is feasible for every lambda and z.  The basic solutions are
              the stationary policies of the scheme (Puterman, Markov
              Decision Processes, 1994, ch. 6): built with the policy
              Howard's iteration ended on, the program proves its optimum
              by its own pricing, in no pivots, with no m x m array formed.

Each constraint matrix is a `simplex.Columns` store built column by column
(no m x n array is formed).  Both are solved by `lp_solve`.  The minimizing
(Mather) measures are read off the ergodic solution exactly (`mather_face`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .discounted import policy_solve, transposed_policy_solve
from .errors import NoMeasures, NoSelfLoop, SingularBasis
from .grids import Transition, interpolate
from .models import lagrangian_table
from .simplex import Columns, solve_lp

SUPPORT_TOL = 1e-9


@dataclass
class LPProblem:
    """min c.x over A x = b, x >= 0, and the start the simplex tries before
    phase 1: a basis with its basic solution and prices (`solve_lp`)."""
    c: np.ndarray
    A: Columns                   # the constraint matrix, one column per pair
    b: np.ndarray
    kind: str                    # "ergodic" | "discounted"
    transition: Transition       # the grid and velocity set are its own
    start: Optional[tuple] = None   # (basis, xB, y), or None


@dataclass
class LPResult:
    measure: np.ndarray          # (n, M) node-by-velocity masses
    objective: float
    duals: np.ndarray
    iterations: int
    basis: np.ndarray            # the optimal basis, one column per row


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


def aubry_tree(model, grid, velocity_set, transition, critical):
    """The Aubry tree: a policy, one velocity index per node, that sends
    every node to one Aubry node y*, or None when some node cannot reach y*
    under it.

    y* is the Aubry node with the least L(y*, 0), and it takes its rest
    velocity.  Every other node i takes the move q != 0 least in
    h L(x_i, q) + S(foot(i, q) -> y*), the ergodic program's own stage cost
    plus the distance to y* (its row of critical.S_to) interpolated at the
    foot; the lowest velocity index wins a tie.  The policy is kept only
    when every node reaches y* through feet of positive weight (a search
    over the reversed policy graph from y*): then y* is the policy's only
    recurrent class, so the ergodic basis of the policy is nonsingular and
    its basic solution is the Dirac mass on (y*, 0) (Puterman, Markov
    Decision Processes, 1994, ch. 8-9, for bases as stationary policies).
    """
    L = lagrangian_table(model, grid.coords, velocity_set.vectors)
    zero = velocity_set.zero_index()
    nodes = critical.aubry_nodes
    r = int(np.argmin(L[nodes, zero]))
    root = int(nodes[r])
    stage = grid.h * L + interpolate(transition, critical.S_to[r])
    stage[:, zero] = np.inf
    policy = np.argmin(stage, axis=1)
    policy[root] = zero
    n = grid.num_nodes
    rows = np.arange(n)
    succ, hit = transition.idx[rows, policy], transition.w[rows, policy] > 0.0
    # the reversed edges, grouped by their tail: pred[start[j]:start[j + 1]]
    # are the nodes with a positive-weight foot on node j
    src = np.repeat(rows, succ.shape[1])[hit.ravel()]
    dst = succ.ravel()[hit.ravel()]
    order = np.argsort(dst, kind="stable")
    pred = src[order].tolist()
    start = np.searchsorted(dst[order], np.arange(n + 1)).tolist()
    reached = [False] * n
    reached[root] = True
    stack = [root]
    while stack:
        j = stack.pop()
        for i in pred[start[j]:start[j + 1]]:
            if not reached[i]:
                reached[i] = True
                stack.append(i)
    return policy if all(reached) else None


def build_ergodic_lp(model, grid, velocity_set, transition, policy=None):
    """min <mu, L> over {mu >= 0, closed, total mass 1}, started from the
    basis of `policy` (one velocity index per node, such as the Aubry
    tree), or with no start when None."""
    L = lagrangian_table(model, grid.coords, velocity_set.vectors)
    n = grid.num_nodes
    # the last balance row is the negated sum of the others
    A = (_stationarity_matrix(transition).take_rows(np.arange(n) < n - 1)
         .with_row(np.ones(L.size)))
    b = np.zeros(n)
    b[-1] = 1.0
    return LPProblem(c=L.reshape(-1), A=A, b=b, kind="ergodic", transition=transition,
                     start=None if policy is None else _ergodic_start(L, transition, policy))


def _ergodic_start(L, transition, policy):
    """The start (basis, xB, y) of the ergodic basis of `policy`, the
    columns (i, policy[i]) in node order, when exactly one node r rests on
    itself, as the Aubry tree's root does; None otherwise.

    The basic solution is the Dirac mass on (r, policy[r]).  The prices are
    g = L(r, policy[r]) on the mass row and the potentials psi of
    (I - W) psi = L_policy - g: r's row of I - W is 0 and is replaced by
    psi(r) = 0, an absorbing chain when every node reaches r, so the system
    is nonsingular.  psi is shifted to 0 at the last node, whose balance
    row is left out.
    """
    n = len(policy)
    rows = np.arange(n)
    idx, w = transition.idx[rows, policy], transition.w[rows, policy]
    rests = np.flatnonzero(np.all((idx == rows[:, None]) | (w == 0.0), axis=1))
    if rests.size != 1:
        return None
    r = int(rests[0])
    cost = L[rows, policy]
    g = cost[r]
    rhs = cost - g
    rhs[r] = 0.0
    try:
        psi = policy_solve(transition, policy, rhs, 0.0, absorbing=r)
    except SingularBasis:
        return None
    xB = np.zeros(n)
    xB[r] = 1.0
    return rows * L.shape[1] + policy, xB, np.append(psi[:-1] - psi[-1], g)


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
    L = lagrangian_table(model, grid.coords, velocity_set.vectors)
    lam_h = lam * grid.h
    A = _stationarity_matrix(transition, factor_out=1.0 + lam_h)
    b = np.zeros(grid.num_nodes)
    b[z] = lam_h
    # the unit-mass row is implied exactly: summing the holonomy rows gives
    # lam*h*(total mass) = lam*h
    if policy is None:
        policy = np.full(grid.num_nodes, velocity_set.zero_index())
    rows = np.arange(grid.num_nodes)
    # the basis, the columns (i, policy[i]), is ((1 + lam h) I - W)^T for the
    # policy's weights W, so its prices solve Howard's system with the costs
    # L and its basic solution the transposed one with b
    y, factor = policy_solve(transition, policy, L[rows, policy], lam_h, keep=True)
    return LPProblem(c=L.reshape(-1), A=A, b=b, kind="discounted", transition=transition,
                     start=(rows * L.shape[1] + policy, transposed_policy_solve(factor, b), y))


def lp_solve(problem):
    """Solve the program from its own start; returns the measure, the
    optimum, and the duals (the multipliers on the stationarity rows
    approximate a subsolution potential and are reported for diagnostics).
    A start whose values fail the simplex's check, or whose basic solution
    is negative, falls back to phase 1.  Masses at or below SUPPORT_TOL are
    zeroed.
    """
    sol = solve_lp(problem.c, problem.A, problem.b, start=problem.start)
    tr = problem.transition
    n, M = tr.grid.num_nodes, tr.velocity_set.size
    return LPResult(measure=np.where(sol.x > SUPPORT_TOL, sol.x, 0.0).reshape(n, M),
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
# the Mather face: the minimizing measures, exactly
# ---------------------------------------------------------------------------

FACE_TOL = 1e-9     # a column is tight when its reduced cost is at most
                    # FACE_TOL (1 + |optimum|)


@dataclass
class MatherFace:
    columns: np.ndarray          # its pairs as flat column indices i*M + m, increasing
    nodes: np.ndarray            # F, the nodes of those pairs, increasing


def mather_face(problem, result):
    """Every minimizing measure of the ergodic `problem`, solved as `result`:
    by complementary slackness against its duals, the closed probability
    measures on the tight columns, which sit on their maximal end components
    (de Alfaro, PhD thesis, Stanford, 1997; Baier and Katoen, Principles of
    Model Checking, 2008, sec. 10.6.3)."""
    reduced = problem.c - problem.A.vecmat(result.duals)
    tight = reduced <= FACE_TOL * (1.0 + abs(result.objective))
    tr = problem.transition
    return end_components(tight.reshape(tr.idx.shape[:2]), tr.idx, tr.w)


def end_components(allowed, idx, w):
    """The maximal end components of the pairs (i, m) flagged in the (n, M)
    mask `allowed`, whose successors are the nodes idx[i, m, k] with
    w[i, m, k] > 0, as a MatherFace.

    Until nothing changes, a pair is kept only if all its successors lie in
    the strongly connected component of its node under the kept pairs.
    Raises NoMeasures when no pair is left, and NoSelfLoop when a face node
    has no self-loop pair (all weight on its own node): the limit
    estimators read the face through the Dirac measures of those (`limits`).
    """
    n, M, K = idx.shape
    src = np.repeat(np.arange(n), M)
    succ = idx.reshape(n * M, K)
    hit = w.reshape(n * M, K) > 0.0
    keep = np.asarray(allowed, dtype=bool).reshape(n * M)
    while True:
        pair, k = np.nonzero(hit & keep[:, None])
        comp = _components(n, src[pair], succ[pair, k])
        inside = keep & np.all((comp[succ] == comp[src, None]) | ~hit, axis=1)
        if np.array_equal(inside, keep):
            break
        keep = inside
    columns = np.flatnonzero(keep)
    if columns.size == 0:
        raise NoMeasures("the ergodic program's tight columns carry no closed measure")
    nodes = np.unique(src[columns])
    loops = columns[np.all((succ[columns] == src[columns, None]) | ~hit[columns], axis=1)]
    bare = np.setdiff1d(nodes, src[loops])
    if bare.size:
        pairs = ", ".join(f"({c // M}, {c % M})" for c in columns[:8])
        raise NoSelfLoop(f"Mather face node {bare[0]} carries no self-loop face column, "
                         f"so the limit estimators' node formulas are not exact there; "
                         f"the face is the (node, velocity) pairs {pairs}"
                         + (", ..." if columns.size > 8 else ""))
    return MatherFace(columns=columns, nodes=nodes)


def _components(n, src, dst):
    """The strongly connected component of each of n nodes under the edges
    src -> dst, by Tarjan's algorithm on explicit stacks (a node seen but
    not yet placed is on the stack)."""
    order = np.argsort(src, kind="stable")
    cuts = np.searchsorted(src[order], np.arange(1, n))
    succ = [a.tolist() for a in np.split(dst[order], cuts)]
    index, low, comp, stack, work = [-1] * n, [0] * n, [-1] * n, [], []
    count = labels = 0

    def visit(v):
        nonlocal count
        index[v] = low[v] = count
        count += 1
        stack.append(v)
        work.append((v, iter(succ[v])))

    for root in range(n):
        if index[root] < 0:
            visit(root)
        while work:
            v, edges = work[-1]
            for u in edges:
                if index[u] < 0:
                    visit(u)
                    break
                if comp[u] < 0:
                    low[v] = min(low[v], index[u])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    while comp[v] < 0:
                        comp[stack.pop()] = labels
                    labels += 1
    return np.array(comp)


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
