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

Both are Markov decision problems over the scheme's transition, one with
average cost and one discounted, and `lp_solve` solves each by policy
iteration (Howard, Dynamic Programming and Markov Processes, 1960;
Puterman, Markov Decision Processes, 1994, ch. 6, 8.6 and 9), on the loop
that solves the scheme too (`policy_iteration`).  A policy is one velocity
index per node; its columns (i, policy[i]) are a basis of the program.
Each step evaluates the policy with one block factorization
(`discounted.policy_solve`), prices every column against its duals, and
switches each node whose cheapest column beats its own past round-off;
the step that switches none is the simplex's own certificate of
optimality, with a nonnegative closed (or holonomic) measure.  An ergodic
policy is kept to one closed class (`_unichain`).  A program starts from
the policy it is built with (the study's: the Aubry tree, `aubry_tree`,
then Howard's last policy) or from the rest policy.

Each constraint matrix is a `Columns` store built column by column (no
m x n array is formed).  The minimizing (Mather) measures are read off the
ergodic solution exactly (`mather_face`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .discounted import policy_solve, transposed_policy_solve
from .errors import MaxIterExceeded, NoMeasures, NoSelfLoop, SingularBasis, Unreachable
from .grids import Transition, interpolate
from .models import lagrangian_table

SUPPORT_TOL = 1e-9
TOL = 1e-9          # the switching tolerance relative to the costs (`policy_iteration`)
FEAS_TOL = 1e-9     # the residual a solution's measure may leave in its rows


@dataclass
class Columns:
    """An m x n matrix stored by columns in P slots each: column j holds
    vals[j, s] at row rows[j, s].  Unused slots hold row 0 and value 0, and
    no row repeats within a column."""
    rows: np.ndarray             # (n, P) row indices
    vals: np.ndarray             # (n, P) values
    m: int

    @property
    def shape(self):
        return (self.m, self.rows.shape[0])

    @property
    def nnz(self):
        return int(np.count_nonzero(self.vals))

    def vecmat(self, y):
        """y @ A, summed slot by slot in slot order."""
        out = y[self.rows[:, 0]] * self.vals[:, 0]
        for s in range(1, self.rows.shape[1]):
            out += y[self.rows[:, s]] * self.vals[:, s]
        return out

    def take_rows(self, keep):
        """A[keep] for a boolean row mask; values in dropped rows go."""
        new_index = np.cumsum(keep) - 1
        kept = keep[self.rows]
        return Columns(rows=np.where(kept, new_index[self.rows], 0),
                       vals=np.where(kept, self.vals, 0.0), m=int(keep.sum()))

    def with_row(self, values):
        """[A; values]: one more row, held in one more slot of every column."""
        n = self.rows.shape[0]
        return Columns(rows=np.hstack([self.rows, np.full((n, 1), self.m)]),
                       vals=np.hstack([self.vals, np.reshape(values, (n, 1))]),
                       m=self.m + 1)


@dataclass
class LPProblem:
    """min c.x over A x = b, x >= 0, and the policy `lp_solve` starts from."""
    c: np.ndarray
    A: Columns                   # the constraint matrix, one column per pair
    b: np.ndarray
    kind: str                    # "ergodic" | "discounted"
    transition: Transition       # the grid and velocity set are its own
    lam_h: float = 0.0           # the discount lambda h of a discounted program
    policy: Optional[np.ndarray] = None   # a velocity index per node, or None


@dataclass
class LPResult:
    measure: np.ndarray          # (n, M) node-by-velocity masses
    objective: float
    duals: np.ndarray
    iterations: int              # policy steps after the start
    policy: np.ndarray           # the optimal policy, a velocity index per node


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
    """The Aubry tree: a policy, one velocity index per node, under which
    every node reaches one Aubry node y*.

    y* is the Aubry node with the least L(y*, 0), and it takes its rest
    velocity.  Every other node i takes the move q != 0 least in
    h L(x_i, q) + S(foot(i, q) -> y*), the ergodic program's own stage cost
    plus the distance to y* (its row of critical.S_to) interpolated at the
    foot; the lowest velocity index wins a tie.  A node that does not reach
    y* through feet of positive weight under those moves takes instead its
    least such move into the nodes that do (`_reach`), so y* is the
    policy's only closed class and the ergodic program's start is the Dirac
    mass on (y*, 0).
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
    return _reach(transition, policy, [root], stage)


def _reach(transition, policy, kept, cost):
    """`policy` changed so that every node reaches the closed class `kept`
    (a list of nodes) through feet of positive weight: a node that does not
    takes its move least in `cost` (an (n, M) table; the lowest velocity
    index wins a tie) among those with a positive-weight foot on a node
    that does, in waves outward from `kept`.  Then `kept` is the policy's
    only closed class.  Raises Unreachable when some node has no such move.
    """
    n = len(policy)
    # the reversed edges of the policy, grouped by their tail:
    # pred[start[j]:start[j + 1]] are the nodes with a positive-weight foot
    # on node j
    src, dst = _policy_edges(transition, policy)
    order = np.argsort(dst, kind="stable")
    pred = src[order].tolist()
    start = np.searchsorted(dst[order], np.arange(n + 1)).tolist()
    policy = policy.copy()
    reached = np.zeros(n, dtype=bool)
    reached[kept] = True
    stack = list(kept)
    while True:
        while stack:
            j = stack.pop()
            for i in pred[start[j]:start[j + 1]]:
                if not reached[i]:
                    reached[i] = True
                    stack.append(i)
        if reached.all():
            return policy
        moves = (np.any(reached[transition.idx] & (transition.w > 0.0), axis=2)
                 & ~reached[:, None])
        wave = np.flatnonzero(moves.any(axis=1))
        if wave.size == 0:
            i = int(np.flatnonzero(~reached)[0])
            raise Unreachable(f"node {i} (x = {transition.grid.coords[i].tolist()}) has no "
                              f"move that reaches the policy's closed class at node {kept[0]}")
        policy[wave] = np.argmin(np.where(moves[wave], cost[wave], np.inf), axis=1)
        reached[wave] = True
        stack = wave.tolist()


def _policy_edges(transition, policy):
    """(src, dst): the edges i -> foot node of the chain of `policy`, one per
    foot of positive weight."""
    rows = np.arange(len(policy))
    succ = transition.idx[rows, policy]
    on = transition.w[rows, policy] > 0.0
    return np.repeat(rows, succ.shape[1])[on.ravel()], succ.ravel()[on.ravel()]


def _closed_classes(transition, policy):
    """The closed classes of the chain of `policy`: lists of nodes, in the
    order of their least node."""
    src, dst = _policy_edges(transition, policy)
    comp = _components(len(policy), src, dst)
    open_ = np.zeros(comp.max() + 1, dtype=bool)
    open_[comp[src[comp[src] != comp[dst]]]] = True
    closed = np.flatnonzero(~open_[comp])
    labels = comp[closed]
    return [closed[labels == lab].tolist() for lab in dict.fromkeys(labels.tolist())]


def _unichain(transition, policy, cost, switched=None):
    """(policy, anchor): `policy` with a single closed class, and a node of
    that class, its resting node when it has one.

    When the chain has several closed classes, one is kept and every node
    is sent to it (`_reach`, by `cost`).  At the start (`switched` None) the
    kept class holds the node least in cost[i, policy[i]] over the classes;
    after a step, the least such node among the classes that hold a node the
    step switched (a boolean mask).  A class with a switched node has a
    strictly lower gain than the policy before the step, so no policy
    recurs.
    """
    classes = _closed_classes(transition, policy)
    if len(classes) > 1:
        if switched is not None:
            classes = [c for c in classes if switched[c].any()]
        least = [float(np.min(cost[c, policy[c]])) for c in classes]
        kept = classes[int(np.argmin(least))]
        policy = _reach(transition, policy, kept, cost)
    else:
        kept = classes[0]
    rests = np.all((transition.idx[kept, policy[kept]] == np.array(kept)[:, None])
                   | (transition.w[kept, policy[kept]] == 0.0), axis=1)
    return policy, kept[int(np.argmax(rests))]


def build_ergodic_lp(model, grid, velocity_set, transition, policy=None):
    """min <mu, L> over {mu >= 0, closed, total mass 1}, solved from
    `policy` (one velocity index per node, such as the Aubry tree), or from
    the rest policy (q = 0 everywhere) when None."""
    L = lagrangian_table(model, grid.coords, velocity_set.vectors)
    n = grid.num_nodes
    # the last balance row is the negated sum of the others
    A = (_stationarity_matrix(transition).take_rows(np.arange(n) < n - 1)
         .with_row(np.ones(L.size)))
    b = np.zeros(n)
    b[-1] = 1.0
    return LPProblem(c=L.reshape(-1), A=A, b=b, kind="ergodic", transition=transition,
                     policy=policy)


def build_discounted_lp(model, grid, velocity_set, lam, z, transition, policy=None):
    """min <mu, L> over the discounted holonomy polytope anchored at node z,
    solved from `policy` (one velocity index per node, such as the one
    Howard's iteration ended on; the rest policy q = 0 when None).

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
    return LPProblem(c=L.reshape(-1), A=A, b=b, kind="discounted", transition=transition,
                     lam_h=lam_h, policy=policy)


def _evaluate_discounted(problem, policy, cost):
    """(duals, masses on the policy's columns) of a discounted policy: the
    basis of its columns is ((1 + lam h) I - W)^T for the policy's weights
    W, so its prices solve Howard's system with the costs, and its basic
    solution the transposed one with b, from the same factor."""
    y, factor = policy_solve(problem.transition, policy, cost, problem.lam_h, keep=True)
    return y, transposed_policy_solve(factor, problem.b)


def _evaluate_ergodic(problem, policy, cost, r):
    """(duals, masses on the policy's columns) of an ergodic policy whose
    only closed class holds node r.

    The potentials psi and the gain g solve g + psi - W psi = cost with
    psi(r) = 0.  With row r of W zeroed (`absorbing`) the matrix is a
    nonsingular M-matrix, and a = its solve with cost and b = its solve
    with 1 (row r zeroed in both) give g = (cost_r + W_r a) / (1 + W_r b)
    and psi = a - g b.  When r rests, g = cost_r and psi is one solve, and
    the measure is the Dirac mass on (r, policy[r]); otherwise it is the
    stationary measure of the class, the transposed solve with W_r^T (whose
    solution carries mass 1 at r), normalized.  The duals are psi shifted to
    0 at the last node, whose balance row is left out, then g on the mass
    row.
    """
    tr = problem.transition
    n = len(policy)
    idx, w = tr.idx[r, policy[r]], tr.w[r, policy[r]]
    if np.all((idx == r) | (w == 0.0)):
        g = cost[r]
        rhs = cost - g
        rhs[r] = 0.0
        psi = policy_solve(tr, policy, rhs, 0.0, absorbing=r)
        xB = np.zeros(n)
        xB[r] = 1.0
    else:
        rhs = np.column_stack([cost, np.ones(n)])
        rhs[r] = 0.0
        ab, factor = policy_solve(tr, policy, rhs, 0.0, keep=True, absorbing=r)
        a, b = ab[:, 0], ab[:, 1]
        g = (cost[r] + w @ a[idx]) / (1.0 + w @ b[idx])
        psi = a - g * b
        row = np.zeros(n)
        np.add.at(row, idx, w)
        xB = transposed_policy_solve(factor, row)
        xB /= xB.sum()
    return np.append(psi[:-1] - psi[-1], g), xB


def policy_iteration(cost, policy, evaluate, price, what, repair=None):
    """The one policy-iteration loop, of `lp_solve` and
    `discounted.solve_discounted`: from `policy`, a velocity index per node,
    evaluate(policy) gives the values y and the rest of the evaluation, and
    price(y) the (n, M) prices of every pair.  A node switches to its
    cheapest pair (the lowest index on a tie) only when that beats its own
    by more than tol = TOL (1 + max|cost|) + 64 eps max|y|, the round-off of
    the prices; repair amends each step's policy.  Returns (policy, y,
    evaluation, priced, tol, steps after the start) at the first policy
    that switches no node; more than 2n + 64 steps raise MaxIterExceeded.
    """
    rows = np.arange(len(policy))
    max_steps = 2 * len(policy) + 64
    floor = TOL * (1.0 + float(np.max(np.abs(cost))))
    steps = 0
    while True:
        y, evaluation = evaluate(policy)
        priced = price(y)
        tol = floor + 64.0 * np.finfo(float).eps * float(np.max(np.abs(y)))
        best = np.argmin(priced, axis=1)
        switched = priced[rows, best] < priced[rows, policy] - tol
        if not switched.any():
            return policy, y, evaluation, priced, tol, steps
        if steps == max_steps:
            raise MaxIterExceeded(f"policy iteration on the {what} still switching after "
                                  f"{max_steps} steps", iterations=max_steps)
        steps += 1
        policy = np.where(switched, best, policy)
        if repair is not None:
            policy = repair(policy, priced, switched)


def lp_solve(problem):
    """Solve the program by `policy_iteration` from its own policy, or the
    rest policy; returns the measure, the optimum, the duals (the
    multipliers on the stationarity rows approximate a subsolution
    potential, reported for diagnostics), the policy steps and the policy.

    The last policy must be certified: its own columns price to 0 within
    tol, so every reduced cost is >= -tol, and its measure is nonnegative
    and satisfies the rows within FEAS_TOL; otherwise SingularBasis is
    raised.  An ergodic policy is kept to one closed class (`_unichain`).
    Masses at or below SUPPORT_TOL are zeroed.
    """
    tr = problem.transition
    n, M = tr.grid.num_nodes, tr.velocity_set.size
    rows = np.arange(n)
    L = problem.c.reshape(n, M)
    ergodic = problem.kind == "ergodic"
    policy = (np.full(n, tr.velocity_set.zero_index()) if problem.policy is None
              else np.array(problem.policy, dtype=np.intp))
    repair = None
    if ergodic:
        policy, r = _unichain(tr, policy, L)

        def repair(policy, reduced, switched):
            nonlocal r
            policy, r = _unichain(tr, policy, reduced, switched)
            return policy

    def evaluate(policy):
        if ergodic:
            return _evaluate_ergodic(problem, policy, L[rows, policy], r)
        return _evaluate_discounted(problem, policy, L[rows, policy])

    policy, y, xB, reduced, tol, steps = policy_iteration(
        L, policy, evaluate, lambda y: (problem.c - problem.A.vecmat(y)).reshape(n, M),
        f"{problem.kind} program", repair=repair)
    x = np.zeros(n * M)
    x[rows * M + policy] = np.maximum(xB, 0.0)
    mu = x.reshape(n, M)
    out, inflow = _flows(mu, tr)
    if ergodic:
        residual = max(float(np.max(np.abs(out - inflow))), abs(float(mu.sum()) - 1.0))
    else:
        residual = float(np.max(np.abs((1.0 + problem.lam_h) * out - inflow - problem.b)))
    priced = float(np.max(np.abs(reduced[rows, policy])))
    if not (priced <= tol and np.min(xB) >= -FEAS_TOL and residual <= FEAS_TOL):
        raise SingularBasis(f"the {problem.kind} program's policy matrix is numerically "
                            f"singular: its measure misses the rows by {residual:.3e} with "
                            f"least mass {np.min(xB):.3e}, and its columns price at up to "
                            f"{priced:.3e} against a tolerance {tol:.3e}")
    return LPResult(measure=np.where(x > SUPPORT_TOL, x, 0.0).reshape(n, M),
                    objective=float(problem.c @ x), duals=y, iterations=steps,
                    policy=policy)


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
    cuts = np.searchsorted(src[order], np.arange(n + 1)).tolist()
    heads = dst[order].tolist()
    succ = [heads[a:b] for a, b in zip(cuts, cuts[1:])]
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
