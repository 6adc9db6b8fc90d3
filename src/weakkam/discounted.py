"""Maximal discounted solutions by semi-Lagrangian Howard policy iteration.

The scheme is the implicit fixed point

    u(i) = min over q in Q of [ h L(x_i, q) + u(x_i + h q) ] / (1 + lambda h)

with the foot value interpolated multilinearly and feet clipped to the box
(the state-constraint boundary condition: trajectories may not exit, which
matches the untruncated solution at interior points once lambda is small).
Howard's algorithm (`solve_discounted`) evaluates a policy exactly, the
solve ((1 + lambda h) I - W_q) u = h L_q, and improves it on the loop of
the occupation-measure programs (`measures.policy_iteration`), from the
rest policy: it reaches the discrete fixed point itself in a number of
steps that does not grow as lambda -> 0 the way value iteration's
1/(lambda h) sweeps do, its iterates decreasing after the first
(Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal. 47, 2009).  A policy's
matrix is the LP basis of the policy, transposed (`measures`).  On a 2D or
higher grid, the chain of a policy (self-weights left out) is as a rule
acyclic.  Its matrix is then triangular in the chain's level order, and
`policy_solve` substitutes one level at a time (Dai, Mausam, Weld &
Goldsmith, "Topological Value Iteration Algorithms", JAIR 42, 2011).  A
cyclic chain, and every 1D one, is solved as a block tridiagonal matrix.

Closed-form oracles: for H = |p| - |x| the bounded-below solution is
u(x) = |x|/lambda + (exp(-lambda |x|) - 1)/lambda^2; for H = |p|^2/2 - x^2/2
the ansatz alpha x^2 gives alpha = (-lambda + sqrt(lambda^2 + 4))/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MaxIterExceeded, SingularBasis, WeakKAMError
from .grids import interpolate
from .models import lagrangian_table

# The block elimination (`_block_solve`) runs on every 1D policy and on a
# 2D policy only when its chain has a cycle.  Narrower blocks cost more in
# per-block overhead than they save in arithmetic: on 801 nodes in 1D one
# policy solve takes 15 ms at B = 1 and 3 ms at B = 16.
MIN_BLOCK = 16
# Bytes of the band formed at once: a 1D band (26 blocks of 16 x 48 at 401
# nodes, 160 KB) stays one bincount, the band of a cyclic 2D policy is
# formed a block or a few at a time.
SLAB_BYTES = 1 << 18
RESIDUAL_TOL = 1e-7  # bound on the final Bellman residual sup |T u - u|


@dataclass
class DiscountedSolve:
    lam: float
    u: np.ndarray                         # the fixed point, one value per node
    iterations: int                       # policy steps
    residual: float                       # sup |T u - u| at the returned u
    policy: np.ndarray                    # the policy u evaluates: a velocity
                                          # index per node
    trace: list = None                    # (step, sup-update) pairs
    policy_changes: list = None           # nodes that switched action, per step


def upper_start(model, grid, velocity_set, lam):
    """Constant U with T(U) <= U: U = max_x min_q L(x,q) / lambda."""
    L = lagrangian_table(model, grid.coords, velocity_set.vectors)
    return float(np.max(np.min(L, axis=1))) / lam


def policy_solve(transition, q, rhs, lam_h, keep=False, absorbing=None):
    """Solve ((1 + lam_h) I - W_q) u = rhs, row i of W_q the interpolation
    weights of the foot (i, q[i]); the row of the node `absorbing`, when
    given, is zero.  rhs is one value per node, or an (n, k) array of k
    right-hand sides solved with the one factorization.  Returns u, or with
    `keep` (u, factor): the factor solves with the matrix's transpose
    (`transposed_policy_solve`).

    The diagonal is formed as (1 - w_ii) + lam_h, so a node that rests
    (w_ii = 1) keeps lam_h exactly, where (1 + lam_h) - 1 errs by up to
    eps / lam_h relative.  A lam_h > 0 lost in 1 + lam_h raises SingularBasis.

    On a grid of two or more dimensions the solve follows the policy's
    chain: when the chain i -> foot nodes of positive weight, self-weights
    left out, has no cycle (`chain_levels`), the matrix is triangular in
    level order and is solved by substitution a level at a time
    (`ChainFactor`).  A cyclic chain, and every 1D one (a 1D band is a few
    small blocks, cheaper than the level-by-level loop), is solved by block
    elimination (`_block_solve`).
    """
    if lam_h > 0.0 and 1.0 + lam_h == 1.0:
        raise SingularBasis(f"1 + lambda h rounds to 1 at lambda h = {lam_h:g}: the discount "
                            f"is lost, and the policy matrix is the singular I - W")
    n = len(q)
    rows = np.arange(n)
    idx, w = transition.idx[rows, q], transition.w[rows, q]        # (n, K)
    if absorbing is not None:
        w[absorbing] = 0.0
    if transition.grid.dimension > 1:
        levels = chain_levels(idx, w)
        if levels is not None:
            factor = ChainFactor(levels, idx, w, lam_h)
            u = factor.solve(rhs)
            return (u, factor) if keep else u
    return _block_solve(idx, w, rhs, lam_h, keep)


def chain_levels(idx, w):
    """The nodes of the chain i -> idx[i, k] (w[i, k] != 0, idx[i, k] != i)
    by level, a sorted array of nodes each: level 0 reads no other node, and
    each later level only nodes of the levels before it.  The levels are
    peeled off in turn (Kahn's order), each as one array step over the
    readers of the last level.  None when a step finds no ready node: the
    chain has a cycle."""
    n = len(idx)
    reads = (w != 0.0) & (idx != np.arange(n)[:, None])
    src, dst = np.nonzero(reads)[0], idx[reads]
    order = np.argsort(dst, kind="stable")
    src, dst = src[order], dst[order]
    count = np.bincount(dst, minlength=n)
    # row j lists the readers of node j, padded with the dummy node n
    readers = np.full((n, max(int(count.max(initial=0)), 1)), n)
    readers[dst, np.arange(len(dst)) - (np.cumsum(count) - count)[dst]] = src
    pending = np.append(np.bincount(src, minlength=n), -1)  # unsolved reads per node
    level = np.flatnonzero(pending == 0)
    levels, placed = [], 0
    while level.size:
        levels.append(level)
        placed += level.size
        pending[level] = -1
        pending -= np.bincount(readers[level].ravel(), minlength=n + 1)
        level = np.flatnonzero(pending == 0)
    return levels if placed == n else None


class ChainFactor:
    """The policy matrix diag I - W of an acyclic chain in level order: W's
    self-weights are folded into diag = (1 - w_ii) + lam_h, and every other
    weight reads a node of an earlier level (`chain_levels`).  A zero
    diagonal entry makes the triangular matrix singular and raises
    SingularBasis."""

    def __init__(self, levels, idx, w, lam_h):
        own = idx == np.arange(len(idx))[:, None]
        self.levels, self.idx = levels, idx
        self.w = np.where(own, 0.0, w)
        self.diag = (1.0 - np.where(own, w, 0.0).sum(axis=1)) + lam_h
        if not np.all(self.diag):
            i = int(np.flatnonzero(self.diag == 0.0)[0])
            raise SingularBasis(f"node {i} rests at lambda h = {lam_h!r}: its row of the policy "
                                f"matrix I - W, the transpose of its LP basis, is 0")

    def solve(self, rhs):
        """u with (diag I - W) u = rhs, rhs (n,) or (n, k): each level at
        once, u = (rhs + W u) / diag, from the levels before it."""
        rhs = np.asarray(rhs, dtype=float)
        extra = (1,) * (rhs.ndim - 1)
        w = self.w.reshape(self.w.shape + extra)
        diag = self.diag.reshape(self.diag.shape + extra)
        u = np.zeros(rhs.shape)
        for level in self.levels:
            u[level] = (rhs[level] + (w[level] * u[self.idx[level]]).sum(axis=1)) / diag[level]
        return u

    def transposed_solve(self, rhs):
        """x with (diag I - W)^T x = rhs, rhs (n,): the levels in reverse,
        each level's x = (rhs + the contributions of its readers) / diag,
        then its own contributions added to the nodes it reads."""
        acc = np.array(rhs, dtype=float)
        x = np.zeros(len(acc))
        for level in reversed(self.levels):
            x[level] = acc[level] / self.diag[level]
            np.add.at(acc, self.idx[level], self.w[level] * x[level, None])
        return x


def _block_solve(idx, w, rhs, lam_h, keep):
    """`policy_solve` by block elimination, for the weights idx, w (n, K) of
    the policy's rows; with `keep` the factor (S, L, C).

    Every weight links nodes at most max |j - i| apart, so with nodes
    grouped in blocks of B >= that distance the matrix is block
    tridiagonal.  With W substochastic and lam_h > 0 it is strictly
    diagonally dominant by rows; with lam_h = 0 it is a nonsingular
    M-matrix when every node reaches a row of W that sums to less than 1,
    and so are its Schur complements.  Either way block elimination needs
    no pivoting across blocks; a singular block raises SingularBasis.
    Padding rows past n hold 1 + lam_h alone and solve to 0.

    Memory: the band is formed a slab of blocks at a time, each slab at
    most SLAB_BYTES (one block when a block alone is larger), and only the
    (blocks, B, B) elimination factors C are kept for the back
    substitution, about a third of the full (blocks, B, 3B) band; `keep`
    also keeps the Schur complements S and the sub-diagonal blocks L.
    """
    n = len(idx)
    rows = np.arange(n)
    B = max(int(np.max(np.abs(idx - rows[:, None]))), MIN_BLOCK)
    nb = -(-n // B)
    # entry (row r*B + a, column (r-1)*B + c) sits at (r*B + a)*3B + c of
    # the flat band, so a slab of blocks is a contiguous range of it
    at = rows[:, None] * (3 * B) + idx - (rows[:, None] // B - 1) * B
    per_slab = max(1, SLAB_BYTES // (B * 3 * B * 8))
    extra = np.shape(rhs)[1:]
    b = np.zeros((nb * B,) + extra)
    b[:n] = rhs
    b = b.reshape((nb, B) + extra)
    C = np.empty((nb, B, B))
    z = np.empty((nb, B) + extra)
    factor = (np.empty((nb, B, B)), np.empty((nb, B, B)), C) if keep else None
    for r0 in range(0, nb, per_slab):
        r1 = min(r0 + per_slab, nb)
        lo, hi = r0 * B, min(r1 * B, n)
        band = np.bincount((at[lo:hi] - lo * 3 * B).ravel(), weights=-w[lo:hi].ravel(),
                           minlength=(r1 - r0) * B * 3 * B)
        band = band.reshape(r1 - r0, B, 3 * B)
        diagonal = band[:, np.arange(B), B + np.arange(B)]
        band[:, np.arange(B), B + np.arange(B)] = (diagonal + 1.0) + lam_h
        for r in range(r0, r1):
            blk = band[r - r0]
            S, y = blk[:, B:2 * B], b[r]
            if r:
                S = S - blk[:, :B] @ C[r - 1]
                y = y - blk[:, :B] @ z[r - 1]
            try:
                X = np.linalg.solve(S, np.column_stack([blk[:, 2 * B:], y]))
            except np.linalg.LinAlgError:
                raise SingularBasis(f"block {r} of the policy matrix (1 + {lam_h!r}) I - W, "
                                    f"the transpose of its LP basis, is singular") from None
            C[r], z[r] = X[:, :B], X[:, B:].reshape(z[r].shape)
            if keep:
                factor[0][r], factor[1][r] = S, blk[:, :B]
        del band
    for r in range(nb - 2, -1, -1):
        z[r] -= C[r] @ z[r + 1]
    u = z.reshape((nb * B,) + extra)[:n]
    return (u, factor) if keep else u


def transposed_policy_solve(factor, rhs):
    """x with (diag I - W_q)^T x = rhs, from the factor of `policy_solve`:
    a `ChainFactor` by its levels in reverse, or the block factor (S, L, C),
    the matrix (block lower, S and L) times (unit block upper, C), so
    forward with C^T, then back with S^T and L^T."""
    if isinstance(factor, ChainFactor):
        return factor.transposed_solve(rhs)
    S, L, C = factor
    nb, B, _ = C.shape
    n = len(rhs)
    v = np.zeros(nb * B)
    v[:n] = rhs
    v = v.reshape(nb, B)
    for r in range(1, nb):
        v[r] -= C[r - 1].T @ v[r - 1]
    v[-1] = np.linalg.solve(S[-1].T, v[-1])
    for r in range(nb - 2, -1, -1):
        v[r] = np.linalg.solve(S[r].T, v[r] - L[r + 1].T @ v[r + 1])
    return v.reshape(-1)[:n]


def solve_discounted(model, grid, velocity_set, lam, tol=RESIDUAL_TOL, max_iter=None, *,
                     transition, policy0=None):
    """Howard policy iteration to the discrete fixed point: the steps of
    `measures.policy_iteration` on the stage costs h L from policy0 (a
    velocity index per node) or the rest policy, the start's evaluation the
    first.  max_iter caps the steps (default 2n + 64 for n nodes, at most
    the loop's cap) and raises MaxIterExceeded with the Bellman residual
    sup |T u - u| at the last iterate.  Each later step must decrease
    (T u_q <= u_q for the value u_q of any policy q) to within 1e-10 (1 + U)
    for U = `upper_start`; the final Bellman residual must not exceed tol.
    """
    from .measures import policy_iteration  # measures imports this module
    if lam <= 0:
        raise ValueError("discount rate lambda must be positive")
    n = grid.num_nodes
    rows = np.arange(n)
    stage = grid.h * lagrangian_table(model, grid.coords, velocity_set.vectors)
    lam_h = lam * grid.h
    top = upper_start(model, grid, velocity_set, lam)
    if max_iter is None:
        max_iter = 2 * n + 64  # critical.relax_batch's sweep cap; 1D grids take <= 0.67 n
    u, q, residual = np.full(n, top), None, math.inf
    trace, changes = [], []

    def evaluate(new_q):
        nonlocal u, q
        if len(trace) == max_iter:
            raise MaxIterExceeded(f"policy still changing after {max_iter} steps",
                                  residual=residual, iterations=max_iter)
        new = policy_solve(transition, new_q, stage[rows, new_q], lam_h)
        rise = float(np.max(new - u))
        if q is not None and rise > 1e-10 * (1.0 + abs(top)):
            raise WeakKAMError(f"monotone decrease violated by {rise:.3e} "
                               f"at policy step {len(trace) + 1}")
        changes.append(n if q is None else int(np.count_nonzero(new_q != q)))
        trace.append((len(trace) + 1, float(np.max(u - new))))
        u, q = new, new_q
        return new, None

    def price(values):
        nonlocal residual
        vals = stage + interpolate(transition, values)
        residual = float(np.max(np.abs(np.min(vals, axis=1) / (1.0 + lam_h) - values)))
        return vals

    start = np.full(n, velocity_set.zero_index()) if policy0 is None else policy0
    policy_iteration(stage, np.array(start, dtype=np.intp), evaluate, price,
                     "discounted scheme")
    if residual > tol:
        raise WeakKAMError(f"Bellman residual {residual:.3e} of the final policy "
                           f"exceeds tol {tol:g}")
    return DiscountedSolve(lam=lam, u=u, iterations=len(trace), residual=residual,
                           policy=q, trace=trace, policy_changes=changes)


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------

def oracle_abs(lam, x):
    """Bounded-below solution of lambda u + |u'| = |x| on the line."""
    ax = np.abs(np.asarray(x, dtype=float))
    return ax / lam + (np.exp(-lam * ax) - 1.0) / lam ** 2


def quadratic_rate(lam):
    return (-lam + math.sqrt(lam * lam + 4.0)) / 4.0


def oracle_quadratic(lam, x):
    """Solution alpha x^2 of lambda u + (u')^2/2 = x^2/2."""
    return quadratic_rate(lam) * np.asarray(x, dtype=float) ** 2
