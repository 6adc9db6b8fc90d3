"""Maximal discounted solutions by semi-Lagrangian Howard policy iteration.

The scheme is the implicit fixed point

    u(i) = min over q in Q of [ h L(x_i, q) + u(x_i + h q) ] / (1 + lambda h)

with the foot value interpolated multilinearly and feet clipped to the box
(the state-constraint boundary condition: trajectories may not exit, which
matches the untruncated solution at interior points once lambda is small).
Howard's algorithm alternates a greedy policy choice with the exact
evaluation of that policy, the linear solve ((1 + lambda h) I - W_q) u =
h L_q, and stops when the policy repeats: the result is the discrete fixed
point itself, in a number of steps that does not grow as lambda -> 0 the
way value iteration's 1/(lambda h) sweeps do.  Started from a constant
upper bound the iterates decrease monotonically (Bokanowski, Maroso &
Zidani, SIAM J. Numer. Anal. 47, 2009), so the order doubles as a
from-above Perron construction.

Closed-form oracles: for H = |p| - |x| the bounded-below solution is
u(x) = |x|/lambda + (exp(-lambda |x|) - 1)/lambda^2; for H = |p|^2/2 - x^2/2
the ansatz alpha x^2 gives alpha = (-lambda + sqrt(lambda^2 + 4))/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MaxIterExceeded, WeakKAMError
from .grids import build_transition, interpolate
from .models import lagrangian_table

# Narrower blocks cost more in per-block overhead than they save in
# arithmetic: on 801 nodes in 1D one policy solve takes 15 ms at B = 1
# and 3 ms at B = 16.
MIN_BLOCK = 16


@dataclass
class DiscountedSolve:
    lam: float
    u: np.ndarray                         # the fixed point, one value per node
    iterations: int                       # policy steps
    residual: float                       # sup |T u - u| at the returned u
    trace: list = None                    # (step, sup-update) pairs
    policy_changes: list = None           # nodes that switched action, per step


def upper_start(model, grid, velocity_set, lam):
    """Constant U with T(U) <= U: U = max_x min_q L(x,q) / lambda."""
    L = lagrangian_table(model, grid.coords, velocity_set.vectors)
    return float(np.max(np.min(L, axis=1))) / lam


def policy_solve(transition, q, rhs, diag):
    """Solve (diag I - W_q) u = rhs, row i of W_q the interpolation weights
    of the foot (i, q[i]).

    Every weight links nodes at most max |j - i| apart, so with nodes
    grouped in blocks of B >= that distance the matrix is block
    tridiagonal.  It is strictly diagonally dominant by rows (W_q is
    stochastic and diag > 1), so block elimination needs no pivoting across
    blocks.  Padding rows past n hold diag alone and solve to 0.
    """
    n = len(q)
    rows = np.arange(n)
    idx, w = transition.idx[rows, q], transition.w[rows, q]        # (n, K)
    B = max(int(np.max(np.abs(idx - rows[:, None]))), MIN_BLOCK)
    nb = -(-n // B)
    # band[r, a, c] is the entry of row r*B + a, column (r-1)*B + c
    at = rows[:, None] * (3 * B) + idx - (rows[:, None] // B - 1) * B
    band = np.bincount(at.ravel(), weights=-w.ravel(), minlength=nb * B * 3 * B)
    band = band.reshape(nb, B, 3 * B)
    band[:, np.arange(B), B + np.arange(B)] += diag
    b = np.zeros(nb * B)
    b[:n] = rhs
    b = b.reshape(nb, B)
    C = np.empty((nb, B, B))
    z = np.empty((nb, B))
    for r in range(nb):
        S, y = band[r, :, B:2 * B], b[r]
        if r:
            S = S - band[r, :, :B] @ C[r - 1]
            y = y - band[r, :, :B] @ z[r - 1]
        X = np.linalg.solve(S, np.column_stack([band[r, :, 2 * B:], y]))
        C[r], z[r] = X[:, :B], X[:, B]
    for r in range(nb - 2, -1, -1):
        z[r] -= C[r] @ z[r + 1]
    return z.reshape(-1)[:n]


def solve_discounted(model, grid, velocity_set, lam, tol=1e-6, max_iter=None,
                     transition=None):
    """Howard policy iteration to the discrete fixed point.

    Each step improves the policy greedily (a node keeps its action unless
    another is strictly cheaper; among new actions the lowest velocity
    index wins) and evaluates it exactly; it stops when the improvement
    returns a policy already evaluated.  max_iter caps the policy steps
    (default 2n + 64 for n nodes) and raises MaxIterExceeded with the
    Bellman residual sup |T u - u| at the last iterate.  The
    monotone-decrease invariant is checked every step, and the final
    Bellman residual must not exceed tol.
    """
    if lam <= 0:
        raise ValueError("discount rate lambda must be positive")
    if transition is None:
        transition = build_transition(grid, velocity_set)
    n = grid.num_nodes
    rows = np.arange(n)
    stage = grid.h * lagrangian_table(model, grid.coords, velocity_set.vectors)
    denom = 1.0 + lam * grid.h
    u = np.full(n, upper_start(model, grid, velocity_set, lam))
    scale = 1.0 + float(np.max(np.abs(u)))
    if max_iter is None:
        # the sweep cap of critical.relax_batch; on 1D grids of 9 to 161
        # nodes the most seen was 0.67 n (6 steps on 9 nodes)
        max_iter = 2 * n + 64
    q = None
    trace, changes, seen = [], [], set()
    while True:
        vals = stage + interpolate(transition, u)
        new_q = np.argmin(vals, axis=1)
        residual = float(np.max(np.abs(vals[rows, new_q] / denom - u)))
        if q is not None:
            new_q = np.where(vals[rows, q] <= vals[rows, new_q], q, new_q)
        # exact arithmetic never revisits a policy; round-off between two
        # tied actions can, and then either policy is the fixed point
        if new_q.tobytes() in seen:
            break
        seen.add(new_q.tobytes())
        if len(trace) == max_iter:
            raise MaxIterExceeded(f"policy still changing after {max_iter} steps",
                                  residual=residual, iterations=max_iter)
        changes.append(n if q is None else int(np.count_nonzero(new_q != q)))
        q = new_q
        new = policy_solve(transition, q, stage[rows, q], denom)
        rise = float(np.max(new - u))
        if rise > 1e-10 * scale:
            raise WeakKAMError(f"monotone decrease violated by {rise:.3e} "
                               f"at policy step {len(trace) + 1}")
        trace.append((len(trace) + 1, float(np.max(u - new))))
        u = new
    if residual > tol:
        raise WeakKAMError(f"Bellman residual {residual:.3e} of the final policy "
                           f"exceeds tol {tol:g}")
    return DiscountedSolve(lam=lam, u=u, iterations=len(trace), residual=residual,
                           trace=trace, policy_changes=changes)


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
